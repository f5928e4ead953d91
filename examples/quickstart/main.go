// Quickstart: build a simulated multi-homed client (WiFi + LTE), run a
// 1 MB download over single-path TCP on each network and over the four
// MPTCP variants, and print the measured throughputs — the paper's
// basic measurement unit (Section 3.2) in ~40 lines.
package main

import (
	"fmt"

	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
)

func main() {
	// A location where WiFi and LTE are comparable: MPTCP should
	// aggregate (paper Fig. 7b).
	wifi := phy.PathProfile{DownMbps: 8, UpMbps: 3, RTTms: 40, LossPct: 0.5, Variability: 0.2}
	lte := phy.PathProfile{DownMbps: 6, UpMbps: 2.5, RTTms: 70, LossPct: 0.2, Variability: 0.2}
	cond := phy.NewCondition("quickstart", phy.Path{Name: "wifi", Profile: wifi}, phy.Path{Name: "lte", Profile: lte})
	const size = 1 << 20

	configs := []core.Config{
		{Transport: core.TCP, Iface: "wifi"},
		{Transport: core.TCP, Iface: "lte"},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled},
		{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Coupled},
	}

	fmt.Printf("1 MB download at %q (WiFi %.0f Mbit/s / LTE %.0f Mbit/s):\n\n",
		cond.Name, wifi.DownMbps, lte.DownMbps)
	fmt.Printf("%-24s %10s %12s\n", "config", "FCT", "throughput")
	for i, cfg := range configs {
		// A fresh session per measurement, as the paper measures
		// back-to-back transfers; closing it lets the next one reuse
		// the simulator's memory.
		s := core.NewSession(int64(100+i), cond)
		r := s.Run(cfg, core.Download, size)
		s.Close()
		if !r.Completed {
			fmt.Printf("%-24s %10s %12s\n", cfg.Name(), "-", "did not finish")
			continue
		}
		fmt.Printf("%-24s %10v %9.2f Mb/s\n", cfg.Name(), r.FCT.Round(1e6), r.Mbps)
	}
}
