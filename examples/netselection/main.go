// Netselection demonstrates the adaptive network selector — the policy
// the paper's conclusion asks for ("how can we automatically decide
// when to use single path TCP and when to use MPTCP?").
//
// At each of three very different locations it probes both networks,
// asks the selector for a configuration per flow size, and compares
// the result with the static always-WiFi policy (the Android default
// the paper critiques).
package main

import (
	"fmt"

	"multinet/internal/core"
	"multinet/internal/phy"
	"multinet/internal/selector"
)

func main() {
	locs := []phy.Location{
		phy.LocationByID(10), // apartment: WiFi much better
		phy.LocationByID(16), // conference room: LTE much better
		phy.LocationByID(11), // cafe: comparable paths
	}
	sizes := []int{10 << 10, 1 << 20, 8 << 20}

	for _, loc := range locs {
		fmt.Printf("location %d (%s, %s): WiFi %.1f Mbit/s, LTE %.1f Mbit/s\n",
			loc.ID, loc.City, loc.Desc, loc.WiFi.DownMbps, loc.LTE.DownMbps)

		probe := core.NewSession(int64(loc.ID), loc.Condition())
		est := probe.Probe()
		fmt.Printf("  probe: wifi %.2f Mbit/s, lte %.2f Mbit/s -> best=%s disparity=%.1fx\n",
			est.Mbps("wifi"), est.Mbps("lte"), est.Best(), est.PairDisparity())

		for _, size := range sizes {
			d := selector.Decide(est, size)
			cfg := core.ConfigFor(d)
			chosen := core.NewSession(int64(loc.ID*100), loc.Condition()).Run(cfg, core.Download, size)
			static := core.NewSession(int64(loc.ID*100), loc.Condition()).
				Run(core.Config{Transport: core.TCP, Iface: "wifi"}, core.Download, size)
			speedup := float64(static.FCT) / float64(chosen.FCT)
			fmt.Printf("  %7dKB -> %-22s FCT %8v (always-wifi %8v, %.1fx)\n",
				size>>10, cfg.Name(), chosen.FCT.Round(1e6), static.FCT.Round(1e6), speedup)
		}
		fmt.Println()
	}
}
