package experiments

import (
	"fmt"
	"time"

	"multinet/internal/core"
	"multinet/internal/experiments/engine"
	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
)

// scenario-faults drives live transfers through deterministic fault
// schedules — the chaos counterpart of Figure 15's hand-built outage
// cases. Each profile (an administrative outage, a silent blackhole, a
// flap train, a loss burst, a rate collapse) runs against single-path
// TCP on each interface and against MPTCP with the stuck-flow watchdog
// armed, measuring who completes and at what throughput. The schedules
// compile onto simulator timers, so the whole family is bit-identical
// at any worker count.
func init() {
	register("scenario-faults", "Scenario: fault injection", "scenario", 29,
		func(o Options) fmt.Stringer { return ScenarioFaults(o) })
}

// faultProfile is one named schedule of the family.
type faultProfile struct {
	name  string
	sched faults.Schedule
}

// scenarioFaultProfiles builds the fixed profile list. Faults begin at
// 1 s — mid-transfer for every configuration measured — and every
// episode ends by 4 s, leaving room to recover inside the horizon.
func scenarioFaultProfiles() []faultProfile {
	return []faultProfile{
		{"baseline", faults.Schedule{}},
		{"wifi-down", faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.AdminDown, Iface: "wifi", Start: time.Second, Duration: 2 * time.Second},
		}}},
		{"wifi-blackhole", faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.Blackhole, Iface: "wifi", Start: time.Second, Duration: 2 * time.Second},
		}}},
		{"lte-flap", faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.FlapTrain, Iface: "lte", Start: time.Second,
				Duration: 200 * time.Millisecond, Cycles: 3, Period: 600 * time.Millisecond},
		}}},
		{"wifi-loss-burst", faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.LossBurst, Iface: "wifi", Start: time.Second,
				Duration: 2 * time.Second, LossProb: 0.1},
		}}},
		{"lte-rate-collapse", faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.RateCollapse, Iface: "lte", Start: time.Second,
				Duration: 2 * time.Second, RateFactor: 0.1},
		}}},
		{"both-down-staggered", faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.AdminDown, Iface: "wifi", Start: time.Second, Duration: 1500 * time.Millisecond},
			{Kind: faults.AdminDown, Iface: "lte", Start: 3 * time.Second, Duration: time.Second},
		}}},
	}
}

// ScenarioFaultsResult is the profile × configuration throughput grid.
type ScenarioFaultsResult struct {
	Profiles []string
	Configs  []string
	// Mbps[profile][config]; 0 means the transfer did not complete
	// inside the horizon (aborted by the watchdog or RTO limits).
	Mbps [][]float64
}

// ScenarioFaults measures every fault profile against single-path TCP
// and watchdog-armed MPTCP. Constant-rate paths (Variability 0) keep
// the rate-collapse episode exact.
func ScenarioFaults(o Options) ScenarioFaultsResult {
	cond := phy.Condition{
		Name: "faults",
		WiFi: phy.PathProfile{DownMbps: 20, UpMbps: 12, RTTms: 30, QueuePkts: 150},
		LTE:  phy.PathProfile{DownMbps: 12, UpMbps: 6, RTTms: 60, QueuePkts: 250},
	}
	cfgs := []core.Config{
		{Transport: core.TCP, Iface: "wifi"},
		{Transport: core.TCP, Iface: "lte"},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled, WatchdogRTOs: 4},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled, Mode: mptcp.Backup,
			BackupIfaces: []string{"lte"}, WatchdogRTOs: 4},
	}
	profiles := scenarioFaultProfiles()
	res := ScenarioFaultsResult{}
	for _, p := range profiles {
		res.Profiles = append(res.Profiles, p.name)
	}
	for _, c := range cfgs {
		label := c.Name()
		if c.Mode == mptcp.Backup {
			label += "+backup"
		}
		res.Configs = append(res.Configs, label)
	}
	const size = 16 << 20
	grid := engine.Grid(o, len(profiles), len(cfgs), func(pi, ci int) float64 {
		sess := core.NewSession(seedFor(o.BaseSeed(), 41, pi, ci), cond)
		defer sess.Close()
		sess.Horizon = 60 * time.Second
		if len(profiles[pi].sched.Episodes) > 0 {
			if _, err := profiles[pi].sched.Attach(sess.Sim, sess.Host); err != nil {
				panic(err)
			}
		}
		return sess.RunMbps(cfgs[ci], core.Download, size)
	})
	for pi := range profiles {
		res.Mbps = append(res.Mbps, grid[pi*len(cfgs):(pi+1)*len(cfgs)])
	}
	return res
}

// String renders the grid; a dash marks a transfer that never finished
// (the fault outlived the transport's ability to recover).
func (r ScenarioFaultsResult) String() string {
	out := "16 MB downloads through deterministic fault schedules (Mbit/s; - = did not complete)\n"
	header := append([]string{"fault"}, r.Configs...)
	var rows [][]string
	for pi, p := range r.Profiles {
		row := []string{p}
		for _, m := range r.Mbps[pi] {
			if m == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f", m))
			}
		}
		rows = append(rows, row)
	}
	out += table(header, rows)
	return out
}
