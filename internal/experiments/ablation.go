package experiments

import (
	"fmt"
	"sort"
	"time"

	"multinet/internal/core"
	"multinet/internal/energy"
	"multinet/internal/experiments/engine"
	"multinet/internal/phy"
	"multinet/internal/selector"
	"multinet/internal/stats"
)

func init() {
	register("ablation-join", "Ablation: late join", "D.1", 21, func(o Options) fmt.Stringer { return AblationJoinDelay(o) })
	register("ablation-scheduler", "Ablation: scheduler", "D.2", 22, func(o Options) fmt.Stringer { return AblationScheduler(o) })
	register("ablation-tail", "Ablation: tail time", "D.3", 23, func(o Options) fmt.Stringer { return AblationTailTime(o) })
	register("ablation-selector", "Ablation: selector", "D.4", 24, func(o Options) fmt.Stringer { return AblationSelector(o) })
}

// AblationJoinResult tests the design claim that the late MP_JOIN
// drives short-flow MPTCP's sensitivity to the primary network
// (DESIGN.md ablation 1). The result is more subtle than the paper
// implies: even when both subflows handshake simultaneously, a short
// flow's data has already been committed to the primary subflow's
// retransmission queue before the second path becomes usable, so most
// of the sensitivity REMAINS. The late join adds to the effect; the
// data-commitment ordering is its root cause.
type AblationJoinResult struct {
	// MedianPctSequential is the Fig. 8-style median relative
	// difference for 10 KB flows with the standard late join.
	MedianPctSequential float64
	// MedianPctSimultaneous is the same with both subflows started at
	// dial time.
	MedianPctSimultaneous float64
}

// AblationJoinDelay measures primary-choice sensitivity with and
// without the late join.
func AblationJoinDelay(o Options) AblationJoinResult {
	const size = 10 << 10
	n := o.LocationCount(len(phy.Locations))
	trials := o.TrialCount(2)
	var median [2]float64
	for si, simultaneous := range []bool{false, true} {
		rel := relDiffGrid(o, n, trials, func(i, t int) (float64, float64) {
			loc := phy.Locations[i]
			c := o.Cell(771, loc.ID, t, 0).Unpaired(si)
			lte := measureMbps(c, loc.Condition(), core.Config{
				Transport: core.MPTCP, Primary: "lte", SimultaneousJoin: simultaneous,
			}, core.Download, size, 1)
			wifi := measureMbps(c.Unpaired(1), loc.Condition(), core.Config{
				Transport: core.MPTCP, Primary: "wifi", SimultaneousJoin: simultaneous,
			}, core.Download, size, 1)
			return lte, wifi
		})
		median[si] = stats.Median(rel)
	}
	return AblationJoinResult{
		MedianPctSequential:   median[0],
		MedianPctSimultaneous: median[1],
	}
}

// String renders the comparison.
func (r AblationJoinResult) String() string {
	return fmt.Sprintf("Ablation: late join — 10KB primary-choice sensitivity\n"+
		"sequential join (Linux): median %.0f%%; simultaneous join: median %.0f%%\n"+
		"(sensitivity persists even with simultaneous joins: short-flow data\n"+
		" is committed to the primary subflow before the second path is usable)\n",
		r.MedianPctSequential, r.MedianPctSimultaneous)
}

// AblationSchedulerResult compares the min-SRTT scheduler with naive
// round-robin on a disparate-path location (DESIGN.md ablation 2).
type AblationSchedulerResult struct {
	MinRTTMbps     float64
	RoundRobinMbps float64
}

// AblationScheduler measures 1 MB MPTCP downloads in two arms. Both
// arms run min-SRTT, since in a download only the server's scheduler
// sends data, so they differ only by seed until ROADMAP item 4 deletes
// or re-points the experiment. scenario-schedulers is the real
// both-ends scheduler comparison.
func AblationScheduler(o Options) AblationSchedulerResult {
	loc := phy.LocLTEMuchBetter
	trials := o.TrialCount(5)
	// One sweep over arm × trial; each arm is the mean of its trials.
	mbps := engine.Sweep(o, 2*trials, func(k int) float64 {
		return transferMbps(o.Cell(772, 0).Unpaired(k/trials).At(k%trials), loc.Condition(),
			core.Config{Transport: core.MPTCP, Primary: "lte"}, core.Download, 1<<20)
	})
	return AblationSchedulerResult{
		MinRTTMbps:     meanPositive(mbps[:trials]),
		RoundRobinMbps: meanPositive(mbps[trials:]),
	}
}

// String renders the comparison.
func (r AblationSchedulerResult) String() string {
	return fmt.Sprintf("Ablation: scheduler on disparate paths (1MB)\n"+
		"min-SRTT %.2f Mbit/s vs round-robin %.2f Mbit/s\n",
		r.MinRTTMbps, r.RoundRobinMbps)
}

// AblationTailResult shows how the Section 3.6 energy finding scales
// with the LTE tail duration (DESIGN.md ablation 3).
type AblationTailResult struct {
	TailSecs  []float64
	SavingPct []float64 // backup-mode saving for a 10 s flow
}

// AblationTailTime sweeps the LTE tail duration.
func AblationTailTime(o Options) AblationTailResult {
	res := AblationTailResult{}
	const flow = 10 * time.Second
	tails := []float64{0, 5, 15, 30}
	savings := engine.Sweep(o, len(tails), func(i int) float64 {
		model := energy.LTE
		model.TailDuration = time.Duration(tails[i] * float64(time.Second))
		return backupSaving(model, flow, flow+model.TailDuration+time.Second) * 100
	})
	for i, tail := range tails {
		res.TailSecs = append(res.TailSecs, tail)
		res.SavingPct = append(res.SavingPct, savings[i])
	}
	return res
}

// String renders the sweep.
func (r AblationTailResult) String() string {
	var rows [][]string
	for i := range r.TailSecs {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", r.TailSecs[i]),
			fmt.Sprintf("%.0f%%", r.SavingPct[i]),
		})
	}
	return "Ablation: LTE tail duration vs backup-mode saving (10 s flow)\n" +
		table([]string{"Tail (s)", "Energy saved"}, rows)
}

// AblationSelectorResult evaluates the adaptive Selector (the paper's
// future-work policy) against the static policies on a mixed workload
// (DESIGN.md ablation 4).
type AblationSelectorResult struct {
	// MeanFCT maps policy name to mean flow completion time in seconds
	// over the workload (short + long flows across locations).
	MeanFCT map[string]float64
}

// AblationSelector compares adaptive selection with always-WiFi,
// always-LTE and always-MPTCP.
func AblationSelector(o Options) AblationSelectorResult {
	sizes := []int{10 << 10, 100 << 10, 1 << 20, 4 << 20}
	n := o.LocationCount(len(phy.Locations))
	policies := map[string]func(est selector.Estimate, size int) core.Config{
		"adaptive-selector": func(est selector.Estimate, size int) core.Config {
			// The same Decide path the online service queries
			// (internal/selector → internal/serve): no forked logic.
			return core.ConfigFor(selector.Decide(est, size))
		},
		"always-wifi": func(selector.Estimate, int) core.Config {
			return core.Config{Transport: core.TCP, Iface: "wifi"}
		},
		"always-lte": func(selector.Estimate, int) core.Config {
			return core.Config{Transport: core.TCP, Iface: "lte"}
		},
		"always-mptcp": func(selector.Estimate, int) core.Config {
			return core.Config{Transport: core.MPTCP, Primary: "wifi"}
		},
	}
	// Iterate policies in sorted name order: every session inside the
	// loop is independently seeded, but running simulations out of a
	// map range would make execution order (and any future shared
	// state) depend on map hashing.
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	type locTotals struct {
		sums   map[string]float64
		counts map[string]int
	}
	perLoc := engine.Sweep(o, n, func(i int) locTotals {
		loc := phy.Locations[i]
		lt := locTotals{sums: map[string]float64{}, counts: map[string]int{}}
		probe := core.NewSession(o.Cell(775, loc.ID).Seed(), loc.Condition())
		est := probe.Probe()
		probe.Close()
		for _, name := range names {
			pick := policies[name]
			for si, size := range sizes {
				s := core.NewSession(o.Cell(776, loc.ID, si).Seed(), loc.Condition())
				r := s.Run(pick(est, size), core.Download, size)
				if r.Completed {
					lt.sums[name] += r.FCT.Seconds()
				} else {
					lt.sums[name] += s.Horizon.Seconds()
				}
				s.Close()
				lt.counts[name]++
			}
		}
		return lt
	})
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, lt := range perLoc {
		for name, sum := range lt.sums {
			sums[name] += sum
			counts[name] += lt.counts[name]
		}
	}
	res := AblationSelectorResult{MeanFCT: map[string]float64{}}
	for name, sum := range sums {
		res.MeanFCT[name] = sum / float64(counts[name])
	}
	return res
}

// String renders the policy comparison.
func (r AblationSelectorResult) String() string {
	var rows [][]string
	for _, name := range []string{"adaptive-selector", "always-wifi", "always-lte", "always-mptcp"} {
		rows = append(rows, []string{name, fmt.Sprintf("%.2fs", r.MeanFCT[name])})
	}
	return "Ablation: adaptive selector vs static policies (mean FCT, mixed flow sizes)\n" +
		table([]string{"Policy", "Mean FCT"}, rows)
}
