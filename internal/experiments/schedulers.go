package experiments

import (
	"fmt"
	"time"

	"multinet/internal/apps"
	"multinet/internal/core"
	"multinet/internal/experiments/engine"
	"multinet/internal/mptcp"
	"multinet/internal/oracle"
	"multinet/internal/phy"
	"multinet/internal/replay"
)

// scenario-schedulers sweeps path disparity × flow size × scheduler:
// the paper shows MPTCP's benefit hinges on which subflow carries
// which bytes (Figs. 15-21), and the pluggable mptcp.Scheduler layer
// makes the mitigations from related work expressible — redundant
// striping for latency-critical short flows and BLEST/ECF-style
// HoL-aware skipping of the slow path. The experiment measures every
// registered scheduler on comparable and disparate WiFi/LTE pairs,
// then replays the long-flow app and normalises one oracle per
// scheduler against the N-path single-path oracle (oracle.ForSchedulers).
func init() {
	register("scenario-schedulers", "Scenario: schedulers", "scenario", 28,
		func(o Options) fmt.Stringer { return ScenarioSchedulers(o) })
}

// schedulerOrder fixes the presentation order: the Linux default
// first, then the ablation, then the two mitigation schedulers.
var schedulerOrder = []string{
	mptcp.SchedMinSRTT, mptcp.SchedRoundRobin, mptcp.SchedRedundant, mptcp.SchedHoLAware,
}

// ScenarioSchedulersResult holds the disparity×size×scheduler grids
// plus the per-scheduler oracle normalisation.
type ScenarioSchedulersResult struct {
	Schedulers []string
	Variants   []ScenarioVariantResult
	// SchemeNames preserves the oracle legend order; Normalized maps
	// scheme name to mean long-flow response time normalised by
	// WiFi-TCP.
	SchemeNames []string
	Normalized  map[string]float64
	Conditions  int
}

// schedulerCondition builds a WiFi+LTE pair with the given LTE
// calibration against a fixed mid-grade WiFi AP, so the disparity
// between variants comes from the cellular side (the paper's Fig. 7
// contrast).
func schedulerCondition(name string, lte phy.RadioCalib) phy.Condition {
	return phy.NewCondition(name,
		phy.Path{Name: "wifi", Profile: phy.WiFiRadio(
			phy.RadioCalib{DownMbps: 9, UpMbps: 3.5, RTTms: 30, LossPct: 0.5, Variability: 0.25})},
		phy.Path{Name: "lte", Profile: phy.LTERadio(lte)},
	)
}

// ScenarioSchedulers measures every scheduler in schedulerOrder on a
// comparable and a disparate path pair across the scenario flow
// sizes, then runs the long-flow oracle analysis over the scheduler
// configuration family.
func ScenarioSchedulers(o Options) ScenarioSchedulersResult {
	cfgs := []core.Config{
		{Transport: core.TCP, Iface: "wifi"},
		{Transport: core.TCP, Iface: "lte"},
	}
	for _, s := range schedulerOrder {
		cfgs = append(cfgs, core.Config{
			Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled, Scheduler: s,
		})
	}
	comparable := schedulerCondition("sched-comparable",
		phy.RadioCalib{DownMbps: 8, UpMbps: 3, RTTms: 55, LossPct: 0.3, Variability: 0.25})
	disparate := schedulerCondition("sched-disparate",
		phy.RadioCalib{DownMbps: 1.5, UpMbps: 0.6, RTTms: 180, LossPct: 1.0, Variability: 0.4})
	variants := runScenarioVariants(o, 2601, []scenarioVariant{
		{name: "comparable paths", cond: comparable, cfgs: cfgs},
		{name: "disparate paths", cond: disparate, cfgs: cfgs},
	})

	// Long-flow oracle over the scheduler family: replay the paper's
	// long-flow app at four representative sites and normalise one
	// oracle per scheduler against the single-path (N-path) oracle.
	rec := replay.Record(apps.DropboxClick)
	tcs := replay.Configs(replay.WiFiLTEPaths(), replay.WithSchedulers(schedulerOrder...))
	locIDs := []int{10, 15, 16, 17}
	perCond := engine.Sweep(o, len(locIDs), func(ci int) map[string]time.Duration {
		cond := phy.LocationByID(locIDs[ci]).Condition()
		per := map[string]time.Duration{}
		for _, tc := range tcs {
			r := replay.Run(seedFor(o.BaseSeed(), 2602, ci), cond, rec, tc)
			if !r.Completed {
				return nil
			}
			per[tc.Name] = r.ResponseTime
		}
		return per
	})
	var conds []map[string]time.Duration
	for _, per := range perCond {
		if per != nil {
			conds = append(conds, per)
		}
	}
	schemes, baseline := oracle.ForSchedulers([]string{"WiFi", "LTE"}, schedulerOrder)
	norm, n := oracle.NormalizedBy(conds, schemes, baseline)
	return ScenarioSchedulersResult{
		Schedulers:  schedulerOrder,
		Variants:    variants,
		SchemeNames: schemeNames(schemes),
		Normalized:  norm,
		Conditions:  n,
	}
}

// String renders the scheduler grids and the per-scheduler oracle
// bars.
func (r ScenarioSchedulersResult) String() string {
	out := "Scenario schedulers: disparity × flow size × scheduler (pluggable mptcp.Scheduler)\n" +
		renderScenarioVariants(r.Variants)
	out += fmt.Sprintf("per-scheduler oracle vs the N-path single-path oracle (%d conditions, long-flow app):\n",
		r.Conditions)
	return out + oracleTable(r.SchemeNames, r.Normalized)
}
