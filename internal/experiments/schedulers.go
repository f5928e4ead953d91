package experiments

import (
	"fmt"

	"multinet/internal/apps"
	"multinet/internal/core"
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
// scheduler on comparable and disparate WiFi/LTE pairs, then replays
// the long-flow app and normalises one oracle per scheduler against
// the N-path single-path oracle (oracle.ForSchedulers).
func init() {
	register("scenario-schedulers", "Scenario: schedulers", "scenario", 28,
		func(o Options) fmt.Stringer { return ScenarioSchedulers(o) })
}

// ScenarioSchedulersResult holds the disparity×size×scheduler grids
// plus the per-scheduler oracle normalisation.
type ScenarioSchedulersResult struct {
	Schedulers [4]string
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

// ScenarioSchedulers measures every scheduler in mptcp.Schedulers on a
// comparable and a disparate path pair across the scenario flow
// sizes, then runs the long-flow oracle analysis over the scheduler
// configuration family.
func ScenarioSchedulers(o Options) ScenarioSchedulersResult {
	scheds := mptcp.Schedulers()
	cfgs := []core.Config{
		{Transport: core.TCP, Iface: "wifi"},
		{Transport: core.TCP, Iface: "lte"},
	}
	for _, s := range scheds {
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
	// long-flow app at the four representative sites and normalise one
	// oracle per scheduler against the single-path (N-path) oracle.
	conds := representativeConditions(phy.Location.Condition)
	schemes, baseline := oracle.ForSchedulers([]string{"WiFi", "LTE"}, scheds[:])
	norm, n := replayOracles(o, o.Cell(2602), conds, replay.Record(apps.DropboxClick),
		replay.SchedulerConfigs(replay.WiFiLTEPaths(), scheds[:]), schemes, baseline)
	return ScenarioSchedulersResult{
		Schedulers:  scheds,
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
