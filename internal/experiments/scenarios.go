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

// The scenario experiments go beyond the paper's WiFi+LTE testbed:
// they instantiate the N-path PathSet abstraction for the multi-homed
// setups that related work measured on real hardware.
//
//   - scenario-dual-lte: MPTCP over two cellular carriers (Mohan et
//     al., "A Tale of Three Datasets", arXiv:1909.02601): similar-RTT
//     twin carriers aggregate, disparate ones fall into the paper's
//     Fig. 7a regime.
//   - scenario-dual-wlan: simultaneous connections to two APs of
//     contending quality (Cañizares & Bellalta, arXiv:1712.07738).
//   - scenario-wifi-2lte: a three-path stress case — WiFi plus two
//     carriers — including the Section 5 oracle analysis generalized
//     to N alternatives.
func init() {
	register("scenario-dual-lte", "Scenario: dual-LTE", "scenario", 25,
		func(o Options) fmt.Stringer { return ScenarioDualLTE(o) })
	register("scenario-dual-wlan", "Scenario: dual-WLAN", "scenario", 26,
		func(o Options) fmt.Stringer { return ScenarioDualWLAN(o) })
	register("scenario-wifi-2lte", "Scenario: WiFi+2xLTE", "scenario", 27,
		func(o Options) fmt.Stringer { return ScenarioWiFi2LTE(o) })
}

// scenarioSizesKB are the flow sizes every scenario sweeps (the
// paper's short/long span plus a bulk point).
var scenarioSizesKB = []int{100, 1024, 4096}

// ScenarioVariantResult is one condition's measurements: the probe
// estimate of every path, the adaptive selector's per-size decisions,
// and the size×config throughput grid.
type ScenarioVariantResult struct {
	Name string
	// Ranked is the probe estimate, best path first.
	Ranked []core.PathEstimate
	// Disparity is the probe's best-to-second-best throughput ratio.
	Disparity float64
	// Decisions maps flow size (KB) index to the selector's choice.
	Decisions []string
	KB        []int
	Configs   []string
	// Mbps[size][config] is the mean measured throughput.
	Mbps [][]float64
	// BestTCPMbps / BestMPTCPMbps compare the largest-size columns.
	BestTCPMbps, BestMPTCPMbps float64
}

// scenarioVariant pairs a condition with the configurations measured
// under it.
type scenarioVariant struct {
	name string
	cond phy.Condition
	cfgs []core.Config
}

// runScenarioVariants probes each variant and fills its throughput
// grid. Variants run sequentially and the size×config grid fans out
// over the sweep pool (the Figure 7 pattern), so -par parallelism
// applies to the independent measurement cells while output stays
// bit-identical at any worker count.
func runScenarioVariants(o Options, tag int, variants []scenarioVariant) []ScenarioVariantResult {
	trials := o.TrialCount(3)
	out := make([]ScenarioVariantResult, 0, len(variants))
	for vi, v := range variants {
		res := ScenarioVariantResult{Name: v.name, KB: scenarioSizesKB}
		probe := core.NewSession(seedFor(o.BaseSeed(), tag, vi), v.cond)
		est := probe.Probe()
		probe.Close()
		res.Ranked = est.Ranked()
		res.Disparity = est.PairDisparity()
		for _, cfg := range v.cfgs {
			res.Configs = append(res.Configs, cfg.Name())
		}
		grid := engine.Grid(o, len(scenarioSizesKB), len(v.cfgs), func(si, ci int) float64 {
			return measureMbps(o.Serial(), seedFor(o.BaseSeed(), tag, vi, si, ci), v.cond,
				v.cfgs[ci], core.Download, scenarioSizesKB[si]<<10, trials)
		})
		for si, kb := range scenarioSizesKB {
			res.Decisions = append(res.Decisions, core.ConfigFor(core.Selector{}.Decide(est, kb<<10)).Name())
			res.Mbps = append(res.Mbps, grid[si*len(v.cfgs):(si+1)*len(v.cfgs)])
		}
		last := res.Mbps[len(res.Mbps)-1]
		for ci, cfg := range v.cfgs {
			if cfg.Transport == core.TCP {
				if last[ci] > res.BestTCPMbps {
					res.BestTCPMbps = last[ci]
				}
			} else if last[ci] > res.BestMPTCPMbps {
				res.BestMPTCPMbps = last[ci]
			}
		}
		out = append(out, res)
	}
	return out
}

// renderScenarioVariants is the shared table renderer.
func renderScenarioVariants(variants []ScenarioVariantResult) string {
	out := ""
	for _, v := range variants {
		out += fmt.Sprintf("condition %q: probe ranking", v.Name)
		for _, p := range v.Ranked {
			out += fmt.Sprintf("  %s %.2f Mbit/s/%v", p.Name, p.Mbps, p.RTT.Round(time.Millisecond))
		}
		out += fmt.Sprintf("  (pair disparity %.1fx)\n", v.Disparity)
		header := []string{"KB", "selector"}
		header = append(header, v.Configs...)
		var rows [][]string
		for si, kb := range v.KB {
			row := []string{fmt.Sprintf("%d", kb), v.Decisions[si]}
			for _, m := range v.Mbps[si] {
				row = append(row, fmt.Sprintf("%.2f", m))
			}
			rows = append(rows, row)
		}
		out += table(header, rows)
		if v.BestTCPMbps > 0 {
			out += fmt.Sprintf("bulk-flow MPTCP vs best single path: %+.0f%%\n",
				(v.BestMPTCPMbps/v.BestTCPMbps-1)*100)
		} else {
			out += "bulk-flow MPTCP vs best single path: n/a (no TCP baseline completed)\n"
		}
	}
	return out
}

// ScenarioDualLTEResult holds the twin-carrier comparison.
type ScenarioDualLTEResult struct{ Variants []ScenarioVariantResult }

// ScenarioDualLTE measures MPTCP over two LTE carriers. Mohan et al.
// (arXiv:1909.02601) find that MPTCP over cellular paths with similar
// RTT aggregates well, while disparate carriers reproduce the paper's
// Fig. 7a regime where the better single path wins; the two variants
// instantiate exactly that contrast with the lte radio model.
func ScenarioDualLTE(o Options) ScenarioDualLTEResult {
	cfgs := []core.Config{
		{Transport: core.TCP, Iface: "lte-a"},
		{Transport: core.TCP, Iface: "lte-b"},
		{Transport: core.MPTCP, Primary: "lte-a", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "lte-b", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "lte-a", CC: mptcp.Coupled},
	}
	similar := phy.NewCondition("dual-lte-similar",
		phy.Path{Name: "lte-a", Profile: phy.Radio("lte",
			phy.RadioCalib{DownMbps: 10, UpMbps: 4.5, RTTms: 60, LossPct: 0.2, Variability: 0.25})},
		phy.Path{Name: "lte-b", Profile: phy.Radio("lte",
			phy.RadioCalib{DownMbps: 8, UpMbps: 3.5, RTTms: 70, LossPct: 0.2, Variability: 0.25})},
	)
	disparate := phy.NewCondition("dual-lte-disparate",
		phy.Path{Name: "lte-a", Profile: phy.Radio("lte",
			phy.RadioCalib{DownMbps: 10, UpMbps: 4.5, RTTms: 60, LossPct: 0.2, Variability: 0.25})},
		phy.Path{Name: "lte-b", Profile: phy.Radio("lte",
			phy.RadioCalib{DownMbps: 1.8, UpMbps: 0.8, RTTms: 140, LossPct: 0.6, Variability: 0.4})},
	)
	return ScenarioDualLTEResult{Variants: runScenarioVariants(o, 2501, []scenarioVariant{
		{name: "similar carriers", cond: similar, cfgs: cfgs},
		{name: "disparate carriers", cond: disparate, cfgs: cfgs},
	})}
}

// String renders both carrier pairings.
func (r ScenarioDualLTEResult) String() string {
	return "Scenario dual-LTE: twin cellular carriers (Mohan et al., arXiv:1909.02601)\n" +
		renderScenarioVariants(r.Variants)
}

// ScenarioDualWLANResult holds the two-AP comparison.
type ScenarioDualWLANResult struct{ Variants []ScenarioVariantResult }

// ScenarioDualWLAN measures simultaneous connections to two WiFi APs
// of contending quality (Cañizares & Bellalta, arXiv:1712.07738): a
// strong near AP next to a crowded far one, and an overlap zone where
// both APs are usable and aggregation pays.
func ScenarioDualWLAN(o Options) ScenarioDualWLANResult {
	cfgs := []core.Config{
		{Transport: core.TCP, Iface: "ap-near"},
		{Transport: core.TCP, Iface: "ap-far"},
		{Transport: core.MPTCP, Primary: "ap-near", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "ap-near", CC: mptcp.Coupled},
	}
	nearFar := phy.NewCondition("dual-wlan-near-far",
		phy.Path{Name: "ap-near", Profile: phy.Radio("wifi",
			phy.RadioCalib{DownMbps: 15, UpMbps: 5, RTTms: 25, LossPct: 0.4, Variability: 0.15})},
		phy.Path{Name: "ap-far", Profile: phy.Radio("wifi",
			phy.RadioCalib{DownMbps: 2, UpMbps: 0.8, RTTms: 60, LossPct: 2.0, Variability: 0.5})},
	)
	overlap := phy.NewCondition("dual-wlan-overlap",
		phy.Path{Name: "ap-near", Profile: phy.Radio("wifi",
			phy.RadioCalib{DownMbps: 9, UpMbps: 3.5, RTTms: 35, LossPct: 0.7, Variability: 0.3})},
		phy.Path{Name: "ap-far", Profile: phy.Radio("wifi",
			phy.RadioCalib{DownMbps: 7, UpMbps: 2.8, RTTms: 45, LossPct: 0.9, Variability: 0.3})},
	)
	return ScenarioDualWLANResult{Variants: runScenarioVariants(o, 2502, []scenarioVariant{
		{name: "near + crowded far AP", cond: nearFar, cfgs: cfgs},
		{name: "overlap zone", cond: overlap, cfgs: cfgs},
	})}
}

// String renders both AP layouts.
func (r ScenarioDualWLANResult) String() string {
	return "Scenario dual-WLAN: two APs of contending quality (arXiv:1712.07738)\n" +
		renderScenarioVariants(r.Variants)
}

// wifi2LTEPaths is the three-path set of the stress scenario.
var wifi2LTEPaths = []replay.PathName{
	{Iface: "wifi", Label: "WiFi"},
	{Iface: "lte-a", Label: "LTE-A"},
	{Iface: "lte-b", Label: "LTE-B"},
}

// wifi2LTECondition builds the three-path condition for one of the
// paper's locations: the location's own WiFi and LTE calibrations
// plus a weaker second carrier derived from the first.
func wifi2LTECondition(loc phy.Location) phy.Condition {
	second := phy.Radio("lte", phy.RadioCalib{
		DownMbps:    loc.LTE.DownMbps * 0.6,
		UpMbps:      loc.LTE.UpMbps * 0.6,
		RTTms:       loc.LTE.RTTms + 20,
		LossPct:     loc.LTE.LossPct + 0.1,
		Variability: loc.LTE.Variability,
	})
	return phy.NewCondition(fmt.Sprintf("loc%02d+2lte", loc.ID),
		phy.Path{Name: "wifi", Profile: loc.WiFi},
		phy.Path{Name: "lte-a", Profile: loc.LTE},
		phy.Path{Name: "lte-b", Profile: second},
	)
}

// ScenarioWiFi2LTEResult holds the three-path stress results: bulk
// transfers at a comparable-path site plus the Section 5 oracle
// analysis generalized to three alternatives.
type ScenarioWiFi2LTEResult struct {
	Transfers ScenarioVariantResult
	// SchemeNames preserves the oracle legend order; Normalized maps
	// scheme name to mean response time normalised by WiFi-TCP.
	SchemeNames []string
	Normalized  map[string]float64
	Conditions  int
}

// ScenarioWiFi2LTE runs the three-path stress case: a WiFi AP plus
// two cellular carriers. Three subflows should out-aggregate any
// two-path configuration on comparable paths, and the generalized
// oracle normalization ranks 3 single-path and 6 MPTCP alternatives
// over the long-flow app.
func ScenarioWiFi2LTE(o Options) ScenarioWiFi2LTEResult {
	cfgs := []core.Config{
		{Transport: core.TCP, Iface: "wifi"},
		{Transport: core.TCP, Iface: "lte-a"},
		{Transport: core.TCP, Iface: "lte-b"},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "lte-a", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled},
	}
	transfers := runScenarioVariants(o, 2503, []scenarioVariant{
		{name: "three comparable paths", cond: wifi2LTECondition(phy.LocWiFiBetter), cfgs: cfgs},
	})

	// Oracle over N=3 alternatives: replay the long-flow app at the
	// four representative sites, each widened to three paths.
	rec := replay.Record(apps.DropboxClick)
	tcs := replay.Configs(wifi2LTEPaths)
	locIDs := []int{10, 15, 16, 17}
	perCond := engine.Sweep(o, len(locIDs), func(ci int) map[string]time.Duration {
		cond := wifi2LTECondition(phy.LocationByID(locIDs[ci]))
		per := map[string]time.Duration{}
		for _, tc := range tcs {
			r := replay.Run(seedFor(o.BaseSeed(), 2504, ci), cond, rec, tc)
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
	schemes, baseline := oracle.ForPaths([]string{"WiFi", "LTE-A", "LTE-B"})
	norm, n := oracle.NormalizedBy(conds, schemes, baseline)
	res := ScenarioWiFi2LTEResult{
		Transfers:  transfers[0],
		Normalized: norm,
		Conditions: n,
	}
	for _, s := range schemes {
		res.SchemeNames = append(res.SchemeNames, s.Name)
	}
	return res
}

// String renders the transfer grid and the N-alternative oracle bars.
func (r ScenarioWiFi2LTEResult) String() string {
	out := "Scenario WiFi+2xLTE: three-path stress case\n" +
		renderScenarioVariants([]ScenarioVariantResult{r.Transfers})
	out += fmt.Sprintf("oracle normalization over 3 alternatives (%d conditions, long-flow app):\n",
		r.Conditions)
	var rows [][]string
	for _, name := range r.SchemeNames {
		v, ok := r.Normalized[name]
		if !ok {
			continue
		}
		rows = append(rows, []string{name, fmt.Sprintf("%.2f", v), fmt.Sprintf("-%.0f%%", (1-v)*100)})
	}
	return out + table([]string{"Scheme", "Normalised", "Reduction"}, rows)
}
