package experiments

import (
	"fmt"
	"time"

	"multinet/internal/apps"
	"multinet/internal/core"
	"multinet/internal/experiments/engine"
	"multinet/internal/oracle"
	"multinet/internal/phy"
	"multinet/internal/replay"
)

func init() {
	register("figure17", "Figure 17", "4.1", 16, func(o Options) fmt.Stringer { return Figure17(o) })
	register("figure18", "Figure 18", "5.1", 17, func(o Options) fmt.Stringer { return Figure18(o) })
	register("figure19", "Figure 19", "5.2", 18, func(o Options) fmt.Stringer { return Figure19(o) })
	register("figure20", "Figure 20", "5.1", 19, func(o Options) fmt.Stringer { return Figure20(o) })
	register("figure21", "Figure 21", "5.2", 20, func(o Options) fmt.Stringer { return Figure21(o) })
}

// Figure17Row summarises one app pattern's recorded traffic.
type Figure17Row struct {
	App, Interaction string
	Flows            int
	TotalKB          int
	LargestFlowKB    int
	Label            string
	// Raster maps flow ID to (start, end, avg kbit/s) for the panel.
	Raster []replay.FlowStat
}

// Figure17Result covers all six panels.
type Figure17Result struct{ Rows []Figure17Row }

// fig17Cond is a fast, neutral condition so the recorded pattern's own
// structure (not the network) dominates the raster.
var fig17Cond = phy.NewCondition("record",
	phy.Path{Name: "wifi", Profile: phy.PathProfile{DownMbps: 20, UpMbps: 8, RTTms: 30}},
	phy.Path{Name: "lte", Profile: phy.PathProfile{DownMbps: 15, UpMbps: 6, RTTms: 60}},
)

// Figure17 records each app pattern and replays it once to obtain the
// per-connection timing raster.
func Figure17(o Options) Figure17Result {
	rows := engine.Sweep(o, len(apps.All), func(i int) Figure17Row {
		app := apps.All[i]
		rec := replay.Record(app)
		res := replay.Run(o.Cell(17, i).Seed(), fig17Cond, rec,
			replay.TransportConfig{Name: "WiFi-TCP", Config: core.Config{Transport: core.TCP, Iface: "wifi"}})
		row := Figure17Row{
			App:         app.Name,
			Interaction: app.Interaction,
			Flows:       len(app.Flows),
			TotalKB:     app.TotalBytes() >> 10,
			Label:       app.Label(),
			Raster:      res.Flows,
		}
		for _, f := range app.Flows {
			if kb := (f.RequestBytes + f.ResponseBytes) >> 10; kb > row.LargestFlowKB {
				row.LargestFlowKB = kb
			}
		}
		return row
	})
	return Figure17Result{Rows: rows}
}

// String renders the six panels' summaries and rasters.
func (r Figure17Result) String() string {
	out := "Figure 17: app traffic patterns\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("%s %s: %d flows, %d KB total, largest flow %d KB -> %s\n",
			row.App, row.Interaction, row.Flows, row.TotalKB, row.LargestFlowKB, row.Label)
		for _, f := range row.Raster {
			out += fmt.Sprintf("  flow %2d: %8s -> %8s  %7.0f kbit/s\n",
				f.ID, fmtDur(f.Start), fmtDur(f.End), f.RateKbps())
		}
	}
	return out
}

// replayConditions returns the emulated network conditions: the 20
// locations of Section 3.2, as the paper replays over.
func replayConditions(o Options) []phy.Condition {
	n := o.LocationCount(len(phy.Locations))
	conds := make([]phy.Condition, 0, n)
	for i := 0; i < n; i++ {
		conds = append(conds, phy.Locations[i].Condition())
	}
	return conds
}

// representativeConditions builds a condition at each of the paper's
// four display sites — 1-2 where WiFi wins, 3-4 where LTE wins — with
// build: phy.Location.Condition for the paper's pair, or a widening.
func representativeConditions(build func(phy.Location) phy.Condition) []phy.Condition {
	return []phy.Condition{
		build(phy.LocationByID(10)), // NC1: WiFi much better
		build(phy.LocationByID(15)), // NC2: WiFi better
		build(phy.LocationByID(16)), // NC3: LTE much better
		build(phy.LocationByID(17)), // NC4: LTE better
	}
}

// ResponseTimeResult holds a Fig. 18/20 bar chart: app response time
// per configuration per condition.
type ResponseTimeResult struct {
	App        string
	Conditions []string
	Configs    []string
	// Secs[condition][config] in seconds.
	Secs [][]float64
}

// responseTimes replays the app over the four representative
// conditions with the six standard configurations, condition ci in cell
// c.At(ci).
func responseTimes(o Options, c engine.Cell, app apps.App) ResponseTimeResult {
	rec := replay.Record(app)
	res := ResponseTimeResult{App: app.Name + " " + app.Interaction}
	tcs := replay.Configs(replay.WiFiLTEPaths())
	for _, tc := range tcs {
		res.Configs = append(res.Configs, tc.Name)
	}
	conds := representativeConditions(phy.Location.Condition)
	secs := engine.Sweep(o, len(conds)*len(tcs), func(k int) float64 {
		ci := k / len(tcs)
		r := replay.Run(c.At(ci).Seed(), conds[ci], rec, tcs[k%len(tcs)])
		if r.Completed {
			return r.ResponseTime.Seconds()
		}
		return -1
	})
	for ci, cond := range conds {
		res.Conditions = append(res.Conditions, fmt.Sprintf("NC%d(%s)", ci+1, cond.Name))
		res.Secs = append(res.Secs, secs[ci*len(tcs):(ci+1)*len(tcs)])
	}
	return res
}

// Figure18 replays the short-flow-dominated app (CNN launch).
func Figure18(o Options) ResponseTimeResult { return responseTimes(o, o.Cell(18), apps.CNNLaunch) }

// Figure20 replays the long-flow-dominated app (Dropbox click).
func Figure20(o Options) ResponseTimeResult { return responseTimes(o, o.Cell(20), apps.DropboxClick) }

// String renders the bar-chart data.
func (r ResponseTimeResult) String() string {
	header := append([]string{"Condition \\ Config"}, r.Configs...)
	var rows [][]string
	for i, cond := range r.Conditions {
		row := []string{cond}
		for _, s := range r.Secs[i] {
			row = append(row, fmt.Sprintf("%.1fs", s))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Figures 18/20: %s app response time\n", r.App) + table(header, rows)
}

// OracleResult holds a Fig. 19/21 bar chart: normalised app response
// time per oracle scheme.
type OracleResult struct {
	App string
	// Normalized maps scheme name to mean response time normalised by
	// WiFi-TCP across all conditions.
	Normalized map[string]float64
	// Conditions is how many conditions contributed.
	Conditions int
}

// oracles replays the app over all conditions and evaluates the
// paper's five oracle schemes.
func oracles(o Options, app apps.App, tag int) OracleResult {
	norm, n := replayOracles(o, o.Cell(tag), replayConditions(o), replay.Record(app),
		replay.Configs(replay.WiFiLTEPaths()), paperOracles, paperBaseline)
	return OracleResult{App: app.Name + " " + app.Interaction, Normalized: norm, Conditions: n}
}

// replayOracles replays rec under every configuration in each condition,
// condition ci in cell c.At(ci), and normalises the schemes' oracles by
// the baseline configuration (oracle.NormalizedBy). A condition where
// any replay fails to complete contributes nothing, so every scheme
// averages over the same fully measured set; the second return is its
// size.
func replayOracles(o Options, c engine.Cell, conds []phy.Condition, rec *replay.Recording,
	tcs []replay.TransportConfig, schemes []oracle.PathScheme, baseline string) (map[string]float64, int) {
	perCond := engine.Sweep(o, len(conds), func(ci int) map[string]time.Duration {
		per := map[string]time.Duration{}
		for _, tc := range tcs {
			r := replay.Run(c.At(ci).Seed(), conds[ci], rec, tc)
			if !r.Completed {
				return nil
			}
			per[tc.Name] = r.ResponseTime
		}
		return per
	})
	var complete []map[string]time.Duration
	for _, per := range perCond {
		if per != nil {
			complete = append(complete, per)
		}
	}
	return oracle.NormalizedBy(complete, schemes, baseline)
}

// The paper's five oracles over the {WiFi, LTE} pair and its WiFi-TCP
// baseline (Figs. 19 and 21), in legend order, built once.
var (
	paperOracles, paperBaseline = oracle.ForPaths([]string{"WiFi", "LTE"})
	paperOracleNames            = schemeNames(paperOracles)
)

// schemeNames lists the oracles' names in legend order.
func schemeNames(schemes []oracle.PathScheme) []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return names
}

// Figure19 evaluates oracles for the short-flow app.
func Figure19(o Options) OracleResult { return oracles(o, apps.CNNLaunch, 19) }

// Figure21 evaluates oracles for the long-flow app.
func Figure21(o Options) OracleResult { return oracles(o, apps.DropboxClick, 21) }

// String renders the normalised bars in the paper's legend order.
func (r OracleResult) String() string {
	return fmt.Sprintf("Figures 19/21: %s normalised response time (%d conditions)\n",
		r.App, r.Conditions) + oracleTable(paperOracleNames, r.Normalized)
}

// oracleTable renders normalised oracle bars in legend order, skipping
// schemes no condition measured.
func oracleTable(names []string, norm map[string]float64) string {
	var rows [][]string
	for _, name := range names {
		v, ok := norm[name]
		if !ok {
			continue
		}
		rows = append(rows, []string{name, fmt.Sprintf("%.2f", v), fmt.Sprintf("-%.0f%%", (1-v)*100)})
	}
	return table([]string{"Scheme", "Normalised", "Reduction"}, rows)
}
