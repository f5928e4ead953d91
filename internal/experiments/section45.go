package experiments

import (
	"fmt"
	"time"

	"multinet/internal/apps"
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
var fig17Cond = phy.Condition{
	Name: "record",
	WiFi: phy.PathProfile{DownMbps: 20, UpMbps: 8, RTTms: 30},
	LTE:  phy.PathProfile{DownMbps: 15, UpMbps: 6, RTTms: 60},
}

// Figure17 records each app pattern and replays it once to obtain the
// per-connection timing raster.
func Figure17(o Options) Figure17Result {
	rows := engine.Sweep(o, len(apps.All), func(i int) Figure17Row {
		app := apps.All[i]
		rec := replay.Record(app)
		res := replay.Run(seedFor(o.BaseSeed(), 17, i), fig17Cond, rec,
			replay.TransportConfig{Name: "WiFi-TCP", Kind: replay.SinglePath, Iface: "wifi"})
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

// representativeConditions picks the paper's four display conditions:
// 1-2 where WiFi wins, 3-4 where LTE wins.
func representativeConditions() []phy.Condition {
	return []phy.Condition{
		phy.LocationByID(10).Condition(), // NC1: WiFi much better
		phy.LocationByID(15).Condition(), // NC2: WiFi better
		phy.LocationByID(16).Condition(), // NC3: LTE much better
		phy.LocationByID(17).Condition(), // NC4: LTE better
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
// conditions with the six standard configurations.
func responseTimes(o Options, app apps.App, tag int) ResponseTimeResult {
	rec := replay.Record(app)
	res := ResponseTimeResult{App: app.Name + " " + app.Interaction}
	tcs := replay.Configs(replay.WiFiLTEPaths())
	for _, tc := range tcs {
		res.Configs = append(res.Configs, tc.Name)
	}
	conds := representativeConditions()
	secs := engine.Grid(o, len(conds), len(tcs), func(ci, ti int) float64 {
		r := replay.Run(seedFor(o.BaseSeed(), tag, ci), conds[ci], rec, tcs[ti])
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
func Figure18(o Options) ResponseTimeResult { return responseTimes(o, apps.CNNLaunch, 18) }

// Figure20 replays the long-flow-dominated app (Dropbox click).
func Figure20(o Options) ResponseTimeResult { return responseTimes(o, apps.DropboxClick, 20) }

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
	rec := replay.Record(app)
	all := replayConditions(o)
	// One cell per condition; a cell replays every standard config and
	// returns nil if any replay fails to complete (the historical
	// early-break), so only fully-measured conditions contribute.
	perCond := engine.Sweep(o, len(all), func(ci int) map[string]time.Duration {
		per := map[string]time.Duration{}
		for _, tc := range replay.Configs(replay.WiFiLTEPaths()) {
			r := replay.Run(seedFor(o.BaseSeed(), tag, ci), all[ci], rec, tc)
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
	norm := oracle.Normalized(conds)
	out := OracleResult{App: app.Name + " " + app.Interaction,
		Normalized: map[string]float64{}, Conditions: len(conds)}
	// Per-key projection keyed by the scheme's (injective) render.
	for s, v := range norm { //lint:allow determinism per-key map projection; PathScheme.String is injective over schemes
		out.Normalized[s.String()] = v
	}
	return out
}

// Figure19 evaluates oracles for the short-flow app.
func Figure19(o Options) OracleResult { return oracles(o, apps.CNNLaunch, 19) }

// Figure21 evaluates oracles for the long-flow app.
func Figure21(o Options) OracleResult { return oracles(o, apps.DropboxClick, 21) }

// String renders the normalised bars in the paper's legend order.
func (r OracleResult) String() string {
	var rows [][]string
	for _, s := range oracle.Schemes {
		v, ok := r.Normalized[s.String()]
		if !ok {
			continue
		}
		rows = append(rows, []string{s.String(), fmt.Sprintf("%.2f", v),
			fmt.Sprintf("-%.0f%%", (1-v)*100)})
	}
	return fmt.Sprintf("Figures 19/21: %s normalised response time (%d conditions)\n",
		r.App, r.Conditions) +
		table([]string{"Scheme", "Normalised", "Reduction"}, rows)
}
