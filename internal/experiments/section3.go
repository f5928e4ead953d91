package experiments

import (
	"fmt"
	"strings"
	"time"

	"multinet/internal/core"
	"multinet/internal/experiments/engine"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/stats"
	"multinet/internal/tcp"
)

func init() {
	register("table2", "Table 2", "3.2", 4, func(o Options) fmt.Stringer { return Table2(o) })
	register("figure6", "Figure 6", "3.2", 5, func(o Options) fmt.Stringer { return Figure6(o) })
	register("figure7", "Figure 7", "3.3", 6, func(o Options) fmt.Stringer { return Figure7(o) })
	register("figure8", "Figure 8", "3.4", 7, func(o Options) fmt.Stringer { return Figure8(o) })
	register("figure9", "Figure 9", "3.4", 8, func(o Options) fmt.Stringer { return Figure9(o) })
	register("figure10", "Figure 10", "3.4", 9, func(o Options) fmt.Stringer { return Figure10(o) })
	register("figure11", "Figure 11", "3.4", 10, func(o Options) fmt.Stringer { return Figure11(o) })
	register("figure12", "Figure 12", "3.4", 11, func(o Options) fmt.Stringer { return Figure12(o) })
	register("coupling", "Figures 13/14", "3.5", 12, func(o Options) fmt.Stringer { return Coupling(o) })
}

// Table2Result is the 20-location table.
type Table2Result struct{ Locations []phy.Location }

// Table2 returns the measurement-site table (paper Table 2) together
// with the calibrated radio profiles used throughout Section 3.
func Table2(Options) Table2Result { return Table2Result{Locations: phy.Locations} }

// String renders the table with the calibration columns appended.
func (r Table2Result) String() string {
	rows := make([][]string, 0, len(r.Locations))
	for _, l := range r.Locations {
		rows = append(rows, []string{
			fmt.Sprintf("%d", l.ID), l.City, l.Desc,
			fmt.Sprintf("%.1f/%.1f", l.WiFi.DownMbps, l.WiFi.UpMbps),
			fmt.Sprintf("%.1f/%.1f", l.LTE.DownMbps, l.LTE.UpMbps),
			fmt.Sprintf("%.0f", l.WiFi.RTTms),
			fmt.Sprintf("%.0f", l.LTE.RTTms),
		})
	}
	return "Table 2: MPTCP measurement locations (with calibrated profiles)\n" +
		table([]string{"ID", "City", "Description", "WiFi D/U Mbps", "LTE D/U Mbps", "WiFi RTT", "LTE RTT"}, rows)
}

// standardConfigs returns the six Section 3 transfer configurations in
// the paper's legend order.
func standardConfigs() []core.Config {
	return []core.Config{
		{Transport: core.TCP, Iface: "lte"},
		{Transport: core.TCP, Iface: "wifi"},
		{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
		{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Coupled},
		{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled},
	}
}

// measureMbps fans trials fresh-session downloads out over o's sweep
// pool and returns the mean throughput. Callers already inside a
// parallel sweep pass o.Serial() so worker counts do not multiply.
func measureMbps(o Options, seed int64, cond phy.Condition, cfg core.Config, dir core.Direction, size, trials int) float64 {
	return engine.RunTrials(o, seed, trials, func(s int64) float64 {
		sess := core.NewSession(s, cond)
		defer sess.Close()
		return sess.RunMbps(cfg, dir, size)
	})
}

// relDiffGrid sweeps an n×trials grid where each cell measures a pair
// of throughputs, and collects |a-b|/b as a percentage for the cells
// where both measurements are positive, in row-major (historical
// nesting) order. Shared by the Fig. 8 sweep and the late-join
// ablation.
func relDiffGrid(o Options, n, trials int, measure func(i, t int) (a, b float64)) []float64 {
	type cell struct {
		rel float64
		ok  bool
	}
	cells := engine.Grid(o, n, trials, func(i, t int) cell {
		a, b := measure(i, t)
		if a <= 0 || b <= 0 {
			return cell{}
		}
		d := (a - b) / b
		if d < 0 {
			d = -d
		}
		return cell{rel: d * 100, ok: true}
	})
	var rel []float64
	for _, c := range cells {
		if c.ok {
			rel = append(rel, c.rel)
		}
	}
	return rel
}

// Figure6Result compares the 20-location single-path TCP measurements
// against the crowd-sourced campaign distribution.
type Figure6Result struct {
	AppUp, AppDown             CDFSeries
	TwentyUp, TwentyDown       CDFSeries
	MedianGapUp, MedianGapDown float64 // |median difference| in Mbit/s
}

// Figure6 measures 1 MB TCP transfers (both networks, both directions)
// at each location and compares the difference CDF with Figure 3's.
func Figure6(o Options) Figure6Result {
	camp := campaign(o)
	appUp, appDown := camp.DiffCDFs()

	trials := o.TrialCount(2)
	n := o.LocationCount(len(phy.Locations))
	type cell struct {
		up, down     float64
		okUp, okDown bool
	}
	cells := engine.Grid(o, n, trials, func(i, t int) cell {
		loc := phy.Locations[i]
		s := core.NewSession(seedFor(o.BaseSeed(), loc.ID, t), loc.Condition())
		defer s.Close()
		wifiDown := s.RunMbps(core.Config{Transport: core.TCP, Iface: "wifi"}, core.Download, 1<<20)
		wifiUp := s.RunMbps(core.Config{Transport: core.TCP, Iface: "wifi"}, core.Upload, 1<<20)
		lteDown := s.RunMbps(core.Config{Transport: core.TCP, Iface: "lte"}, core.Download, 1<<20)
		lteUp := s.RunMbps(core.Config{Transport: core.TCP, Iface: "lte"}, core.Upload, 1<<20)
		return cell{
			up: wifiUp - lteUp, okUp: wifiUp > 0 && lteUp > 0,
			down: wifiDown - lteDown, okDown: wifiDown > 0 && lteDown > 0,
		}
	})
	var up, down []float64
	for _, c := range cells {
		if c.okDown {
			down = append(down, c.down)
		}
		if c.okUp {
			up = append(up, c.up)
		}
	}
	upCDF, downCDF := stats.NewECDF(up), stats.NewECDF(down)
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return Figure6Result{
		AppUp:         sampleCDF(appUp, "App Data uplink", 30),
		AppDown:       sampleCDF(appDown, "App Data downlink", 30),
		TwentyUp:      sampleCDF(upCDF, "20-Location uplink", 30),
		TwentyDown:    sampleCDF(downCDF, "20-Location downlink", 30),
		MedianGapUp:   abs(upCDF.Median() - appUp.Median()),
		MedianGapDown: abs(downCDF.Median() - appDown.Median()),
	}
}

// String renders the comparison.
func (r Figure6Result) String() string {
	return fmt.Sprintf("Figure 6: 20-location TCP CDFs vs campaign CDFs\n"+
		"median gap: uplink %.2f Mbit/s, downlink %.2f Mbit/s (paper: curves are close)\n",
		r.MedianGapUp, r.MedianGapDown) +
		renderCDF(r.AppUp, "%8.2f") + renderCDF(r.TwentyUp, "%8.2f") +
		renderCDF(r.AppDown, "%8.2f") + renderCDF(r.TwentyDown, "%8.2f")
}

// Figure7Series is one config's throughput-vs-flow-size curve.
type Figure7Series struct {
	Config string
	// KB are the flow sizes; Mbps the mean measured throughputs.
	KB   []int
	Mbps []float64
}

// Figure7Result holds both representative locations' curves.
type Figure7Result struct {
	LocationA int // large disparity: MPTCP worse everywhere (Fig. 7a)
	LocationB int // comparable paths: MPTCP wins at large sizes (7b)
	SeriesA   []Figure7Series
	SeriesB   []Figure7Series
}

var figure7Sizes = []int{1, 10, 100, 1000} // KB, the paper's log x-axis

// Figure7 sweeps flow size for the six configurations at the two
// representative locations.
func Figure7(o Options) Figure7Result {
	run := func(loc phy.Location) []Figure7Series {
		cfgs := standardConfigs()
		mbps := engine.Grid(o, len(cfgs), len(figure7Sizes), func(ci, ki int) float64 {
			kb := figure7Sizes[ki]
			return measureMbps(o.Serial(), seedFor(o.BaseSeed(), loc.ID, ci, kb), loc.Condition(),
				cfgs[ci], core.Download, kb<<10, o.TrialCount(3))
		})
		out := make([]Figure7Series, 0, len(cfgs))
		for ci, cfg := range cfgs {
			s := Figure7Series{Config: cfg.Name()}
			for ki, kb := range figure7Sizes {
				s.KB = append(s.KB, kb)
				s.Mbps = append(s.Mbps, mbps[ci*len(figure7Sizes)+ki])
			}
			out = append(out, s)
		}
		return out
	}
	return Figure7Result{
		LocationA: phy.LocLTEMuchBetter.ID,
		LocationB: phy.LocWiFiBetter.ID,
		SeriesA:   run(phy.LocLTEMuchBetter),
		SeriesB:   run(phy.LocWiFiBetter),
	}
}

// String renders both panels.
func (r Figure7Result) String() string {
	panel := func(name string, loc int, series []Figure7Series) string {
		header := []string{"Config \\ KB"}
		for _, kb := range figure7Sizes {
			header = append(header, fmt.Sprintf("%d", kb))
		}
		var rows [][]string
		for _, s := range series {
			row := []string{s.Config}
			for _, m := range s.Mbps {
				row = append(row, fmt.Sprintf("%.2f", m))
			}
			rows = append(rows, row)
		}
		return fmt.Sprintf("Figure 7%s (location %d): throughput (Mbit/s) vs flow size\n", name, loc) +
			table(header, rows)
	}
	return panel("a", r.LocationA, r.SeriesA) + panel("b", r.LocationB, r.SeriesB)
}

// Figure8Result holds the primary-subflow sensitivity CDFs.
type Figure8Result struct {
	// MedianPct maps flow size label to the median relative difference
	// in percent (paper: 10KB 60%, 100KB 49%, 1MB 28%).
	MedianPct map[string]float64
	CDFs      []CDFSeries
}

var figure8Sizes = []struct {
	label string
	bytes int
}{
	{"10KB", 10 << 10},
	{"100KB", 100 << 10},
	{"1MB", 1 << 20},
}

// Figure8 measures |MPTCP_LTE - MPTCP_WiFi| / MPTCP_WiFi with
// decoupled congestion control across locations and flow sizes.
func Figure8(o Options) Figure8Result {
	res := Figure8Result{MedianPct: map[string]float64{}}
	n := o.LocationCount(len(phy.Locations))
	trials := o.TrialCount(2)
	for _, sz := range figure8Sizes {
		rel := relDiffGrid(o, n, trials, func(i, t int) (float64, float64) {
			loc := phy.Locations[i]
			seed := seedFor(o.BaseSeed(), loc.ID, sz.bytes, t)
			lte := measureMbps(o.Serial(), seed, loc.Condition(),
				core.Config{Transport: core.MPTCP, Primary: "lte"}, core.Download, sz.bytes, 1)
			wifi := measureMbps(o.Serial(), seed+1, loc.Condition(),
				core.Config{Transport: core.MPTCP, Primary: "wifi"}, core.Download, sz.bytes, 1)
			return lte, wifi
		})
		cdf := stats.NewECDF(rel)
		res.MedianPct[sz.label] = cdf.Median()
		res.CDFs = append(res.CDFs, sampleCDF(cdf, sz.label+" relative difference (%)", 25))
	}
	return res
}

// String renders medians plus CDFs.
func (r Figure8Result) String() string {
	s := fmt.Sprintf("Figure 8: CDF of relative difference MPTCP_LTE vs MPTCP_WiFi (decoupled)\n"+
		"medians: 10KB %.0f%% (paper 60%%), 100KB %.0f%% (paper 49%%), 1MB %.0f%% (paper 28%%)\n",
		r.MedianPct["10KB"], r.MedianPct["100KB"], r.MedianPct["1MB"])
	for _, c := range r.CDFs {
		s += renderCDF(c, "%8.1f")
	}
	return s
}

// EvolutionResult holds a Fig. 9/10 panel: average throughput over
// time for the MPTCP connection and each subflow.
type EvolutionResult struct {
	Location int
	Primary  string
	MPTCP    []stats.Point
	WiFi     []stats.Point
	LTE      []stats.Point
	// FinalMbps is the 2-second average MPTCP throughput.
	FinalMbps float64
}

// evolution runs one 2-second MPTCP download and extracts the
// cumulative-average throughput curves. The figures plot payload bytes
// delivered downlink per interface up to each 100 ms step and nothing
// else of the trace, so that is all the taps keep: one counter per
// interface and step.
func evolution(seed int64, loc phy.Location, primary string) EvolutionResult {
	s := core.NewSession(seed, loc.Condition())
	defer s.Close()
	const window = 2 * time.Second
	const step = 100 * time.Millisecond
	const steps = int(window / step)
	ifaces := s.Host.Ifaces()
	delivered := make([][steps]int64, len(ifaces)) // [iface][k]: bytes received in (k*step, (k+1)*step]
	for i, ifc := range ifaces {
		perStep := &delivered[i]
		ifc.AddRecvTap(func(p *netem.Packet) {
			seg, ok := p.Payload.(*tcp.Segment)
			if !ok || p.Dir != netem.Down {
				return
			}
			// Time zero belongs to the first step: -1/step is 0.
			if k := int((s.Sim.Now() - 1) / step); k < steps {
				perStep[k] += int64(seg.PayloadLen)
			}
		})
	}
	// Only the first 2 s are plotted, so only they are simulated and
	// captured; the transfer is large enough not to finish within them.
	s.Horizon = window
	s.Run(core.Config{Transport: core.MPTCP, Primary: primary}, core.Download, 8<<20)

	// curve is the figures' metric: at each step, the average throughput
	// in Mbit/s from the start to that instant, on the named interface or
	// ("") on all of them.
	curve := func(name string) []stats.Point {
		pts := make([]stats.Point, 0, steps)
		var bytes int64
		for k := 0; k < steps; k++ {
			for i, ifc := range ifaces {
				if name == "" || ifc.Name == name {
					bytes += delivered[i][k]
				}
			}
			elapsed := (time.Duration(k+1) * step).Seconds()
			pts = append(pts, stats.Point{X: elapsed, Y: float64(bytes) * 8 / elapsed / 1e6})
		}
		return pts
	}
	res := EvolutionResult{Location: loc.ID, Primary: primary}
	res.MPTCP, res.WiFi, res.LTE = curve(""), curve("wifi"), curve("lte")
	res.FinalMbps = res.MPTCP[steps-1].Y
	return res
}

// Figure9Result pairs the two panels of Fig. 9 (LTE-better location).
type Figure9Result struct{ WiFiPrimary, LTEPrimary EvolutionResult }

// Figure9 runs the throughput-evolution experiment at the LTE-better
// location with both primary choices.
func Figure9(o Options) Figure9Result {
	ev := evolutionPair(o, phy.LocLTEMuchBetter, 9)
	return Figure9Result{WiFiPrimary: ev[0], LTEPrimary: ev[1]}
}

// evolutionPair runs the WiFi-primary and LTE-primary evolutions of a
// Fig. 9/10 panel pair concurrently.
func evolutionPair(o Options, loc phy.Location, tag int) []EvolutionResult {
	primaries := []string{"wifi", "lte"}
	return engine.Sweep(o, len(primaries), func(i int) EvolutionResult {
		return evolution(seedFor(o.BaseSeed(), tag, i+1), loc, primaries[i])
	})
}

// Figure10Result pairs the two panels of Fig. 10 (WiFi-better site).
type Figure10Result struct{ WiFiPrimary, LTEPrimary EvolutionResult }

// Figure10 is Figure9 at the WiFi-better location.
func Figure10(o Options) Figure10Result {
	ev := evolutionPair(o, phy.LocWiFiBetter, 10)
	return Figure10Result{WiFiPrimary: ev[0], LTEPrimary: ev[1]}
}

func renderEvolution(title string, e EvolutionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (location %d, %s primary): avg tput to t, final %.2f Mbit/s\n",
		title, e.Location, e.Primary, e.FinalMbps)
	b.WriteString("  t(s)   MPTCP   WiFi    LTE\n")
	for i := range e.MPTCP {
		w, l := 0.0, 0.0
		if i < len(e.WiFi) {
			w = e.WiFi[i].Y
		}
		if i < len(e.LTE) {
			l = e.LTE[i].Y
		}
		fmt.Fprintf(&b, "  %4.1f  %6.2f  %6.2f  %6.2f\n", e.MPTCP[i].X, e.MPTCP[i].Y, w, l)
	}
	return b.String()
}

// String renders both panels.
func (r Figure9Result) String() string {
	return renderEvolution("Figure 9a", r.WiFiPrimary) + renderEvolution("Figure 9b", r.LTEPrimary)
}

// String renders both panels.
func (r Figure10Result) String() string {
	return renderEvolution("Figure 10a", r.WiFiPrimary) + renderEvolution("Figure 10b", r.LTEPrimary)
}

// FlowSizeSweepResult holds a Fig. 11/12 panel pair: absolute
// throughput and the LTE/WiFi-primary ratio versus flow size.
type FlowSizeSweepResult struct {
	Location int
	KB       []int
	LTEMbps  []float64
	WiFiMbps []float64
	Ratio    []float64
}

func flowSizeSweep(o Options, loc phy.Location, tag int) FlowSizeSweepResult {
	res := FlowSizeSweepResult{Location: loc.ID}
	trials := o.TrialCount(3)
	var kbs []int
	for kb := 100; kb <= 1000; kb += 150 {
		kbs = append(kbs, kb)
	}
	type pair struct{ lte, wifi float64 }
	pairs := engine.Sweep(o, len(kbs), func(i int) pair {
		kb := kbs[i]
		return pair{
			lte: measureMbps(o.Serial(), seedFor(o.BaseSeed(), tag, loc.ID, kb, 0), loc.Condition(),
				core.Config{Transport: core.MPTCP, Primary: "lte"}, core.Download, kb<<10, trials),
			wifi: measureMbps(o.Serial(), seedFor(o.BaseSeed(), tag, loc.ID, kb, 1), loc.Condition(),
				core.Config{Transport: core.MPTCP, Primary: "wifi"}, core.Download, kb<<10, trials),
		}
	})
	for i, kb := range kbs {
		res.KB = append(res.KB, kb)
		res.LTEMbps = append(res.LTEMbps, pairs[i].lte)
		res.WiFiMbps = append(res.WiFiMbps, pairs[i].wifi)
		if pairs[i].wifi > 0 {
			res.Ratio = append(res.Ratio, pairs[i].lte/pairs[i].wifi)
		} else {
			res.Ratio = append(res.Ratio, 0)
		}
	}
	return res
}

// Figure11 sweeps flow size at the LTE-better location.
func Figure11(o Options) FlowSizeSweepResult { return flowSizeSweep(o, phy.LocLTEMuchBetter, 11) }

// Figure12 sweeps flow size at the WiFi-better location.
func Figure12(o Options) FlowSizeSweepResult { return flowSizeSweep(o, phy.LocWiFiBetter, 12) }

// String renders the sweep.
func (r FlowSizeSweepResult) String() string {
	var rows [][]string
	for i, kb := range r.KB {
		rows = append(rows, []string{
			fmt.Sprintf("%d", kb),
			fmt.Sprintf("%.2f", r.LTEMbps[i]),
			fmt.Sprintf("%.2f", r.WiFiMbps[i]),
			fmt.Sprintf("%.2f", r.Ratio[i]),
		})
	}
	return fmt.Sprintf("Figures 11/12 (location %d): MPTCP throughput vs flow size\n", r.Location) +
		table([]string{"KB", "MPTCP(LTE) Mbps", "MPTCP(WiFi) Mbps", "ratio LTE/WiFi"}, rows)
}

// CouplingResult holds the Fig. 13 + Fig. 14 data: relative difference
// CDFs for the congestion-control choice ("CC") and the
// primary-network choice ("Network"), per flow size.
type CouplingResult struct {
	// CCMedianPct / NetworkMedianPct per size label
	// (paper CC: 16/16/34; Network: 60/43/25).
	CCMedianPct      map[string]float64
	NetworkMedianPct map[string]float64
	CCCDFs           []CDFSeries
	NetworkCDFs      []CDFSeries
}

// Coupling measures the four MPTCP configurations at the paper's 7
// coupling-study sites, both directions, and computes the paired
// relative differences of Section 3.5.
func Coupling(o Options) CouplingResult {
	res := CouplingResult{
		CCMedianPct:      map[string]float64{},
		NetworkMedianPct: map[string]float64{},
	}
	locIDs := phy.CouplingStudyLocations
	if n := o.LocationCount(len(locIDs)); n < len(locIDs) {
		locIDs = locIDs[:n]
	}
	trials := o.TrialCount(3)
	dirs := []core.Direction{core.Download, core.Upload}
	reldiff := func(a, b float64) (float64, bool) {
		if a <= 0 || b <= 0 {
			return 0, false
		}
		d := (a - b) / b
		if d < 0 {
			d = -d
		}
		return d * 100, true
	}
	for _, sz := range figure8Sizes {
		// One sweep cell per (location, direction, trial), flattened with
		// the location index slowest so samples collect in the historical
		// nesting order.
		type cell struct{ cc, net []float64 }
		cells := engine.Sweep(o, len(locIDs)*len(dirs)*trials, func(k int) cell {
			id := locIDs[k/(len(dirs)*trials)]
			dir := dirs[k/trials%len(dirs)]
			t := k % trials
			loc := phy.LocationByID(id)
			seed := seedFor(o.BaseSeed(), 1314, id, sz.bytes, int(dir), t)
			m := map[string]float64{}
			for ci, cfg := range []core.Config{
				{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Coupled},
				{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Decoupled},
				{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled},
				{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
			} {
				s := core.NewSession(seedFor(seed, ci), loc.Condition())
				m[cfg.Primary+"/"+cfg.CC.String()] = s.RunMbps(cfg, dir, sz.bytes)
				s.Close()
			}
			var c cell
			// rcwnd: same primary, different CC.
			if d, ok := reldiff(m["lte/decoupled"], m["lte/coupled"]); ok {
				c.cc = append(c.cc, d)
			}
			if d, ok := reldiff(m["wifi/decoupled"], m["wifi/coupled"]); ok {
				c.cc = append(c.cc, d)
			}
			// rnetwork: same CC, different primary.
			if d, ok := reldiff(m["lte/coupled"], m["wifi/coupled"]); ok {
				c.net = append(c.net, d)
			}
			if d, ok := reldiff(m["lte/decoupled"], m["wifi/decoupled"]); ok {
				c.net = append(c.net, d)
			}
			return c
		})
		var ccSamples, netSamples []float64
		for _, c := range cells {
			ccSamples = append(ccSamples, c.cc...)
			netSamples = append(netSamples, c.net...)
		}
		cc, net := stats.NewECDF(ccSamples), stats.NewECDF(netSamples)
		res.CCMedianPct[sz.label] = cc.Median()
		res.NetworkMedianPct[sz.label] = net.Median()
		res.CCCDFs = append(res.CCCDFs, sampleCDF(cc, sz.label+" CC", 25))
		res.NetworkCDFs = append(res.NetworkCDFs, sampleCDF(net, sz.label+" Network", 25))
	}
	return res
}

// String renders the medians table plus CDF data.
func (r CouplingResult) String() string {
	var rows [][]string
	for _, sz := range figure8Sizes {
		rows = append(rows, []string{
			sz.label,
			fmt.Sprintf("%.0f%%", r.CCMedianPct[sz.label]),
			fmt.Sprintf("%.0f%%", r.NetworkMedianPct[sz.label]),
		})
	}
	s := "Figures 13/14: relative difference medians (paper CC: 16/16/34%, Network: 60/43/25%)\n" +
		table([]string{"Flow size", "CC median", "Network median"}, rows)
	for i := range r.CCCDFs {
		s += renderCDF(r.CCCDFs[i], "%8.1f") + renderCDF(r.NetworkCDFs[i], "%8.1f")
	}
	return s
}
