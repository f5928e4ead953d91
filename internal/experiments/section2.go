package experiments

import (
	"fmt"
	"strings"

	"multinet/internal/dataset"
	"multinet/internal/experiments/engine"
	"multinet/internal/simnet"
	"multinet/internal/stats"
)

func init() {
	register("table1", "Table 1", "2", 1, func(o Options) fmt.Stringer { return Table1(o) })
	register("figure3", "Figure 3", "2.3", 2, func(o Options) fmt.Stringer { return Figure3(o) })
	register("figure4", "Figure 4", "2.3", 3, func(o Options) fmt.Stringer { return Figure4(o) })
}

// campaign generates the crowd-sourced measurement campaign of
// Section 2 in cell c's world.
func campaign(c engine.Cell) *dataset.Campaign {
	sim := simnet.New(c.Seed())
	defer sim.Release()
	return dataset.Generate(sim)
}

// Table1Result is the regenerated Table 1 (geographic clusters of the
// crowd-sourced campaign).
type Table1Result struct {
	Rows []dataset.TableRow
	// TotalRuns counts complete runs across clusters.
	TotalRuns int
	// Filtered counts incomplete runs removed by the paper's filter.
	Filtered int
}

// Table1 generates the synthetic campaign and regroups it with the
// paper's k-means-style radius clustering (r = 100 km).
func Table1(o Options) Table1Result {
	c := campaign(o.Cell())
	rows := c.RegenerateTable1()
	res := Table1Result{Rows: rows}
	res.Filtered = len(c.Runs) - len(c.CompleteRuns())
	for _, r := range rows {
		res.TotalRuns += r.Runs
	}
	return res
}

// String renders the table in the paper's layout.
func (r Table1Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("(%.1f, %.1f)", row.Lat, row.Lon),
			fmt.Sprintf("%d", row.Runs),
			fmt.Sprintf("%.0f%%", row.LTEWinPct),
		})
	}
	return "Table 1: location clusters (k-means r=100km), ordered by runs\n" +
		table([]string{"Location", "(Lat, Long)", "# of Runs", "LTE %"}, rows) +
		fmt.Sprintf("total complete runs: %d (filtered %d incomplete)\n", r.TotalRuns, r.Filtered)
}

// CDFSeries is a downsampled CDF for figure output.
type CDFSeries struct {
	Label  string
	Points []stats.Point
}

// sampleCDF extracts ~n evenly spaced CDF points.
func sampleCDF(e *stats.ECDF, label string, n int) CDFSeries {
	pts := e.Points()
	if len(pts) <= n {
		return CDFSeries{Label: label, Points: pts}
	}
	out := make([]stats.Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*len(pts)/n])
	}
	out = append(out, pts[len(pts)-1])
	return CDFSeries{Label: label, Points: out}
}

func renderCDF(s CDFSeries, xfmt string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  # CDF %s\n", s.Label)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "  "+xfmt+"  %.3f\n", p.X, p.Y)
	}
	return b.String()
}

// Figure3Result holds the throughput-difference CDFs (WiFi - LTE).
type Figure3Result struct {
	Uplink, Downlink CDFSeries
	// LTEWinUp/Down are the grey-region fractions (paper: 42% / 35%).
	LTEWinUp, LTEWinDown float64
	// Combined is the pooled fraction (paper: 40%).
	Combined float64
}

// Figure3 computes the CDFs of Tput(WiFi)-Tput(LTE) over the campaign.
func Figure3(o Options) Figure3Result {
	c := campaign(o.Cell())
	up, down := c.DiffCDFs()
	wu, wd, comb := c.WinFractions()
	return Figure3Result{
		Uplink:     sampleCDF(up, "uplink WiFi-LTE (Mbit/s)", 40),
		Downlink:   sampleCDF(down, "downlink WiFi-LTE (Mbit/s)", 40),
		LTEWinUp:   wu,
		LTEWinDown: wd,
		Combined:   comb,
	}
}

// String renders the figure data and headline fractions.
func (r Figure3Result) String() string {
	return fmt.Sprintf(
		"Figure 3: CDF of Tput(WiFi)-Tput(LTE)\n"+
			"LTE wins: uplink %.0f%% (paper 42%%), downlink %.0f%% (paper 35%%), combined %.0f%% (paper 40%%)\n",
		r.LTEWinUp*100, r.LTEWinDown*100, r.Combined*100) +
		renderCDF(r.Uplink, "%8.2f") + renderCDF(r.Downlink, "%8.2f")
}

// Figure4Result holds the ping-RTT difference CDF.
type Figure4Result struct {
	CDF CDFSeries
	// LTELowerRTT is the grey-region fraction (paper: 20%).
	LTELowerRTT float64
}

// Figure4 computes the CDF of RTT(WiFi)-RTT(LTE) over the campaign.
func Figure4(o Options) Figure4Result {
	c := campaign(o.Cell())
	cdf := c.RTTDiffCDF()
	return Figure4Result{
		CDF:         sampleCDF(cdf, "RTT(WiFi)-RTT(LTE) (ms)", 40),
		LTELowerRTT: 1 - cdf.At(0),
	}
}

// String renders the figure data and headline fraction.
func (r Figure4Result) String() string {
	return fmt.Sprintf("Figure 4: CDF of ping RTT difference\nLTE has lower RTT in %.0f%% of runs (paper 20%%)\n",
		r.LTELowerRTT*100) + renderCDF(r.CDF, "%8.1f")
}
