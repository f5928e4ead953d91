// Package dataset synthesises the paper's crowd-sourced "Cell vs WiFi"
// measurement campaign (Section 2): 22 location clusters in 16
// countries, each contributing the run counts of the paper's Table 1.
//
// The real dataset is 10 GB of user-contributed tcpdump traces that we
// cannot obtain, so each cluster is a calibrated generative model:
// per-direction WiFi/LTE throughputs are lognormal with a common shape
// and a mean offset chosen analytically so that
//
//	P(LTE > WiFi) = Phi( (muL - muW) / (s*sqrt(2)) )
//
// matches the cluster's Table 1 "LTE %" column. RTTs are lognormal,
// calibrated so LTE has the lower ping RTT in 20% of runs (Fig. 4).
// The analysis pipeline (k-means grouping, paired-difference CDFs) then
// runs unchanged against the synthetic runs, exactly as the paper ran
// it against real ones.
package dataset

import (
	"math"
	"math/rand"

	"multinet/internal/simnet"
	"multinet/internal/stats"
)

// Cluster is one Table 1 location cluster with its generative
// parameters.
type Cluster struct {
	// Name is the paper's location label.
	Name string
	// Lat, Lon is the cluster centre.
	Lat, Lon float64
	// Runs is the number of complete measurement runs (paper Table 1).
	Runs int
	// LTEWinPct is the paper's Table 1 "LTE %" column: the percentage
	// of runs where LTE downlink throughput beats WiFi.
	LTEWinPct int
	// WiFiDownMedian is the cluster's median WiFi downlink in Mbit/s.
	WiFiDownMedian float64
}

// Table1 lists the paper's Table 1 clusters verbatim (name, location,
// run count, LTE win percentage). WiFi medians are our calibration —
// chosen to span the throughput ranges of the paper's Fig. 3.
var Table1 = []Cluster{
	{"US (Boston, MA)", 42.4, -71.1, 884, 10, 9.0},
	{"Israel", 31.8, 35.0, 276, 55, 5.0},
	{"US (Portland)", 45.6, -122.7, 164, 45, 6.0},
	{"Estonia", 59.4, 27.4, 124, 71, 4.0},
	{"South Korea", 37.5, 126.9, 108, 66, 7.0},
	{"US (Orlando)", 28.4, -81.4, 92, 35, 6.5},
	{"US (Miami)", 26.0, -80.2, 84, 52, 5.5},
	{"Malaysia", 4.24, 103.4, 76, 68, 3.0},
	{"Brazil", -23.6, -46.8, 56, 4, 8.0},
	{"Germany", 52.5, 13.3, 40, 20, 8.5},
	{"Spain", 28.0, -16.7, 40, 80, 3.5},
	{"Thailand (Phichit)", 16.1, 100.2, 40, 80, 2.5},
	{"US (New York)", 40.9, -73.8, 24, 33, 7.0},
	{"Japan", 36.4, 139.3, 16, 25, 9.0},
	{"Sweden", 59.6, 18.6, 16, 0, 12.0},
	{"Thailand (Chiang Mai)", 18.8, 99.0, 16, 75, 3.0},
	{"US (Chicago)", 42.0, -88.2, 16, 25, 8.0},
	{"Hungary", 47.4, 16.8, 8, 0, 10.0},
	{"Italy", 44.2, 8.3, 8, 0, 9.0},
	{"US (Salt Lake City)", 40.8, -111.9, 8, 0, 11.0},
	{"Colombia", 7.1, -70.7, 4, 0, 7.0},
	{"US (Santa Fe)", 35.9, -106.3, 4, 0, 6.0},
}

// Generative shape parameters (log-space standard deviations).
const (
	tputSigma = 0.75 // within-cluster throughput spread
	rttSigmaW = 0.50 // WiFi ping RTT spread
	rttSigmaL = 0.40 // LTE ping RTT spread

	// uplinkWinBoost raises the LTE uplink win probability over the
	// downlink one: the paper sees 42% uplink vs 35% downlink wins
	// (LTE uplink scheduling beats contention-based WiFi uplinks).
	uplinkWinBoost = 0.07

	// upFactor scales downlink medians to uplink medians.
	upFactorWiFi = 0.40
	upFactorLTE  = 0.35

	// rttLTEWinTarget is the fraction of runs where LTE ping RTT is
	// lower than WiFi (paper Fig. 4 grey region).
	rttLTEWinTarget = 0.20

	wifiRTTMedian = 45.0 // ms

	// incompleteFrac is the fraction of collected runs that measured
	// only one network (paper Section 2.2 discards them).
	incompleteFrac = 0.20
)

// Run is one measurement-collection run (paper Fig. 2): a 1 MB TCP
// upload+download on WiFi, then on LTE, plus 10 averaged pings each.
type Run struct {
	Cluster  string
	Lat, Lon float64
	Complete bool
	// Throughputs in Mbit/s (zero when not measured).
	WiFiDown, WiFiUp, LTEDown, LTEUp float64
	// Average ping RTTs in milliseconds.
	WiFiRTT, LTERTT float64
}

// Campaign is a full synthetic dataset.
type Campaign struct {
	Runs []Run
	// complete is CompleteRuns' answer, filtered on the first call:
	// every analysis below starts from it.
	complete []Run
}

// lteMedianFor solves the calibration identity for the LTE median given
// the WiFi median, shared sigma and target win probability.
func lteMedianFor(wifiMedian, sigma, winProb float64) float64 {
	if winProb <= 0 {
		winProb = 0.02 // "0%" cells still need a (losing) distribution
	}
	if winProb >= 1 {
		winProb = 0.98
	}
	offset := stats.NormQuantile(winProb) * sigma * math.Sqrt2
	return wifiMedian * math.Exp(offset)
}

func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// Generate synthesises the campaign. The same (sim seed) always yields
// the same dataset.
func Generate(sim *simnet.Sim) *Campaign {
	rng := sim.RNG("dataset/campaign")
	c := &Campaign{}
	for _, cl := range Table1 {
		pDown := float64(cl.LTEWinPct) / 100
		pUp := pDown + uplinkWinBoost
		lteDownMed := lteMedianFor(cl.WiFiDownMedian, tputSigma, pDown)
		wifiUpMed := cl.WiFiDownMedian * upFactorWiFi
		lteUpMed := lteMedianFor(wifiUpMed, tputSigma, pUp)
		lteRTTMed := wifiRTTMedian * math.Exp(stats.NormQuantile(1-rttLTEWinTarget)*
			math.Sqrt(rttSigmaW*rttSigmaW+rttSigmaL*rttSigmaL))

		// Complete runs per Table 1, plus a proportional number of
		// incomplete ones that the analysis will filter out.
		incomplete := int(math.Round(float64(cl.Runs) * incompleteFrac))
		for i := 0; i < cl.Runs+incomplete; i++ {
			r := Run{
				Cluster: cl.Name,
				// Jitter within ~0.2 degrees (~22 km) of the centre.
				Lat:      cl.Lat + rng.NormFloat64()*0.1,
				Lon:      cl.Lon + rng.NormFloat64()*0.1,
				Complete: i < cl.Runs,
			}
			r.WiFiDown = lognormal(rng, cl.WiFiDownMedian, tputSigma)
			r.WiFiUp = lognormal(rng, wifiUpMed, tputSigma)
			r.WiFiRTT = avgPings(rng, wifiRTTMedian, rttSigmaW)
			if r.Complete {
				r.LTEDown = lognormal(rng, lteDownMed, tputSigma)
				r.LTEUp = lognormal(rng, lteUpMed, tputSigma)
				r.LTERTT = avgPings(rng, lteRTTMed, rttSigmaL)
			}
			c.Runs = append(c.Runs, r)
		}
	}
	return c
}

// avgPings draws 10 ping RTTs around the median and averages them, as
// the app does (paper Section 2.2).
func avgPings(rng *rand.Rand, median, sigma float64) float64 {
	// The run's base RTT; individual pings jitter mildly around it.
	base := lognormal(rng, median, sigma)
	sum := 0.0
	for i := 0; i < 10; i++ {
		sum += base * math.Exp(rng.NormFloat64()*0.08)
	}
	return sum / 10
}

// CompleteRuns returns the runs that measured both networks — the
// paper's filtering step. The slice is the campaign's own, filtered
// once: read it, do not change it (nor Runs after the first call).
func (c *Campaign) CompleteRuns() []Run {
	if c.complete == nil {
		c.complete = make([]Run, 0, len(c.Runs))
		for _, r := range c.Runs {
			if r.Complete {
				c.complete = append(c.complete, r)
			}
		}
	}
	return c.complete
}

// WinFractions returns the fraction of complete runs where LTE beats
// WiFi on the uplink, downlink, and over both directions pooled —
// the paper's "LTE outperforms WiFi 40% of the time" metric.
func (c *Campaign) WinFractions() (up, down, combined float64) {
	var u, d, n int
	for _, r := range c.CompleteRuns() {
		if r.LTEUp > r.WiFiUp {
			u++
		}
		if r.LTEDown > r.WiFiDown {
			d++
		}
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	up = float64(u) / float64(n)
	down = float64(d) / float64(n)
	combined = float64(u+d) / float64(2*n)
	return
}

// DiffCDFs returns the CDFs of Tput(WiFi) - Tput(LTE) for the uplink
// and downlink (paper Fig. 3).
func (c *Campaign) DiffCDFs() (up, down *stats.ECDF) {
	var us, ds []float64
	for _, r := range c.CompleteRuns() {
		us = append(us, r.WiFiUp-r.LTEUp)
		ds = append(ds, r.WiFiDown-r.LTEDown)
	}
	return stats.NewECDF(us), stats.NewECDF(ds)
}

// RTTDiffCDF returns the CDF of RTT(WiFi) - RTT(LTE) in milliseconds
// (paper Fig. 4).
func (c *Campaign) RTTDiffCDF() *stats.ECDF {
	var xs []float64
	for _, r := range c.CompleteRuns() {
		xs = append(xs, r.WiFiRTT-r.LTERTT)
	}
	return stats.NewECDF(xs)
}

// TableRow is one row of the regenerated Table 1.
type TableRow struct {
	Name      string
	Lat, Lon  float64
	Runs      int
	LTEWinPct float64
}

// RegenerateTable1 groups complete runs with the paper's method
// (radius clustering, r = 100 km) and recomputes each group's size and
// downlink LTE-win percentage. Rows come back ordered by run count.
func (c *Campaign) RegenerateTable1() []TableRow {
	runs := c.CompleteRuns()
	pts := make([]stats.GeoPoint, len(runs))
	for i, r := range runs {
		pts[i] = stats.GeoPoint{Lat: r.Lat, Lon: r.Lon}
	}
	clusters := stats.ClusterByRadius(pts, 100)
	rows := make([]TableRow, 0, len(clusters))
	for _, cl := range clusters {
		row := TableRow{Lat: cl.Centroid.Lat, Lon: cl.Centroid.Lon, Runs: len(cl.Members)}
		wins := 0
		names := map[string]int{}
		for _, idx := range cl.Members {
			if runs[idx].LTEDown > runs[idx].WiFiDown {
				wins++
			}
			names[runs[idx].Cluster]++
		}
		// Label with the dominant source cluster name.
		best, bestN := "", 0
		for n, cnt := range names {
			if cnt > bestN {
				best, bestN = n, cnt
			}
		}
		row.Name = best
		row.LTEWinPct = 100 * float64(wins) / float64(len(cl.Members))
		rows = append(rows, row)
	}
	return rows
}
