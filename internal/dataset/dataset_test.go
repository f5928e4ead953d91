package dataset

import (
	"math"
	"testing"

	"multinet/internal/simnet"
)

func gen(t *testing.T) *Campaign {
	t.Helper()
	return Generate(simnet.New(2014))
}

func TestCampaignSize(t *testing.T) {
	c := gen(t)
	complete := len(c.CompleteRuns())
	want := 0
	for _, cl := range Table1 {
		want += cl.Runs
	}
	if complete != want {
		t.Fatalf("complete runs = %d, want %d (Table 1 total)", complete, want)
	}
	if len(c.Runs) <= complete {
		t.Fatal("expected incomplete runs in the raw data (the filter must have work to do)")
	}
}

func TestIncompleteRunsLackLTE(t *testing.T) {
	c := gen(t)
	for _, r := range c.Runs {
		if !r.Complete && (r.LTEDown != 0 || r.LTERTT != 0) {
			t.Fatal("incomplete run has LTE measurements")
		}
		if r.Complete && (r.LTEDown == 0 || r.WiFiDown == 0) {
			t.Fatal("complete run missing measurements")
		}
	}
}

func TestHeadlineWinFractions(t *testing.T) {
	// Paper Section 2.2: LTE beats WiFi in 42% of uplink samples, 35%
	// of downlink samples, 40% combined.
	up, down, combined := gen(t).WinFractions()
	if math.Abs(up-0.42) > 0.05 {
		t.Fatalf("uplink LTE win fraction = %.3f, want 0.42±0.05", up)
	}
	if math.Abs(down-0.35) > 0.05 {
		t.Fatalf("downlink LTE win fraction = %.3f, want 0.35±0.05", down)
	}
	if math.Abs(combined-0.40) > 0.05 {
		t.Fatalf("combined LTE win fraction = %.3f, want 0.40±0.05", combined)
	}
}

func TestRTTWinFraction(t *testing.T) {
	// Paper Fig. 4: LTE has lower ping RTT in 20% of runs.
	cdf := gen(t).RTTDiffCDF()
	// P(WiFi - LTE > 0) = 1 - CDF(0) is the LTE-win fraction.
	lteWins := 1 - cdf.At(0)
	if math.Abs(lteWins-0.20) > 0.04 {
		t.Fatalf("LTE RTT win fraction = %.3f, want 0.20±0.04", lteWins)
	}
}

func TestDiffCDFSupportSpansPaperRange(t *testing.T) {
	// Paper Fig. 3 shows differences reaching beyond ±10 Mbit/s.
	up, down := gen(t).DiffCDFs()
	if down.Quantile(0.99) < 10 {
		t.Fatalf("99th pct downlink diff = %.1f, want > 10 Mbit/s", down.Quantile(0.99))
	}
	if down.Quantile(0.01) > -5 {
		t.Fatalf("1st pct downlink diff = %.1f, want < -5 Mbit/s", down.Quantile(0.01))
	}
	if len(up.Points()) != len(down.Points()) {
		t.Fatal("uplink and downlink sample counts differ")
	}
}

func TestPerClusterWinCalibration(t *testing.T) {
	// Each big cluster's downlink win rate should track its Table 1
	// percentage.
	c := gen(t)
	byCluster := map[string][]Run{}
	for _, r := range c.CompleteRuns() {
		byCluster[r.Cluster] = append(byCluster[r.Cluster], r)
	}
	for _, cl := range Table1 {
		if cl.Runs < 100 {
			continue // small clusters are statistically noisy
		}
		runs := byCluster[cl.Name]
		wins := 0
		for _, r := range runs {
			if r.LTEDown > r.WiFiDown {
				wins++
			}
		}
		got := 100 * float64(wins) / float64(len(runs))
		if math.Abs(got-float64(cl.LTEWinPct)) > 12 {
			t.Errorf("%s: LTE win %.0f%%, want %d%%±12", cl.Name, got, cl.LTEWinPct)
		}
	}
}

func TestRegenerateTable1(t *testing.T) {
	rows := gen(t).RegenerateTable1()
	// The paper's Table 1 has 22 clusters; jittered coordinates should
	// regroup into a similar number (US East Coast clusters can merge).
	if len(rows) < 18 || len(rows) > 26 {
		t.Fatalf("regenerated %d clusters, want ~22", len(rows))
	}
	// Ordered by size, Boston first.
	if rows[0].Name != "US (Boston, MA)" {
		t.Fatalf("largest cluster = %s, want Boston", rows[0].Name)
	}
	if rows[0].Runs < 800 {
		t.Fatalf("Boston cluster has %d runs, want ~884", rows[0].Runs)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Runs > rows[i-1].Runs {
			t.Fatal("rows not ordered by run count")
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(simnet.New(7))
	b := Generate(simnet.New(7))
	if len(a.Runs) != len(b.Runs) {
		t.Fatal("run counts differ")
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Fatalf("run %d differs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Generate(simnet.New(1))
	b := Generate(simnet.New(2))
	same := true
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestAllThroughputsPositive(t *testing.T) {
	for _, r := range gen(t).CompleteRuns() {
		if r.WiFiDown <= 0 || r.WiFiUp <= 0 || r.LTEDown <= 0 || r.LTEUp <= 0 {
			t.Fatal("non-positive throughput")
		}
		if r.WiFiRTT <= 0 || r.LTERTT <= 0 {
			t.Fatal("non-positive RTT")
		}
	}
}
