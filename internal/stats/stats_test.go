package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if e.N() != 4 {
		t.Fatalf("N = %d, want 4", e.N())
	}
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFAtWithTies(t *testing.T) {
	e := NewECDF([]float64{1, 1, 1, 2})
	if got := e.At(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("At(1) with ties = %v, want 0.75", got)
	}
	if got := e.At(0.999); got != 0 {
		t.Fatalf("At(0.999) = %v, want 0", got)
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Median(); got != 30 {
		t.Fatalf("median = %v, want 30", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v, want 10", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v, want 50", got)
	}
	// Interpolated quantile.
	if got := e.Quantile(0.25); got != 20 {
		t.Fatalf("q0.25 = %v, want 20", got)
	}
	if got := e.Quantile(0.125); math.Abs(got-15) > 1e-9 {
		t.Fatalf("q0.125 = %v, want 15", got)
	}
}

func TestECDFQuantileEdgeCases(t *testing.T) {
	// Empty distribution: every quantile is NaN.
	empty := NewECDF(nil)
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); !math.IsNaN(got) {
			t.Fatalf("empty Quantile(%v) = %v, want NaN", q, got)
		}
	}
	// Single sample: every quantile is that sample.
	single := NewECDF([]float64{7})
	for _, q := range []float64{-1, 0, 0.3, 0.5, 1, 2} {
		if got := single.Quantile(q); got != 7 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 7", q, got)
		}
	}
	// Out-of-range q clamps to min/max rather than extrapolating.
	e := NewECDF([]float64{1, 2, 3})
	if got := e.Quantile(-0.5); got != 1 {
		t.Fatalf("Quantile(-0.5) = %v, want min 1", got)
	}
	if got := e.Quantile(1.5); got != 3 {
		t.Fatalf("Quantile(1.5) = %v, want max 3", got)
	}
	// The contract is LINEAR interpolation between order statistics
	// (type-7), not nearest rank: between the two samples of {0, 10}
	// the quarter-quantile is 2.5, where nearest-rank would snap to a
	// sample.
	two := NewECDF([]float64{0, 10})
	if got := two.Quantile(0.25); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("Quantile(0.25) over {0,10} = %v, want 2.5 (linear interpolation)", got)
	}
	four := NewECDF([]float64{1, 2, 3, 4})
	if got := four.Median(); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("even-count median = %v, want 2.5", got)
	}
}

func TestECDFAddKeepsSorted(t *testing.T) {
	e := &ECDF{}
	for _, x := range []float64{5, 1, 3, 2, 4} {
		e.Add(x)
	}
	if got := e.Median(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	s := e.Samples()
	if !sort.Float64sAreSorted(s) {
		t.Fatalf("Samples not sorted: %v", s)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := &ECDF{}
	if e.At(1) != 0 {
		t.Fatal("empty ECDF At should be 0")
	}
	if !math.IsNaN(e.Median()) {
		t.Fatal("empty ECDF median should be NaN")
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{2, 1})
	pts := e.Points()
	if len(pts) != 2 || pts[0].X != 1 || pts[0].Y != 0.5 || pts[1].Y != 1 {
		t.Fatalf("Points = %v", pts)
	}
}

func TestMedianOfSlice(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, q := range []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
		z := NormQuantile(q)
		if got := NormCDF(z); math.Abs(got-q) > 1e-9 {
			t.Errorf("NormCDF(NormQuantile(%v)) = %v", q, got)
		}
	}
	if z := NormQuantile(0.5); math.Abs(z) > 1e-12 {
		t.Errorf("NormQuantile(0.5) = %v, want 0", z)
	}
}

// Property: the calibration identity used by the dataset package.
// If A ~ N(ma, s^2), B ~ N(mb, s^2) independent, then
// P(A > B) = Phi((ma-mb)/(s*sqrt(2))). Setting ma-mb from the probit of
// the target must yield the target empirically.
func TestCalibrationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, target := range []float64{0.1, 0.25, 0.4, 0.55, 0.8} {
		s := 1.7
		diff := NormQuantile(target) * s * math.Sqrt2
		wins := 0
		const n = 200000
		for i := 0; i < n; i++ {
			a := rng.NormFloat64()*s + diff
			b := rng.NormFloat64() * s
			if a > b {
				wins++
			}
		}
		got := float64(wins) / n
		if math.Abs(got-target) > 0.01 {
			t.Errorf("target %v: empirical %v", target, got)
		}
	}
}

func TestHaversine(t *testing.T) {
	boston := GeoPoint{42.36, -71.06}
	nyc := GeoPoint{40.71, -74.01}
	d := HaversineKm(boston, nyc)
	if d < 290 || d > 320 {
		t.Fatalf("Boston-NYC = %v km, want ~306", d)
	}
	if d := HaversineKm(boston, boston); d != 0 {
		t.Fatalf("zero distance = %v", d)
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(a1, b1, a2, b2 uint16) bool {
		p := GeoPoint{Lat: float64(a1%180) - 90, Lon: float64(b1%360) - 180}
		q := GeoPoint{Lat: float64(a2%180) - 90, Lon: float64(b2%360) - 180}
		d1, d2 := HaversineKm(p, q), HaversineKm(q, p)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterByRadius(t *testing.T) {
	// Boston-area points plus one Portland point: expect 2 clusters.
	pts := []GeoPoint{
		{42.36, -71.06},  // Boston
		{42.37, -71.11},  // Cambridge
		{42.41, -71.00},  // nearby
		{45.52, -122.68}, // Portland, OR
	}
	cl := ClusterByRadius(pts, 100)
	if len(cl) != 2 {
		t.Fatalf("clusters = %d, want 2", len(cl))
	}
	if len(cl[0].Members) != 3 {
		t.Fatalf("largest cluster size = %d, want 3", len(cl[0].Members))
	}
}

func TestClusterByRadiusAllWithinRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []GeoPoint
	for i := 0; i < 200; i++ {
		pts = append(pts, GeoPoint{
			Lat: rng.Float64()*140 - 70,
			Lon: rng.Float64()*360 - 180,
		})
	}
	const r = 100
	clusters := ClusterByRadius(pts, r)
	total := 0
	for _, c := range clusters {
		total += len(c.Members)
		for _, m := range c.Members {
			// Members may drift slightly past r as the centroid moves;
			// the paper's property is "within 2r of each other", which a
			// 1.5r centroid bound guarantees comfortably.
			if d := HaversineKm(c.Centroid, pts[m]); d > 1.5*r {
				t.Fatalf("member %d is %.1f km from centroid", m, d)
			}
		}
	}
	if total != len(pts) {
		t.Fatalf("clustered %d points, want %d", total, len(pts))
	}
}

func TestClusterOrderedBySize(t *testing.T) {
	pts := []GeoPoint{
		{0, 0}, {50, 50}, {50.1, 50.1}, {50.2, 49.9},
	}
	cl := ClusterByRadius(pts, 100)
	for i := 1; i < len(cl); i++ {
		if len(cl[i].Members) > len(cl[i-1].Members) {
			t.Fatal("clusters not ordered by descending size")
		}
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		clamp := func(q float64) float64 {
			q = math.Abs(q)
			return q - math.Floor(q) // in [0,1)
		}
		a, b := clamp(q1), clamp(q2)
		if a > b {
			a, b = b, a
		}
		e := NewECDF(xs)
		qa, qb := e.Quantile(a), e.Quantile(b)
		return qa <= qb && qa >= e.Min() && qb <= e.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
