// Package stats provides the statistical primitives used throughout the
// reproduction: empirical CDFs, quantiles, geographic k-means clustering
// (used to regenerate the paper's Table 1), and Gaussian helpers used to
// calibrate synthetic measurement distributions.
package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples, built by NewECDF. The zero value is an empty distribution.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the given samples (copied).
func NewECDF(samples []float64) *ECDF {
	e := &ECDF{sorted: append([]float64(nil), samples...)}
	sort.Float64s(e.sorted)
	return e
}

// At returns P(X <= x), the fraction of samples at or below x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// Move past ties so that At is right-continuous (<= semantics).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile using linear interpolation between
// order statistics (type-7 in the Hyndman–Fan taxonomy, the R/NumPy
// default); Quantile(0.5) is the median. q is clamped to [0, 1]:
// q <= 0 yields the minimum, q >= 1 the maximum. An empty
// distribution yields NaN.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	pos := q * float64(len(e.sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return e.sorted[lo]
	}
	frac := pos - float64(lo)
	// lo + frac*(hi-lo) rather than lo*(1-frac) + hi*frac: the latter
	// can round a hair outside [sorted[lo], sorted[hi]] (e.g. between
	// two equal order statistics), breaking monotonicity in q by an
	// ulp. The clamp guards the remaining rounding of the addition.
	v := e.sorted[lo] + frac*(e.sorted[hi]-e.sorted[lo])
	if v < e.sorted[lo] {
		v = e.sorted[lo]
	}
	if v > e.sorted[hi] {
		v = e.sorted[hi]
	}
	return v
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF, one
// point per sample.
func (e *ECDF) Points() []Point {
	pts := make([]Point, len(e.sorted))
	for i, x := range e.sorted {
		pts[i] = Point{X: x, Y: float64(i+1) / float64(len(e.sorted))}
	}
	return pts
}

// Point is a 2-D plot point.
type Point struct{ X, Y float64 }

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 {
	return NewECDF(xs).Median()
}

// NormQuantile returns the q-quantile of the standard normal
// distribution (the probit function). It is used to calibrate synthetic
// per-location throughput distributions so that P(LTE > WiFi) matches a
// target fraction analytically.
func NormQuantile(q float64) float64 {
	// Phi^-1(q) = sqrt(2) * erfinv(2q - 1)
	return math.Sqrt2 * math.Erfinv(2*q-1)
}

// NormCDF returns P(Z <= z) for a standard normal Z.
//
//lint:allow unusedapi ROADMAP item 8's paired sign counts over seeds
func NormCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
