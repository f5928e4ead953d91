package stats

import (
	"math"
	"slices"
	"sort"
)

// Add inserts a sample in order.
func (e *ECDF) Add(x float64) {
	e.sorted = slices.Insert(e.sorted, sort.SearchFloat64s(e.sorted, x), x)
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// Min returns the smallest sample.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest sample.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Samples returns the sorted samples (a copy).
func (e *ECDF) Samples() []float64 {
	return append([]float64(nil), e.sorted...)
}
