// Package determtest is the determinism analyzer's golden package. It
// stands in for engine code: wall clocks, global randomness, stray
// goroutines, and order-sensitive map iteration must all be flagged,
// while the documented order-insensitive idioms stay silent.
package determtest

import (
	"math/rand"
	"sort"
	"time"
)

var bootAt = time.Now() // want `wall clock time.Now`

func elapsed() time.Duration {
	return time.Since(bootAt) // want `wall clock time.Since`
}

func jitter() int {
	return rand.Intn(8) // want `global math/rand Intn`
}

func seededJitter(r *rand.Rand) int {
	return r.Intn(8) // methods on a seeded source are deterministic
}

func seedSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // constructors are allowed
}

func spawn(done chan struct{}) {
	go close(done) // want `go statement`
}

func allowedSpawn(done chan struct{}) {
	//lint:allow determinism golden proof that an allow annotation suppresses
	go close(done)
}

func totals(m map[string]int) int {
	tot := 0
	for _, v := range m { // commutative integer accumulation is order-free
		tot += v
	}
	return tot
}

func perKeyProjection(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m { // each key writes one distinct entry
		out[k] = v * 2
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func concatKeys(m map[string]int) string {
	out := ""
	for k := range m { // want `order-sensitive body`
		out += k
	}
	return out
}

func anyKey(m map[string]int) string {
	for k := range m { // want `order-sensitive body`
		return k
	}
	return ""
}

// Named random streams kept across worlds are reseeded for the next
// one. Through a map that happens in random order, and the analyzer
// cannot know that Seed is the only thing the loop will ever do to
// them; simnet keeps its streams in a slice, in creation order.
func reseedByName(streams map[string]*rand.Rand, seed int64) {
	for name, r := range streams { // want `order-sensitive body`
		r.Seed(seed + int64(len(name)))
	}
}

type namedStream struct {
	name string
	r    *rand.Rand
}

func reseedInOrder(streams []namedStream, seed int64) {
	for _, st := range streams { // a slice has one order
		st.r.Seed(seed + int64(len(st.name)))
	}
}

func allowedFloatSum(m map[string]float64) float64 {
	s := 0.0
	//lint:allow determinism golden float accumulation tolerated for the test
	for _, v := range m {
		s += v
	}
	return s
}
