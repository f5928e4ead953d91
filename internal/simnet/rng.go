package simnet

// generator is math/rand's additive lagged-Fibonacci source (Mitchell and
// Reeds: x[n] = x[n-273] + x[n-607] mod 2^64), kept here so that seeding
// it can be done by jump-ahead. Draw for draw it is the stream
// rand.NewSource gives for the same seed (TestStreamMatchesMathRand), and
// the calibrated experiments depend on exactly that stream.
//
// The stdlib seeds the 607 words from one Lehmer chain,
// x[k+1] = 48271·x[k] mod (2^31−1), taking 1 841 serially dependent steps
// (20 to warm up, three per word). The chain has the closed form
// x[k] = 48271^k · x[0] mod (2^31−1), so with the powers tabulated each
// word is three independent multiplications, and a Mersenne modulus
// reduces by shift and add instead of division.
//
// Independent words need not be computed up front. seed records only the
// chain's start, and the words are computed in the first lap of draws,
// a few draws ahead of their first read (fill): a stream costs what it
// draws, which matters because a short-lived world seeds half a dozen
// streams and then draws a few dozen numbers from most of them.
type generator struct {
	tap, feed int
	x         uint64 // the chain's start, x[0]
	// ready is the lowest feed index whose word this seed has computed;
	// when feed has counted down to it, fill must run before the next
	// draw. It is −1, which feed never reaches, once every word is.
	ready int
	vec   [rngLen]int64
}

const (
	rngTap     = 273
	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerWarm = 20 // chain steps before the first word
)

// lehmerPow[i][j] is 48271^(lehmerWarm+1+3i+j) mod (2^31−1): the
// multiplier that takes the seed to the j-th of word i's three chain
// values. Filled by its initialiser, never written again.
var lehmerPow = func() (pow [rngLen][3]uint32) {
	p := uint64(1)
	for k := 0; k < lehmerWarm; k++ {
		p = p * lehmerMul % lehmerMod
	}
	for i := range pow {
		for j := range pow[i] {
			p = p * lehmerMul % lehmerMod
			pow[i][j] = uint32(p)
		}
	}
	return pow
}()

// mulmod returns a·x mod (2^31−1) for a, x in [1, 2^31−2]. 2^31 ≡ 1, so
// the high bits fold onto the low ones: the product is below 2^62, one
// fold brings it to at most 2^32−2 and a second to at most 2^31−1. It
// cannot be 2^31−1 or 0, because the product is not a multiple of the
// prime modulus, so no final subtraction is needed: the result is in
// [1, 2^31−2] like the chain's.
func mulmod(a uint32, x uint64) uint64 {
	p := uint64(a) * x
	p = p&lehmerMod + p>>31
	return p&lehmerMod + p>>31
}

// seed puts the generator in the state rand.NewSource(seed) starts in,
// whatever it held before: no word of vec is read before fill writes it.
func (g *generator) seed(seed int64) {
	g.tap = 0
	g.feed = rngLen - rngTap

	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	g.x = uint64(seed)
	g.ready = g.feed
}

// fillAhead is how many draws' words one fill computes. One draw's
// worth per fill costs a long stream about a third more than seeding up
// front did, in calls; sixteen cost it nothing (cmd/bench rng/seed-drain)
// and a stream drawn once about 0.1 µs.
const fillAhead = 16

// fill computes the seeded words the next fillAhead draws read; until
// every word is computed, a draw must be preceded by one whenever feed
// has reached ready (lazySource.source does it). The first lap's draws
// read feed 333 down to 0, each with tap feed+273. Each feed word is read
// there for the first time; a tap word is too while it is at 334 or
// above (feed ≥ 61), and below that it is a feed word an earlier draw
// wrote. So when feed reaches 0 every word has been computed exactly
// once, and uint64 stays the stdlib's loop with nothing added to it.
func (g *generator) fill() {
	lo := max(g.ready-fillAhead, 0)
	g.compute(lo, g.ready)
	g.compute(max(lo+rngTap, rngLen-rngTap), g.ready+rngTap)
	if lo == 0 {
		lo = -1
	}
	g.ready = lo
}

// compute sets vec[lo:hi] to those words of the seeded state.
func (g *generator) compute(lo, hi int) {
	for i := lo; i < hi; i++ {
		pow := &lehmerPow[i]
		u := int64(mulmod(pow[0], g.x))<<40 ^ int64(mulmod(pow[1], g.x))<<20 ^ int64(mulmod(pow[2], g.x))
		g.vec[i] = u ^ rngCooked[i]
	}
}

func (g *generator) uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}
