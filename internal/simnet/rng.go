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
// reduces by shift and add instead of division: the same bits at a fifth
// of the time, which matters because a short-lived world seeds half a
// dozen streams and then draws a few dozen numbers from each.
type generator struct {
	tap, feed int
	vec       [rngLen]int64
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

// seed puts the generator in the state rand.NewSource(seed) starts in.
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
	x := uint64(seed)
	for i := range g.vec {
		pow := &lehmerPow[i]
		u := int64(mulmod(pow[0], x))<<40 ^ int64(mulmod(pow[1], x))<<20 ^ int64(mulmod(pow[2], x))
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
