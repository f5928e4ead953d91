package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edgeSeeds are where the seeding arithmetic has corners: zero and the
// multiples of the Lehmer modulus (all replaced by the stdlib's constant),
// its neighbours, the int32 boundary and the ends of int64.
var edgeSeeds = []int64{
	0, 1, -1, lehmerMod, -lehmerMod, lehmerMod - 1, lehmerMod + 1, 2 * lehmerMod,
	1 << 31, -(1 << 31), -(1 << 62), math.MaxInt64, math.MinInt64, 89482311,
}

// drawnCorners are the draw counts after which a generator is reseeded
// where its lazy words have corners: never drawn (nothing built), one
// draw in, the last draw whose tap word is a seeded one, the last whose
// feed word is, and a whole lap.
var drawnCorners = []int{0, 1, rngTap, rngLen - rngTap, rngLen}

// matchSource fails unless the forked generator, drawn from k times on
// another seed and then reseeded with seed, yields the draws
// rand.NewSource(seed) does. Three laps of the 607-word register: every
// word of the seeded state is computed, read, overwritten and read again,
// and none of the k draws' words may leak into it.
func matchSource(t testing.TB, seed int64, k int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := &lazySource{seed: ^seed}
	for i := 0; i < k; i++ {
		got.Uint64()
	}
	got.Seed(seed)
	for i := 0; i < 3*rngLen; i++ {
		// Alternate the two entry points: they must advance one register.
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d after %d draws, draw %d: Uint64 = %#x, math/rand gives %#x", seed, k, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d after %d draws, draw %d: Int63 = %#x, math/rand gives %#x", seed, k, i, g, w)
		}
	}
}

// TestStreamMatchesMathRand holds the fork to the original: if math/rand
// ever changed its generator or its seeding, or the copy drifted, this is
// the test that says so — and it would mean the calibrated numbers of
// every experiment move with the toolchain unless the fork stays as it is.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, k := range drawnCorners {
			matchSource(t, seed, k)
		}
	}
	seeds := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		matchSource(t, int64(seeds.Uint64()), seeds.Intn(3*rngLen+1))
	}

	// The distributions the layers above draw, through the *rand.Rand a
	// Sim hands out, against a stdlib Rand on the stream's derived seed.
	draws := func(r *rand.Rand) []any {
		var out []any
		for i := 0; i < 300; i++ {
			out = append(out, r.Float64(), r.NormFloat64(), r.Intn(1000), r.Int63n(1<<40), r.ExpFloat64())
		}
		return append(out, r.Perm(50))
	}
	DropRetired()
	s := New(42)
	want := draws(rand.New(rand.NewSource(streamSeed(42, "phy/rate/wifi/down"))))
	if got := draws(s.RNG("phy/rate/wifi/down")); !reflect.DeepEqual(got, want) {
		t.Fatal("draws through Sim.RNG differ from math/rand's on the same seed")
	}
	// The next world reseeds the kept stream in place, mid-register.
	s.Release()
	s = New(-7)
	defer s.Release()
	want = draws(rand.New(rand.NewSource(streamSeed(-7, "phy/rate/wifi/down"))))
	if got := draws(s.RNG("phy/rate/wifi/down")); !reflect.DeepEqual(got, want) {
		t.Fatal("a stream reseeded in place after Release differs from math/rand's on the same seed")
	}
}

// FuzzSeedMatchesMathRand searches seeds and reseed points: k, the draws
// made on another seed first, is taken modulo three laps plus one, so it
// covers [0, 1821].
func FuzzSeedMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		for _, k := range drawnCorners {
			f.Add(seed, uint16(k))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint16) { matchSource(t, seed, int(k)%(3*rngLen+1)) })
}

// BenchmarkSeed is one stream seeding and its first draw, the cost a
// short-lived world pays per stream it draws from.
func BenchmarkSeed(b *testing.B) {
	src := &lazySource{}
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		src.Uint64()
	}
}
