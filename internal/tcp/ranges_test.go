package tcp

import (
	"math/rand"
	"slices"
	"testing"

	"multinet/internal/simnet"
)

// FuzzRangesMatchBitmap is the differential test of the reassembly set:
// every two bytes are an arrival [lo, lo+n) in a space of 256 sequence
// numbers, recorded both in a Ranges and in a bitmap. After every
// arrival the in-order point Add returns must be the bitmap's filled
// prefix, and the set must be exactly the bitmap's maximal runs above it.
func FuzzRangesMatchBitmap(f *testing.F) {
	f.Add([]byte{10, 4, 20, 4, 14, 5, 0, 10})   // two ranges, a bridge, the hole filled
	f.Add([]byte{50, 9, 40, 9, 30, 9, 31, 200}) // arrivals from the top down, then one over all
	f.Add([]byte{8, 3, 8, 3, 0, 8, 0, 8})       // a duplicate above and below the in-order point
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const space = 256
		sim := simnet.New(1)
		var s Ranges
		var have [space]bool
		next := uint64(0)
		for ; len(data) >= 2; data = data[2:] {
			lo := uint64(data[0])
			hi := min(lo+1+uint64(data[1]%24), space)
			next = s.Add(sim, next, lo, hi)
			for i := lo; i < hi; i++ {
				have[i] = true
			}
			want := uint64(0)
			for want < space && have[want] {
				want++
			}
			if next != want {
				t.Fatalf("after [%d, %d): in-order point %d, bitmap's %d", lo, hi, next, want)
			}
			var runs []Range
			for i := want; i < space; i++ {
				if !have[i] {
					continue
				}
				j := i
				for j < space && have[j] {
					j++
				}
				runs = append(runs, Range{i, j})
				i = j
			}
			if !slices.Equal(s.r, runs) {
				t.Fatalf("after [%d, %d): set %v, bitmap's runs %v", lo, hi, s.r, runs)
			}
		}
	})
}

// TestRangesWarmAllocs: once the set has grown to a burst's size,
// reassembling another burst like it — inserts at the front, in the
// middle and at the top, then the hole filled — allocates nothing.
func TestRangesWarmAllocs(t *testing.T) {
	sim := simnet.New(1)
	var s Ranges
	next := uint64(0)
	burst := func() {
		base := next
		for k := uint64(16); k > 0; k -= 2 {
			next = s.Add(sim, next, base+2*k, base+2*k+1)
		}
		for k := uint64(1); k < 16; k += 2 {
			next = s.Add(sim, next, base+2*k, base+2*k+1)
		}
		next = s.Add(sim, next, base+40, base+41)
		next = s.Add(sim, next, base, base+40)
	}
	burst()
	if next != 41 || len(s.r) != 0 {
		t.Fatalf("burst left next=%d and %d ranges, want 41 and none", next, len(s.r))
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("a warm set allocated %v objects per burst", allocs)
	}
}
