package simnet

import (
	"testing"
	"unsafe"
)

// overlaps reports whether two slices share backing memory.
func overlaps[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	sz := unsafe.Sizeof(a[:1][0])
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*sz && b0 < a0+uintptr(cap(a))*sz
}

// TestSlabRewind pins the slab contract: within a world no two slices
// overlap, however rings grow and abandon what they had; after Release
// the next world gets the same chunks back, zeroed, and allocates
// nothing until it outgrows them.
func TestSlabRewind(t *testing.T) {
	type entry struct {
		p *int
		n int
	}
	DropRetired()
	s := New(1)
	sl := SlabOf[entry](s)
	if SlabOf[entry](s) != sl || any(SlabOf[int](s)) == any(sl) {
		t.Fatal("SlabOf must return one slab per element type")
	}
	x := 7
	var made [][]entry
	carve := func(n int) []entry {
		b := sl.Make(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Make(%d): len %d cap %d", n, len(b), cap(b))
		}
		for i := range b {
			if b[i] != (entry{}) {
				t.Fatalf("Make(%d) handed out dirty memory at %d: %+v", n, i, b[i])
			}
			b[i] = entry{&x, n} // dirty it for whoever comes next
		}
		for _, old := range made {
			if overlaps(old, b) {
				t.Fatalf("Make(%d) overlaps a slice made earlier in this world", n)
			}
		}
		made = append(made, b)
		return b
	}
	// Two rings doubling in turn, as a connection's two scoreboards do, and
	// a list grown by Grow.
	demand := 0
	var list []entry
	for n := 16; n <= 256; n *= 2 {
		carve(n)
		carve(n)
		grown := sl.Grow(list, len(list)+n)
		if len(grown) != len(list) || cap(grown) < len(list)+n {
			t.Fatalf("Grow to %d: len %d cap %d", len(list)+n, len(grown), cap(grown))
		}
		for i := range list {
			if grown[i] != list[i] {
				t.Fatal("Grow lost an element")
			}
		}
		for _, old := range made {
			if overlaps(old, grown) {
				t.Fatal("Grow overlaps a slice made earlier in this world")
			}
		}
		if same := sl.Grow(grown, cap(grown)); unsafe.SliceData(same) != unsafe.SliceData(grown) {
			t.Fatal("Grow moved a buffer that had room")
		}
		made = append(made, grown[:cap(grown)])
		list = append(grown, entry{&x, n})
		demand += 2*n + cap(grown)
	}
	// A first world pays for exactly what it asks for, request by request,
	// and the slab keeps none of it.
	if cap(sl.free) != 0 || sl.extra != demand {
		t.Errorf("cold slab holds %d entries and counts %d taken, want 0 and %d: a world that is never released must not zero what it does not use",
			cap(sl.free), sl.extra, demand)
	}
	s.Release()
	if cap(sl.free) != demand {
		t.Fatalf("Release left a slab of %d entries, want what the world took (%d)", cap(sl.free), demand)
	}

	// The same world again, on the parked slab: no allocation.
	s = New(2)
	if SlabOf[entry](s) != sl {
		t.Fatal("the next world did not get the parked slab")
	}
	chunk := unsafe.SliceData(sl.whole())
	if allocs := testing.AllocsPerRun(3, func() {
		sl.rewind() // each run is a world of its own
		for n := 16; n <= 256; n *= 2 {
			sl.Make(n)
			sl.Make(n)
		}
	}); allocs != 0 {
		t.Errorf("carving a rewound slab allocated %v objects", allocs)
	}
	made = made[:0]
	for n := 16; n <= 256; n *= 2 {
		carve(n) // dirties it
	}
	s.Release()
	for i, e := range sl.whole() {
		if e != (entry{}) {
			t.Fatalf("Release left entry %d dirty: a parked slab would pin the world that ended", i)
		}
	}
	s = New(3)
	defer s.Release()
	made = made[:0]
	for n := 16; n <= 256; n *= 2 {
		carve(n)
		carve(n)
	}
	if unsafe.SliceData(sl.whole()) != chunk || cap(sl.free) != demand {
		t.Error("a world no larger than the last did not reuse its memory")
	}
	// Outgrowing it: the oversized request is served beside the slab, small
	// ones keep filling it, and the next world gets room for both.
	carve(2 * demand)
	small := carve(16)
	if !overlaps(small, sl.whole()) || sl.extra != 2*demand {
		t.Errorf("after an oversized request: extra = %d, small request inside the slab = %v", sl.extra, overlaps(small, sl.whole()))
	}
	sl.rewind()
	if cap(sl.free) != 3*demand {
		t.Errorf("slab holds %d entries after a world that took %d beyond its %d", cap(sl.free), 2*demand, demand)
	}
}

// TestSlabNew: handles come off the same slab as the slices around them.
// A first world allocates each one plainly; after Release the next world
// is handed the same number of them from the chunk, distinct, zeroed and
// without allocating, and the ones the last world held read as zero.
func TestSlabNew(t *testing.T) {
	type handle struct {
		owner *Sim
		id    int
	}
	DropRetired()
	s := New(1)
	sl := SlabOf[handle](s)
	const n = 5
	var first [n]*handle
	for i := range first {
		first[i] = sl.New()
		*first[i] = handle{s, i + 1}
	}
	ring := sl.Make(4)
	if cap(sl.free) != 0 || sl.extra != n+len(ring) {
		t.Fatalf("cold slab: chunk of %d, %d taken; want 0 and %d", cap(sl.free), sl.extra, n+len(ring))
	}
	s.Release()

	s = New(2)
	defer s.Release()
	var second [n]*handle
	if allocs := testing.AllocsPerRun(1, func() {
		sl.rewind()
		for i := range second {
			second[i] = sl.New()
		}
		ring = sl.Make(4)
	}); allocs != 0 {
		t.Errorf("handles from a rewound slab allocated %v objects", allocs)
	}
	for i, h := range second {
		if *h != (handle{}) {
			t.Fatalf("handle %d handed out dirty: %+v", i, *h)
		}
		if !overlaps(unsafe.Slice(h, 1), sl.whole()) {
			t.Fatalf("handle %d is not part of the chunk", i)
		}
		if overlaps(unsafe.Slice(h, 1), ring) {
			t.Fatalf("handle %d overlaps a slice of the same world", i)
		}
		for _, other := range second[:i] {
			if other == h {
				t.Fatalf("handle %d handed out twice", i)
			}
		}
		h.owner, h.id = s, i+1
	}
	sl.rewind()
	for i, h := range second {
		if *h != (handle{}) {
			t.Errorf("handle %d survived the rewind: %+v", i, *h)
		}
	}
	// The first world's were plain allocations: nothing recalls them, they
	// just stop being anybody's.
	if first[0].id != 1 {
		t.Error("a cold world's handle was touched by a later rewind")
	}
}
