package simnet

// Slab is the memory of one Sim's grow-by-doubling buffers of T: the
// rings and lists a connection or a link owns privately and never hands
// to anyone else. Make carves a zeroed slice off it. Nothing is ever
// given back singly — a ring that outgrows its slice takes a larger one
// and abandons the old one where it lies — because everything carved
// has the lifetime of the world: Release rewinds the whole slab at once
// and parks it with the arena, so the next world built from that arena
// carves the same memory again and allocates nothing.
//
// A slice from Make must therefore stay inside the world: in unexported
// fields of objects the world owns, never returned to a caller that
// could hold it across Release (multinetlint's poolown rule enforces
// both).
type Slab[T any] struct {
	// chunk, carved up to used, is what the arena brought along; extra
	// counts what this world asked for beyond it.
	chunk []T //multinet:owns — the slab's backing store, lent out slice by slice until Release
	used  int
	extra int
}

// Make returns a zeroed slice of length and capacity n.
//
// A request the slab has no room for is simply allocated, and remembered
// by its size only. So a world that was never preceded by another — a
// transfer whose Sim nobody releases only ever sees an empty slab — pays
// exactly what make would have charged it, zeroes no memory it will not
// use and keeps no list of what it took.
func (s *Slab[T]) Make(n int) []T {
	if n <= len(s.chunk)-s.used {
		s.used += n
		return s.chunk[s.used-n : s.used : s.used]
	}
	s.extra += n
	return make([]T, n)
}

// Grow returns buf with capacity for at least n elements: buf itself if
// it has it, otherwise its contents on a new piece of the slab of at
// least twice the capacity.
func (s *Slab[T]) Grow(buf []T, n int) []T {
	if n <= cap(buf) {
		return buf
	}
	grown := s.Make(max(n, 2*cap(buf)))
	return grown[:copy(grown, buf)]
}

// rewind takes back everything carved and zeroes it, so that the parked
// slab pins nothing of the world that ended and Make has no clearing to
// do. A world that outgrew the slab leaves it as large as everything it
// asked for: the next world of that size carves it from end to end and
// allocates nothing.
func (s *Slab[T]) rewind() {
	if s.extra > 0 {
		s.chunk = make([]T, len(s.chunk)+s.extra)
	} else {
		clear(s.chunk[:s.used])
	}
	s.used, s.extra = 0, 0
}

// SlabOf returns s's slab of T, the same one on every call. Callers look
// it up when they are built, or when they grow — not per packet.
func SlabOf[T any](s *Sim) *Slab[T] { return partOf[Slab[T]](s) }
