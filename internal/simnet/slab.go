package simnet

// Slab is the memory of what one Sim makes of T and keeps until the
// world ends: the grow-by-doubling rings and lists a connection or a
// link owns privately (Make, Grow), and the connection handles
// themselves (New). Nothing is ever given back singly — a ring that
// outgrows its slice takes a larger one and abandons the old one where
// it lies — because everything carved has the lifetime of the world:
// Release rewinds the whole slab at once and parks it with the arena, so
// the next world built from that arena carves the same memory again and
// allocates nothing.
//
// A slice from Make must therefore stay inside the world: in unexported
// fields of objects the world owns, never returned to a caller that
// could hold it across Release. A handle from New does reach callers —
// Dial returns one — and the same rule binds them: it is dead at
// Release, when it reads as zero until the next world carves it
// (multinetlint's poolown rule enforces all three).
type Slab[T any] struct {
	// free is what is left of the chunk the arena brought along. Pieces
	// come off its end, so its start — and through its capacity the whole
	// chunk, for rewind — stays in this one header, which is all a world
	// built from nothing pays per element type. extra counts what this
	// world asked for beyond the chunk.
	free  []T //multinet:owns — the slab's backing store, lent out piece by piece until Release
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
	if k := len(s.free) - n; k >= 0 {
		piece := s.free[k:len(s.free):len(s.free)]
		s.free = s.free[:k]
		return piece
	}
	s.extra += n
	return make([]T, n)
}

// New returns one zeroed T: a connection handle, say, which lives as
// long as its world and is dead at Release like everything else carved
// here. A world nothing preceded pays one plain allocation for it.
func (s *Slab[T]) New() *T {
	if k := len(s.free) - 1; k >= 0 {
		p := &s.free[k]
		s.free = s.free[:k]
		return p
	}
	s.extra++
	return new(T)
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

// whole returns the chunk, carved and free parts alike.
func (s *Slab[T]) whole() []T { return s.free[:cap(s.free)] }

// rewind takes back everything carved and zeroes it, so that the parked
// slab pins nothing of the world that ended and Make has no clearing to
// do. A world that outgrew the slab leaves it as large as everything it
// asked for: the next world of that size carves it from end to end and
// allocates nothing.
func (s *Slab[T]) rewind() {
	chunk := s.whole()
	if s.extra > 0 {
		chunk = make([]T, len(chunk)+s.extra)
	} else {
		clear(chunk[len(s.free):])
	}
	s.free, s.extra = chunk, 0
}

// SlabOf returns s's slab of T, the same one on every call. Callers look
// it up when they are built, or when they grow — not per packet.
func SlabOf[T any](s *Sim) *Slab[T] { return partOf[Slab[T]](s) }
