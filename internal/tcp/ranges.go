package tcp

import "multinet/internal/simnet"

// Range is the half-open span [Lo, Hi) of a sequence space.
type Range struct{ Lo, Hi uint64 }

// Ranges is the out-of-order half of a reassembly queue: what a receiver
// holds above its in-order point, as sorted, disjoint ranges with a gap
// between any two (ranges that touch are one range). A Conn reassembles
// its byte stream with one, and an MPTCP connection its data-sequence
// space. It grows on the Sim's slab, and its zero value is empty.
//
// Arrivals are nearly always at the top: over the full report sweep, 99.5 %
// of a TCP receiver's out-of-order arrivals and 90.8 % of an MPTCP one's
// land after the last range, and the largest sets held are 32 and 56
// ranges. So Add looks for an arrival's place from the top down and
// touches only the ranges it lands among.
type Ranges struct {
	r []Range // a piece of the Sim's slab
}

// Add records the arrival of [lo, hi), lo < hi, at a receiver whose
// in-order point is next, and returns the new in-order point. An arrival
// below next changes nothing; one that reaches next takes the in-order
// point to its end and on through every range that then touches it; one
// above next joins the set.
func (s *Ranges) Add(sim *simnet.Sim, next, lo, hi uint64) uint64 {
	switch {
	case hi <= next:
		return next
	case lo <= next:
		next = hi
		k := 0
		for k < len(s.r) && s.r[k].Lo <= next {
			next = max(next, s.r[k].Hi)
			k++
		}
		if k > 0 {
			// Copy down instead of re-slicing so the backing array keeps
			// its capacity for the next burst of reordering.
			s.r = s.r[:copy(s.r, s.r[k:])]
		}
		return next
	}
	s.insert(sim, Range{lo, hi})
	return next
}

// insert adds a to the set: it extends the range below it if they touch,
// or takes a place of its own, and either way absorbs every range above
// that it reaches.
func (s *Ranges) insert(sim *simnet.Sim, a Range) {
	r := s.r
	i := len(r) // a's place: after every range starting at or below a.Lo
	for i > 0 && r[i-1].Lo > a.Lo {
		i--
	}
	if i > 0 && a.Lo <= r[i-1].Hi {
		i-- // a extends the range below it
		a.Lo = r[i].Lo
		a.Hi = max(a.Hi, r[i].Hi)
	}
	j := i // r[i:j] are the ranges a covers or touches
	for j < len(r) && r[j].Lo <= a.Hi {
		a.Hi = max(a.Hi, r[j].Hi)
		j++
	}
	if j > i {
		r[i] = a
		s.r = append(r[:i+1], r[j:]...)
		return
	}
	if len(r) == cap(r) {
		r = simnet.SlabOf[Range](sim).Grow(r, len(r)+1)
	}
	r = append(r, Range{})
	copy(r[i+1:], r[i:])
	r[i] = a
	s.r = r
}
