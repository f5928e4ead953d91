package simnet

import (
	"math"
	"time"
)

// A Lane is a FIFO of pending arrivals that its owner keeps itself — a
// netem link holds each packet it admits on its own service ring until
// the packet arrives — and that Run merges with the heap of timers in
// the one (at, seq) order. Entries join a lane's tail at non-decreasing
// instants, so its head is its earliest: the lane caches the head's
// key, and the arena caches which lane's head comes first.
//
// An entry is counted by Pending from Push until it fires or is
// truncated, and its firing counts in Processed, stops at RunUntil's
// bound and honours Stop exactly as an event's does: a run cannot tell
// an arrival from a timer.
type Lane struct {
	at    time.Duration // the head's instant; noTime when the lane is empty
	seq   uint64
	n     int // entries pushed and neither fired nor truncated
	owner LaneOwner
}

// A LaneOwner keeps a Lane's entries. Run calls Fire when the lane's
// head is the earliest pending work; the owner then drops the head and,
// if an entry is left, names it with Lane.Advance before it does
// anything else. Sim.Release calls Drop when the world ends with entries
// still on the lane, before the slabs and free lists rewind: the owner
// lets go of them unfired (a netem link hands its packets back to their
// free list). The Sim is released by then, so Drop must not call it.
type LaneOwner interface {
	Fire()
	Drop()
}

// noTime is the instant of an empty lane's head: later than any entry.
const noTime = time.Duration(math.MaxInt64)

// AddLane registers l, kept by owner, with s. A world's lanes are
// released with it.
func (s *Sim) AddLane(l *Lane, owner LaneOwner) {
	a := s.mem()
	*l = Lane{at: noTime, owner: owner}
	a.lanes = append(a.lanes, l)
}

// Push stamps an entry joining l's tail at instant at, which must not
// be earlier than now or than l's previous entry, and returns the
// entry's place in the (at, seq) order: its owner keeps it alongside
// the entry to name the head with later.
//
//multinet:hotpath
func (s *Sim) Push(l *Lane, at time.Duration) uint64 {
	a := s.mem()
	seq := a.seq
	a.seq++
	s.live++
	l.n++
	if l.n == 1 {
		l.at, l.seq = at, seq
		if !a.stale && (a.front == nil || laneBefore(l, a.front)) {
			a.front = l
		}
	}
	return seq
}

// Advance names l's new head, (at, seq), from inside its owner's Fire:
// Run looks for the earliest head again after every firing.
func (l *Lane) Advance(at time.Duration, seq uint64) { l.at, l.seq = at, seq }

// Truncate drops l's k newest entries unfired: they leave Pending
// without counting in Processed, as a stopped timer does. To move
// entries within the lane (re-stamp them), truncate them and push them
// again in order.
func (s *Sim) Truncate(l *Lane, k int) {
	a := s.mem()
	l.n -= k
	s.live -= k
	if l.n == 0 {
		l.at = noTime
		if a.front == l {
			a.stale = true
		}
	}
}

// earliestLane returns the lane whose head comes first, or nil when
// every lane is empty.
//
//multinet:hotpath
func (a *arena) earliestLane() *Lane {
	var first *Lane
	for _, l := range a.lanes {
		if l.at != noTime && (first == nil || laneBefore(l, first)) {
			first = l
		}
	}
	return first
}

func laneBefore(l, m *Lane) bool {
	return l.at < m.at || (l.at == m.at && l.seq < m.seq)
}
