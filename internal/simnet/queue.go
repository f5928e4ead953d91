package simnet

import "time"

// The timer queue is an indexed binary min-heap of by-value entries
// ordered by (at, seq). Packets in flight are not on it: they wait on
// their links' lanes (lane.go), and Run merges the heap's root with the
// front lane's head. What is left is a handful of timers per world — on
// a report -quick pass 82 % of schedules find 2–7 pending, and no heap
// holds more than 89 — so a sift is a few compares (DESIGN.md "The
// timer queue").
//
// Every pending event knows its slot (event.pos), so Timer.Stop takes
// it out where it sits and recycles it on the spot: a cancelled timer
// leaves nothing behind.
//
// An entry keeps the key it was filed under. RearmArg pushes a pending
// event's deadline out by rewriting the event alone (the per-ACK
// retransmission-timer pattern), so an entry's key may be earlier than
// its event's: stale, never late. Filed keys still order the heap, so
// the root's is a lower bound on every pending deadline, and due re-keys
// a stale root and sifts it down only when that bound would decide what
// fires next. The key holds seq as well as at: a re-arm to the same
// instant takes a new seq, and the filed one would fire it too early.

// entry is one heap slot: the key its event was filed under, and the
// event.
type entry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// heapCap is the heap's built-in capacity (arena.heapBuf): room for the
// timers of every world TestColdWorldBytes builds — a one-transfer
// session holds at most 8, the replay-shaped world, a dozen MPTCP
// connections side by side, 45 — so that a world built from nothing
// does not grow it. A larger world grows its arena's heap once.
const heapCap = 64

func (e *entry) before(f *entry) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// push files a pending event under its current key.
//
//multinet:hotpath
func (a *arena) push(ev *event) {
	a.heap = append(a.heap, entry{at: ev.at, seq: ev.seq, ev: ev}) //lint:allow hotpath heap capacity is amortised across the worlds an arena serves
	a.up(len(a.heap) - 1)
}

// remove takes the entry at slot i out of the heap.
//
//multinet:hotpath
func (a *arena) remove(i int) {
	n := len(a.heap) - 1
	a.heap[i] = a.heap[n]
	a.heap[n] = entry{}
	a.heap = a.heap[:n]
	if i < n {
		a.up(a.down(i))
	}
}

// up moves the entry at slot i towards the root until its parent comes
// first.
func (a *arena) up(i int) {
	h := a.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.pos = i
		i = p
	}
	h[i] = e
	e.ev.pos = i
}

// down moves the entry at slot i towards the leaves until both children
// come after it, and returns the slot it lands in.
func (a *arena) down(i int) int {
	h := a.heap
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		h[i].ev.pos = i
		i = c
	}
	h[i] = e
	e.ev.pos = i
	return i
}

// due returns the earliest pending timer if it comes before the lane
// head l (nil: no lane has one) and not after until (negative: no
// bound), and nil otherwise; the timer stays at the root. A stale root
// is re-keyed and sifted down only while its filed key would come first:
// a filed key that loses to l or passes until already says no timer
// can win.
//
//multinet:hotpath
func (a *arena) due(l *Lane, until time.Duration) *event {
	for len(a.heap) > 0 {
		e := &a.heap[0]
		if (l != nil && !(e.at < l.at || (e.at == l.at && e.seq < l.seq))) || (until >= 0 && e.at > until) {
			return nil
		}
		ev := e.ev
		if e.seq == ev.seq {
			return ev
		}
		e.at, e.seq = ev.at, ev.seq
		a.down(0)
	}
	return nil
}

// dropPending recycles every pending timer unfired and empties the heap.
func (a *arena) dropPending() {
	for _, e := range a.heap {
		a.recycle(e.ev)
	}
	clear(a.heap)
	a.heap = a.heap[:0]
}
