package mptcp

import (
	"testing"

	"multinet/internal/simnet"
)

// testSim is the Sim whose slab the queues of these tests grow on.
var testSim = simnet.New(1)

// mapqOf builds a queue holding ms in order.
func mapqOf(ms ...mapping) mapq {
	var q mapq
	for _, m := range ms {
		q.push(testSim, m)
	}
	return q
}

// slice returns the queue's records, oldest first (nil when empty).
func (q *mapq) slice() []mapping { return q.appendTo(nil) }

// TestMapqRing pins the ring mechanics: growth while wrapped keeps
// order, draining to empty and refilling reuses the array, takeFront
// splits the head in place, and pruneAcked stops at the first live
// record.
func TestMapqRing(t *testing.T) {
	var q mapq
	seq := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(testSim, mapping{seq, 10})
			seq += 10
		}
	}
	push(16)
	for i := 0; i < 10; i++ {
		q.popFront()
	}
	push(10) // wraps: head at 10, 16 live
	if len(q.buf) != 16 || q.head != 10 {
		t.Fatalf("ring = cap %d head %d, want cap 16 head 10", len(q.buf), q.head)
	}
	push(1) // grows while wrapped
	if len(q.buf) != 32 || q.head != 0 || q.len() != 17 {
		t.Fatalf("after growth: cap %d head %d len %d, want 32/0/17", len(q.buf), q.head, q.len())
	}
	for i, m := range q.slice() {
		if want := uint64(100 + 10*i); m.dataSeq != want {
			t.Fatalf("record %d starts at %d, want %d", i, m.dataSeq, want)
		}
	}

	if m := q.takeFront(4); m != (mapping{100, 4}) || *q.at(0) != (mapping{104, 6}) {
		t.Fatalf("takeFront split = %v, head now %v", m, *q.at(0))
	}
	if m := q.takeFront(100); m != (mapping{104, 6}) || q.len() != 16 {
		t.Fatalf("takeFront whole = %v, len %d", m, q.len())
	}
	q.pruneAcked(135) // records end at 120, 130, 140...: two go
	if q.len() != 14 || q.at(0).dataSeq != 130 {
		t.Fatalf("pruneAcked left len %d head %v", q.len(), *q.at(0))
	}
	for q.len() > 0 {
		q.popFront()
	}
	buf := &q.buf[0]
	push(32)
	if &q.buf[0] != buf || len(q.buf) != 32 {
		t.Fatal("refilling a drained queue must reuse its array")
	}
}
