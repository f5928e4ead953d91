package mptcp

import (
	"math/rand"
	"reflect"
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

// rebuildAck is the reference for mapq.ack: the range-overlap rebuild
// onMappingAcked ran on every subflow ack before the queue learnt to
// pop an in-order head, kept verbatim as the oracle.
func rebuildAck(outstanding []mapping, ack mapping) []mapping {
	var kept []mapping
	for _, m := range outstanding {
		if m.end() <= ack.dataSeq || m.dataSeq >= ack.end() {
			kept = append(kept, m) // disjoint
			continue
		}
		if m.dataSeq < ack.dataSeq {
			kept = append(kept, mapping{dataSeq: m.dataSeq, len: int(ack.dataSeq - m.dataSeq)})
		}
		if m.end() > ack.end() {
			kept = append(kept, mapping{dataSeq: ack.end(), len: int(m.end() - ack.end())})
		}
	}
	return kept
}

// TestMapqAckMatchesRebuild drives the deque and the reference rebuild
// through the ack shapes a subflow produces and requires identical
// records after every step.
func TestMapqAckMatchesRebuild(t *testing.T) {
	type step struct {
		push []mapping // sent before the ack
		ack  mapping   // zero len: no ack this step
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"exact-head", []step{
			{push: []mapping{{0, 1460}, {1460, 1460}, {2920, 1460}}, ack: mapping{0, 1460}},
			{ack: mapping{1460, 1460}},
			{push: []mapping{{4380, 1460}}, ack: mapping{2920, 1460}},
			{ack: mapping{4380, 1460}},
		}},
		{"mid-record", []step{
			{push: []mapping{{0, 100}, {100, 300}, {500, 100}}, ack: mapping{50, 150}},
			{ack: mapping{250, 50}},
			{ack: mapping{0, 50}},
			{ack: mapping{200, 50}},
			{ack: mapping{300, 100}},
			{ack: mapping{500, 100}},
		}},
		{"split-reinjection", []step{
			// The subflow re-pulls part of a range it already holds.
			{push: []mapping{{0, 3000}, {0, 1000}}, ack: mapping{0, 1000}},
			{push: []mapping{{1000, 1000}}, ack: mapping{1000, 1000}},
			{ack: mapping{2000, 1000}},
		}},
		{"duplicate-on-same-subflow", []step{
			{push: []mapping{{0, 1460}, {1460, 1460}, {0, 1460}}, ack: mapping{0, 1460}},
			{ack: mapping{1460, 1460}},
			{ack: mapping{0, 1460}}, // the duplicate's ack: nothing left to trim
		}},
		{"redundant", []step{
			// Duplicates of another subflow's fresh mappings interleave
			// with this subflow's own, out of data-sequence order.
			{push: []mapping{{2920, 1460}, {0, 1460}, {4380, 1460}, {1460, 1460}}, ack: mapping{2920, 1460}},
			{ack: mapping{0, 1460}},
			{push: []mapping{{5840, 1460}}, ack: mapping{4380, 1460}},
			{ack: mapping{1460, 1460}},
			{ack: mapping{5840, 1460}},
		}},
		{"ack-of-nothing-held", []step{
			{push: []mapping{{0, 100}, {100, 100}}, ack: mapping{500, 100}},
			{ack: mapping{0, 100}},
			{ack: mapping{100, 100}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q, scratch mapq
			var ref []mapping
			for i, st := range tc.steps {
				for _, m := range st.push {
					q.push(testSim, m)
					ref = append(ref, m)
				}
				if st.ack.len > 0 {
					q.ack(testSim, st.ack, &scratch)
					ref = rebuildAck(ref, st.ack)
				}
				if got := q.slice(); !reflect.DeepEqual(got, ref) {
					t.Fatalf("step %d: deque = %v, reference rebuild = %v", i, got, ref)
				}
			}
			if q.len() != 0 {
				t.Fatalf("records left at the end: %v", q.slice())
			}
		})
	}
}

// TestMapqAckRandomised widens the table: random pushes (in-order,
// duplicates and overlapping splits) and random acks, enough of them to
// wrap and grow the ring, with the reference compared after every ack.
func TestMapqAckRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var q, scratch mapq
		var ref []mapping
		next := uint64(0)
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // fresh in-order mapping
				m := mapping{next, 1 + rng.Intn(1460)}
				next = m.end()
				q.push(testSim, m)
				ref = append(ref, m)
			case k < 6 && next > 0: // duplicate or split of an earlier range
				lo := uint64(rng.Int63n(int64(next)))
				m := mapping{lo, 1 + rng.Intn(int(next-lo))}
				q.push(testSim, m)
				ref = append(ref, m)
			case len(ref) > 0: // ack: usually the head, sometimes any range
				ack := ref[0]
				if rng.Intn(4) == 0 {
					lo := uint64(rng.Int63n(int64(next)))
					ack = mapping{lo, 1 + rng.Intn(int(next-lo))}
				}
				q.ack(testSim, ack, &scratch)
				ref = rebuildAck(ref, ack)
			}
			if got := q.slice(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d op %d: deque = %v, reference = %v", trial, op, got, ref)
			}
		}
	}
}

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
	if q.unordered {
		t.Fatal("an in-order queue must stay ordered across growth")
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

	// Orderedness: an overlapping push clears it; it returns once at
	// most one record is left.
	q.push(testSim, mapping{0, 10})
	if !q.unordered {
		t.Fatal("a record below its predecessor's end must mark the queue unordered")
	}
	for q.len() > 1 {
		q.popFront()
	}
	if q.unordered {
		t.Fatal("a single-record queue is ordered")
	}
}
