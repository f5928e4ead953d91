package mptcp

import "multinet/internal/simnet"

// mapq is a FIFO of mappings on a power-of-two ring: push at the tail,
// pop at the head by advancing an index. Nothing is ever re-sliced from
// the front, so the backing array's capacity is reused for the life of
// the subflow instead of leaking one slot per pop. The array is a piece
// of the Sim's slab (simnet.Slab): an outgrown one is left there until
// the world ends.
//
// The queue also knows whether its records are strictly ascending and
// disjoint (each starts at or after the end of the one before). That is
// what makes the in-order subflow ack O(1): in an ordered queue a range
// equal to the head record overlaps nothing else.
type mapq struct {
	buf       []mapping // len is zero or a power of two
	head      int
	n         int
	unordered bool // some record starts before its predecessor's end
}

func (q *mapq) len() int { return q.n }

// at returns the i-th oldest record (0 <= i < n); the pointer is valid
// until the next push.
func (q *mapq) at(i int) *mapping { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// push appends m at the tail, doubling the ring — on sim's slab, looked
// up only then — when full.
//
//multinet:hotpath
func (q *mapq) push(sim *simnet.Sim, m mapping) {
	if q.n == len(q.buf) {
		q.grow(simnet.SlabOf[mapping](sim))
	}
	if q.n > 0 && m.dataSeq < q.at(q.n-1).end() {
		q.unordered = true
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

// grow doubles the ring, unwrapping the live records to the front. It
// is the single growth site of every mapping queue; capacity settles at
// the subflow's window in records.
func (q *mapq) grow(mem *simnet.Slab[mapping]) {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 16
	}
	buf := mem.Make(size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// popFront drops the oldest record.
func (q *mapq) popFront() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n <= 1 {
		q.unordered = false
	}
}

// reset empties the queue, keeping its capacity.
func (q *mapq) reset() { q.head, q.n, q.unordered = 0, 0, false }

// takeFront removes up to max bytes from the head of q, splitting the
// head mapping in place when it exceeds max.
func (q *mapq) takeFront(max int) mapping {
	h := q.at(0)
	m := *h
	if m.len > max {
		h.dataSeq += uint64(max)
		h.len -= max
		m.len = max
	} else {
		q.popFront()
	}
	return m
}

// pruneAcked drops head records that end at or below the data-ACK.
func (q *mapq) pruneAcked(dataUna uint64) {
	for q.n > 0 && q.at(0).end() <= dataUna {
		q.popFront()
	}
}

// appendTo appends the records, oldest first, to dst.
func (q *mapq) appendTo(dst []mapping) []mapping {
	for i := 0; i < q.n; i++ {
		dst = append(dst, *q.at(i))
	}
	return dst
}

// ack removes the byte range r from the queue's records. An ordered
// queue whose head is exactly r — the in-order subflow ack, nearly all
// of them — pops it. Anything else (a split reinjection re-pulled by
// the same subflow, a duplicate, an ack landing mid-record) rebuilds
// into scratch by range overlap: overlapped spans are trimmed, unacked
// remainders kept, and the two queues swap roles (double buffering
// keeps the path allocation-free once both have grown).
func (q *mapq) ack(sim *simnet.Sim, r mapping, scratch *mapq) {
	if q.n == 0 {
		return
	}
	if !q.unordered && *q.at(0) == r {
		q.popFront()
		return
	}
	// A mid-record ack splits one record in two, so filtering in place
	// could overtake the read cursor.
	scratch.reset()
	for i := 0; i < q.n; i++ {
		m := *q.at(i)
		if m.end() <= r.dataSeq || m.dataSeq >= r.end() {
			scratch.push(sim, m) // disjoint
			continue
		}
		if m.dataSeq < r.dataSeq {
			scratch.push(sim, mapping{dataSeq: m.dataSeq, len: int(r.dataSeq - m.dataSeq)})
		}
		if m.end() > r.end() {
			scratch.push(sim, mapping{dataSeq: r.end(), len: int(m.end() - r.end())})
		}
	}
	*q, *scratch = *scratch, *q
}
