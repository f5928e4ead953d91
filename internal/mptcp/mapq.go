package mptcp

import "multinet/internal/simnet"

// mapq is a FIFO of mappings on a power-of-two ring: push at the tail,
// pop at the head by advancing an index. Nothing is ever re-sliced from
// the front, so the backing array's capacity is reused for the life of
// the connection instead of leaking one slot per pop. The array is a
// piece of the Sim's slab (simnet.Slab): an outgrown one is left there
// until the world ends. It holds what is waiting to be sent (the
// retransmission pool, a subflow's duplicates), never what is in flight:
// a subflow's scoreboard is that record (tcp.Conn.Mappings).
type mapq struct {
	buf  []mapping // len is zero or a power of two
	head int
	n    int
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
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

// grow doubles the ring, unwrapping the live records to the front. It
// is the single growth site of every mapping queue.
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
}

// reset empties the queue, keeping its capacity.
func (q *mapq) reset() { q.head, q.n = 0, 0 }

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
