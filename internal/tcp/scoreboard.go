package tcp

import (
	"fmt"
	"iter"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// sbEntry tracks one unacknowledged segment in the SACK scoreboard. It
// holds only what a retransmission cannot recompute: the wire segment
// is rebuilt from the entry plus the connection's flow, receive point
// and SYN option (see Conn.retransmit), so an entry costs 40 bytes with
// no pointer. The
// DSS is the one the segment was first sent with (present when flags
// has FlagDSS): every copy carries the same mapping and DATA_ACK.
type sbEntry struct {
	seq     uint64
	sentAt  time.Duration
	dss     netem.DSS
	payload int32
	flags   netem.Flags
	rtxed   bool // retransmitted at least once (Karn's algorithm)
	sacked  bool // covered by a SACK block
	lost    bool // declared lost (RFC 6675 rule or RTO)
}

// seqEnd returns the sequence number after the entry, counting SYN and
// FIN as one unit each (netem.Segment.SeqEnd for the tracked segment).
func (e *sbEntry) seqEnd() uint64 {
	end := e.seq + uint64(e.payload)
	if e.flags&(netem.FlagSYN|netem.FlagFIN) != 0 {
		end++
	}
	return end
}

// inPipe is the entry's RFC 6675 pipe contribution: SACKed bytes have
// left the network, and lost bytes count only once their retransmission
// is outstanding. Conn.pipeBytes is the sum of inPipe over the ring;
// every site that flips rtxed, sacked or lost adjusts it by the entry's
// before/after delta.
func (e *sbEntry) inPipe() int {
	if e.sacked || (e.lost && !e.rtxed) {
		return 0
	}
	return int(e.payload)
}

// pendingLoss reports whether the entry is in the set nextLost scans
// for: lost, unsacked and not yet retransmitted.
func (e *sbEntry) pendingLoss() bool { return e.lost && !e.rtxed && !e.sacked }

// scoreboard is the retransmission queue: a power-of-two ring of
// entries in sequence order. A cumulative ACK pops from the head by
// advancing an index — no copy-down, no re-slicing (a slice-header
// store is a GC write barrier per ACK) — so the clean-path cost of an
// ACK does not depend on the flight size, and capacity never exceeds
// twice the largest window seen. The array is a piece of the Sim's slab
// (simnet.Slab): an outgrown one is left there until the world ends.
type scoreboard struct {
	buf  []sbEntry // len is zero or a power of two
	head int
	n    int
}

// at returns the i-th oldest entry (0 <= i < n). The pointer is valid
// until the next push.
func (s *scoreboard) at(i int) *sbEntry { return &s.buf[(s.head+i)&(len(s.buf)-1)] }

// push appends an entry at the tail, doubling the ring — on sim's slab,
// looked up only then — when full.
func (s *scoreboard) push(sim *simnet.Sim, e sbEntry) {
	if s.n == len(s.buf) {
		s.grow(simnet.SlabOf[sbEntry](sim))
	}
	s.buf[(s.head+s.n)&(len(s.buf)-1)] = e
	s.n++
}

// grow doubles the ring, unwrapping the live entries to the front.
func (s *scoreboard) grow(mem *simnet.Slab[sbEntry]) {
	size := 2 * len(s.buf)
	if size == 0 {
		size = 16
	}
	buf := mem.Make(size)
	k := copy(buf, s.buf[s.head:])
	copy(buf[k:], s.buf[:s.head])
	s.buf, s.head = buf, 0
}

// popFront drops the oldest entry.
func (s *scoreboard) popFront() {
	s.head = (s.head + 1) & (len(s.buf) - 1)
	s.n--
}

// Mappings yields the DSS and payload length of every unacknowledged
// segment that carries one, oldest first: SACKed and lost segments
// included, SYN, FIN and plain-TCP segments skipped. It is the record of
// what an MPTCP subflow has in flight; the scoreboard must not change
// while it is being iterated.
func (c *Conn) Mappings() iter.Seq2[netem.DSS, int] {
	return func(yield func(netem.DSS, int) bool) {
		for i := 0; i < c.sb.n; i++ {
			if e := c.sb.at(i); e.flags.Has(netem.FlagDSS) && !yield(e.dss, int(e.payload)) {
				return
			}
		}
	}
}

// AuditScoreboard recomputes the incrementally maintained sender
// accounting — the RFC 6675 pipe and the pending-loss count — from a
// full scan of the scoreboard and returns an error describing any
// disagreement. It is O(window) and meant for invariant checkers at event boundaries, not
// for the data path.
func (c *Conn) AuditScoreboard() error {
	pipe, lost := 0, 0
	for i := 0; i < c.sb.n; i++ {
		e := c.sb.at(i)
		pipe += e.inPipe()
		if e.pendingLoss() {
			lost++
		}
	}
	if pipe != c.pipeBytes || lost != c.lostPending {
		return fmt.Errorf("%s: incremental pipe=%d lostPending=%d, scan pipe=%d lostPending=%d",
			c.flow, c.pipeBytes, c.lostPending, pipe, lost)
	}
	return nil
}
