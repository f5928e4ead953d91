// Package tcp implements a userspace TCP over the netem substrate: the
// three-way handshake, cumulative ACKs with out-of-order reassembly,
// NewReno congestion control (slow start, congestion avoidance, fast
// retransmit/recovery), RFC 6298 retransmission timeouts with Karn's
// algorithm, and FIN teardown.
//
// It stands in for the Linux 3.11 kernel TCP used in the paper. The
// parts of TCP that the paper's findings depend on — handshake latency,
// slow-start dominance of short flows, loss recovery, and steady-state
// Reno behaviour — are implemented per-segment. Parts that do not
// affect the reproduced results are deliberately simplified and noted
// where they occur: there is no delayed ACK (ACK-every-segment keeps
// runs deterministic), no SACK (NewReno recovery only), no Nagle, and
// receive windows are large and fixed (flow control is exercised at the
// MPTCP connection level where the paper's effects live).
//
// The package exposes three extension points used by package mptcp:
// a Source that supplies per-segment payload and options (DSS
// mappings), an IncreaseFn that replaces the congestion-avoidance
// increase (coupled LIA), and segment/ACK callbacks for connection-level
// bookkeeping.
package tcp

import (
	"fmt"
	"strings"
	"sync/atomic"

	"multinet/internal/simnet"
)

const (
	// MSS is the maximum segment payload in bytes. With 40 bytes of
	// IP+TCP header this fills a 1500-byte MTU.
	MSS = 1460
	// HeaderSize is the IP+TCP header overhead per segment in bytes.
	HeaderSize = 40
	// OptionSize is the extra wire overhead carried by segments with a
	// non-nil Opt (MPTCP DSS and friends average ~20 bytes).
	OptionSize = 20
)

// Flags is the TCP flag set carried by a Segment.
type Flags uint8

// Flag values.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
)

// Has reports whether all flags in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders flags tcpdump-style, e.g. "S", "S.", "F.", ".".
func (f Flags) String() string {
	var b strings.Builder
	if f.Has(FlagSYN) {
		b.WriteByte('S')
	}
	if f.Has(FlagFIN) {
		b.WriteByte('F')
	}
	if f.Has(FlagACK) {
		b.WriteByte('.')
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// Segment is one TCP segment. Sequence numbers are byte offsets from 0
// (64-bit, so wraparound never occurs in simulation). Payload bytes are
// represented by count only — the simulator never materialises data.
//
// Segments travelling the wire are recycled through their Sim's free
// list (see NewSegment/Recycle): the sending Conn takes one per
// transmission, ownership moves with the packet, and exactly one sink
// recycles it — the receiving tcp.Stack after processing, or netem on
// its drop paths (Segment implements netem.Recyclable). Senders keep
// retransmission state as value copies, never references to wire
// segments.
type Segment struct {
	// Flow identifies the connection (and, under MPTCP, the subflow).
	// It plays the role of the 4-tuple.
	Flow string
	// Flags carries SYN/ACK/FIN.
	Flags Flags
	// Seq is the sequence number of the first payload byte (or of the
	// SYN/FIN when those flags are set and PayloadLen is 0).
	Seq uint64
	// Ack is the cumulative acknowledgement (valid when FlagACK).
	Ack uint64
	// PayloadLen is the number of payload bytes.
	PayloadLen int
	// Wnd is the advertised receive window in bytes.
	Wnd int
	// Sack carries selective-acknowledgement blocks: the receiver's
	// out-of-order intervals (up to MaxSackBlocks).
	Sack []SackBlock
	// Opt carries transport options (MPTCP DSS etc.); nil for plain TCP.
	Opt any

	// home is the free list the segment was taken from and Recycle
	// returns it to; nil for a segment built as a literal.
	home *simnet.FreeList[Segment]
}

// SackBlock is one selective-acknowledgement interval [Lo, Hi).
type SackBlock struct{ Lo, Hi uint64 }

// leakTrack gates live-segment accounting, mirroring netem's packet
// tracking: one predictable branch on the recycling hot path, switched on
// only by tests running the faults invariant checker.
var leakTrack atomic.Bool

var liveSegments atomic.Int64

// SetLeakTracking enables or disables live-segment accounting and
// resets the counter (enable before building the simulation under test).
func SetLeakTracking(on bool) {
	leakTrack.Store(on)
	liveSegments.Store(0)
}

// LiveSegments returns allocations minus recycles since
// SetLeakTracking(true); zero at quiescence means no recycled-segment
// leak and no double recycle.
func LiveSegments() int64 { return liveSegments.Load() }

// NewSegment returns a zeroed segment from sim's free list. Its Sack
// slice may retain capacity from an earlier life; append to Sack[:0] to
// reuse it.
func NewSegment(sim *simnet.Sim) *Segment {
	return takeSegment(simnet.FreeListOf[Segment](sim))
}

// takeSegment is NewSegment for a caller that has looked the list up.
func takeSegment(l *simnet.FreeList[Segment]) *Segment {
	if leakTrack.Load() {
		liveSegments.Add(1)
	}
	s := l.Get()
	s.home = l
	return s
}

// RecyclableOpt is implemented by segment options that are recycled.
// Whoever stores a reference to an option holds it, and drops the hold
// with RecycleOpt exactly once: a wire segment at its recycle sink, a
// scoreboard entry when it is popped. The option may reuse itself when
// its last holder has let go, and not before.
type RecyclableOpt interface{ RecycleOpt() }

// SharedOpt is a RecyclableOpt that can have several holders at once.
// Source.Next hands one over with a single hold, for the wire segment
// it rides; this package takes another for the scoreboard entry
// (track) and one for every retransmitted copy (retransmit). Nothing
// else may touch the count.
type SharedOpt interface {
	RecyclableOpt
	// RetainOpt adds a holder.
	RetainOpt()
	// AbandonOpt is called for the options of a scoreboard that will
	// never be acknowledged (Conn.Abort): entries and copies in flight
	// may still read the option, but not every hold will be dropped, so
	// it must leave recycling and go to the garbage collector instead.
	AbandonOpt()
}

// Recycle resets the segment (keeping its Sack capacity) and returns it
// to its free list. It implements netem.Recyclable, so packets dropped
// inside the network give their segments back too. The caller must not
// touch the segment afterwards.
func (s *Segment) Recycle() {
	if leakTrack.Load() {
		liveSegments.Add(-1)
	}
	if r, ok := s.Opt.(RecyclableOpt); ok {
		r.RecycleOpt()
	}
	home := s.home
	*s = Segment{Sack: s.Sack[:0]}
	if home != nil {
		home.Put(s)
	}
}

// MaxSackBlocks is the maximum number of SACK blocks carried per
// segment, as in real TCP option space.
const MaxSackBlocks = 4

// SeqEnd returns the sequence number after this segment, counting SYN
// and FIN as one unit each.
func (s *Segment) SeqEnd() uint64 {
	end := s.Seq + uint64(s.PayloadLen)
	if s.Flags.Has(FlagSYN) || s.Flags.Has(FlagFIN) {
		end++
	}
	return end
}

// WireSize returns the on-the-wire size in bytes.
func (s *Segment) WireSize() int {
	sz := HeaderSize + s.PayloadLen
	if s.Opt != nil {
		sz += OptionSize
	}
	if n := len(s.Sack); n > 0 {
		sz += 2 + 8*n
	}
	return sz
}

// String renders the segment for captures and debugging.
func (s *Segment) String() string {
	opt := ""
	if s.Opt != nil {
		opt = fmt.Sprintf(" opt=%v", s.Opt)
	}
	return fmt.Sprintf("%s [%s] seq=%d ack=%d len=%d%s",
		s.Flow, s.Flags, s.Seq, s.Ack, s.PayloadLen, opt)
}
