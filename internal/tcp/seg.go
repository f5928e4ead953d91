// Package tcp implements a userspace TCP over the netem substrate: the
// three-way handshake, cumulative ACKs with out-of-order reassembly,
// Reno congestion control (slow start, congestion avoidance), SACK-based
// loss recovery (RFC 6675: a scoreboard, the pipe estimate, fast
// retransmit on three duplicate ACKs or 3·MSS of SACKed data above a
// hole), a tail loss probe, RFC 6298 retransmission timeouts with Karn's
// algorithm, and FIN teardown.
//
// It stands in for the Linux 3.11 kernel TCP used in the paper. The
// parts of TCP that the paper's findings depend on — handshake latency,
// slow-start dominance of short flows, loss recovery, and steady-state
// Reno behaviour — are implemented per-segment. Parts that do not
// affect the reproduced results are deliberately simplified and noted
// where they occur: there is no delayed ACK (ACK-every-segment keeps
// runs deterministic), no Nagle, and receive windows are large and
// fixed (flow control is exercised at the MPTCP connection level where
// the paper's effects live).
//
// The package exposes three extension points used by package mptcp:
// a Source that supplies per-segment payload and its DSS mapping, an
// IncreaseFn that replaces the congestion-avoidance increase (coupled
// LIA), and segment/ACK callbacks for connection-level bookkeeping.
package tcp

import (
	"fmt"
	"strings"

	"multinet/internal/simnet"
)

const (
	// MSS is the maximum segment payload in bytes. With 40 bytes of
	// IP+TCP header this fills a 1500-byte MTU.
	MSS = 1460
	// HeaderSize is the IP+TCP header overhead per segment in bytes.
	HeaderSize = 40
	// OptionSize is the extra wire overhead carried by segments with a
	// DSS or a non-nil Opt (MPTCP options average ~20 bytes).
	OptionSize = 20
)

// Flags is the TCP flag set carried by a Segment.
type Flags uint8

// Flag values.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	// FlagDSS marks a segment (and a scoreboard entry) that carries a
	// DSS. It is not a TCP flag, and String does not print it.
	FlagDSS
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
	// Flow names the connection (and, under MPTCP, the subflow). A
	// receiving Stack demuxes by it only when DstPort does not name a live
	// connection: a SYN, and a segment of a forgotten incarnation.
	Flow string
	// Flags carries SYN/ACK/FIN, and FlagDSS.
	Flags Flags
	// SrcPort is the sender's handle in its own Stack, and DstPort the
	// receiver's handle in the receiving one, as the sender last learnt it
	// from the receiver's SrcPort (0: not known yet). They play the role
	// of the 4-tuple's ports; see Stack.
	SrcPort, DstPort uint32
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
	// DSS is the segment's data-sequence mapping, valid when FlagDSS is
	// set.
	DSS DSS
	// Opt carries a SYN's option (MPTCP's MP_CAPABLE or MP_JOIN); nil
	// for plain TCP.
	Opt any

	// home is the free list the segment was taken from and Recycle
	// returns it to; nil for a segment built as a literal.
	home *simnet.FreeList[Segment]
}

// SackBlock is one selective-acknowledgement interval [Lo, Hi).
type SackBlock struct{ Lo, Hi uint64 }

// DSS is MPTCP's Data Sequence Signal (RFC 8684 §3.3), the one option a
// data-path segment carries: this package copies it by value, into the
// segment and its scoreboard entry, and package mptcp interprets it. It
// maps the segment's payload, PayloadLen bytes long, to the
// connection-level sequence space from DataSeq on, and carries the
// sender's cumulative connection-level acknowledgement.
type DSS struct{ DataSeq, DataAck uint64 }

// NewSegment returns a zeroed segment from sim's free list. Its Sack
// slice may retain capacity from an earlier life; append to Sack[:0] to
// reuse it.
//
//lint:allow unusedapi poolown's golden package and faults' TestLeakCountIsPerWorld
func NewSegment(sim *simnet.Sim) *Segment {
	return takeSegment(simnet.FreeListOf[Segment](sim))
}

// takeSegment is NewSegment for a caller that has looked the list up.
func takeSegment(l *simnet.FreeList[Segment]) *Segment {
	s := l.Get()
	s.home = l
	return s
}

// Recycle resets the segment (keeping its Sack capacity) and returns it
// to its free list. It implements netem.Recyclable, so packets dropped
// inside the network give their segments back too. The caller must not
// touch the segment afterwards.
func (s *Segment) Recycle() {
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
	if s.Opt != nil || s.Flags.Has(FlagDSS) {
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
	switch {
	case s.Flags.Has(FlagDSS):
		opt = fmt.Sprintf(" opt=DSS(seq=%d,ack=%d)", s.DSS.DataSeq, s.DSS.DataAck)
	case s.Opt != nil:
		opt = fmt.Sprintf(" opt=%v", s.Opt)
	}
	return fmt.Sprintf("%s [%s] seq=%d ack=%d len=%d%s",
		s.Flow, s.Flags, s.Seq, s.Ack, s.PayloadLen, opt)
}
