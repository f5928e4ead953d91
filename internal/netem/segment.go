package netem

const (
	// HeaderSize is the IP+TCP header overhead per segment in bytes.
	HeaderSize = 40
	// OptionSize is the extra wire overhead carried by segments with a
	// DSS or a non-nil Opt (MPTCP options average ~20 bytes).
	OptionSize = 20
	// MaxSackBlocks is the maximum number of SACK blocks carried per
	// segment, as in real TCP option space.
	MaxSackBlocks = 4
)

// Flags is the TCP flag set carried by a Segment.
type Flags uint8

// Flag values.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	// FlagDSS marks a segment (and a scoreboard entry) that carries a
	// DSS. It is not a TCP flag.
	FlagDSS
)

// Has reports whether all flags in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// Segment is the TCP header a packet carries by value (Packet.Seg).
// Sequence numbers are byte offsets from 0 (64-bit, so wraparound never
// occurs in simulation). Payload bytes are represented by count only —
// the simulator never materialises data.
//
// A sender fills a local Segment and hands its address to Iface.SendUp
// or SendDown, which copy it into the packet; a receiver copies it out
// of the delivered packet. No segment is shared, so none is pooled. The
// fields are ordered largest first, which keeps a Packet at 224 bytes.
type Segment struct {
	// Flow names the connection (and, under MPTCP, the subflow). A
	// receiving tcp.Stack demuxes by it only when DstPort does not name a
	// live connection: a SYN, and a segment of a forgotten incarnation.
	Flow string
	// Opt carries a SYN's option (MPTCP's MP_CAPABLE or MP_JOIN, always a
	// pointer); nil for plain TCP.
	Opt any
	// Sack carries selective-acknowledgement blocks, the receiver's
	// out-of-order intervals: the first NSack of them.
	Sack [MaxSackBlocks]SackBlock
	// DSS is the segment's data-sequence mapping, valid when FlagDSS is
	// set.
	DSS DSS
	// Seq is the sequence number of the first payload byte (or of the
	// SYN/FIN when those flags are set and PayloadLen is 0).
	Seq uint64
	// Ack is the cumulative acknowledgement (valid when FlagACK).
	Ack uint64
	// PayloadLen is the number of payload bytes.
	PayloadLen int32
	// Wnd is the advertised receive window in bytes.
	Wnd int32
	// SrcPort is the sender's handle in its own tcp.Stack, and DstPort the
	// receiver's handle in the receiving one, as the sender last learnt it
	// from the receiver's SrcPort (0: not known yet). They play the role
	// of the 4-tuple's ports; see tcp.Stack.
	SrcPort, DstPort uint32
	// Flags carries SYN/ACK/FIN, and FlagDSS.
	Flags Flags
	// NSack is how many of Sack's blocks are set.
	NSack uint8
}

// SackBlock is one selective-acknowledgement interval [Lo, Hi).
type SackBlock struct{ Lo, Hi uint64 }

// DSS is MPTCP's Data Sequence Signal (RFC 8684 §3.3), the one option a
// data-path segment carries: package tcp copies it by value, into the
// segment and its scoreboard entry, and package mptcp interprets it. It
// maps the segment's payload, PayloadLen bytes long, to the
// connection-level sequence space from DataSeq on, and carries the
// sender's cumulative connection-level acknowledgement.
type DSS struct{ DataSeq, DataAck uint64 }

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
	sz := HeaderSize + int(s.PayloadLen)
	if s.Opt != nil || s.Flags.Has(FlagDSS) {
		sz += OptionSize
	}
	if s.NSack > 0 {
		sz += 2 + 8*int(s.NSack)
	}
	return sz
}
