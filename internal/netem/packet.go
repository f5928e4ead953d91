// Package netem emulates network paths over the simnet kernel: one-way
// links with finite rate, propagation delay, droptail queues and random
// loss, composed into duplex interfaces (WiFi, LTE) of a multi-homed
// client talking to a single-homed server — the topology of the paper's
// measurement setup (paper Fig. 5).
//
// Two link service models are provided:
//
//   - FixedLink: constant bit rate (classic serialization + propagation).
//   - VarLink: Mahimahi-style packet-delivery opportunities from an
//     OpportunitySource, used for trace-driven and stochastic radio
//     models (paper Section 5 uses packet-delivery traces the same way).
//
// Interface failure semantics matter for the paper's Fig. 15: an
// explicit Down (the `multipath off` / iproute case) notifies listeners
// immediately, while Blackhole (physically unplugging the tethered
// phone's cellular link) silently discards traffic with no signal.
package netem

import (
	"time"

	"multinet/internal/simnet"
)

// Direction of a packet relative to the multi-homed client.
type Direction int

const (
	// Up is client-to-server.
	Up Direction = iota
	// Down is server-to-client.
	Down
)

// String returns "up" or "down".
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// MTU is the maximum transmission unit in bytes used by the delivery-
// opportunity link model, matching Mahimahi's 1500-byte slots.
const MTU = 1500

// Packet is the unit of transfer across links. It carries its
// transport header by value in Seg; Size is the total on-the-wire size
// in bytes.
//
// Packets are recycled through their Sim's free list: the Iface send
// helpers take them from it, and each is released back exactly once —
// by the link when it drops it (queue overflow, random loss,
// down/blackhole) or by the final receiver once it has copied out what
// it needs (tcp.Stack does this in its dispatch path). A receiver that
// keeps a delivered packet, or drops it without ReleasePacket, leaks it:
// faults.Checker's packet-leak rule counts every packet not returned.
// Taps see a packet for the duration of the call only.
type Packet struct {
	// Iface names the client interface this packet traverses ("wifi",
	// "lte"); filled in by the Iface send helpers.
	Iface string
	// Dir is the travel direction relative to the client.
	Dir Direction
	// Size is the on-the-wire size in bytes, headers included.
	Size int
	// Seg is the transport header, zero for a raw packet.
	Seg Segment
	// SendTime is when the packet entered the link, set by the link.
	SendTime time.Duration

	// promo carries the target link across a radio-promotion wait (see
	// Iface.SendUp), for the same reason.
	promo Link

	// Elided-schedule state (see baseLink): the packet's service
	// window and its arrival's place in the kernel's (at, seq) order,
	// computed at admit time. It arrives PropDelay after doneAt.
	startAt time.Duration
	doneAt  time.Duration
	seq     uint64

	// home is the free list the packet was taken from and ReleasePacket
	// returns it to; nil for a packet built as a literal.
	home *simnet.FreeList[Packet]
}

// NewPacket returns a zeroed packet from sim's free list.
//
//lint:allow unusedapi poolown's golden package, tcp's alloc and closed-form tests and faults' TestLeakCountIsPerWorld
func NewPacket(sim *simnet.Sim) *Packet {
	return takePacket(simnet.FreeListOf[Packet](sim))
}

// takePacket is NewPacket for a caller that has looked the list up.
func takePacket(l *simnet.FreeList[Packet]) *Packet {
	p := l.Get()
	p.home = l
	return p
}

// ReleasePacket resets p and returns it to the free list it came from.
// The caller must not touch p afterwards.
func ReleasePacket(p *Packet) {
	home := p.home
	*p = Packet{}
	if home != nil {
		home.Put(p)
	}
}

// LinkStats counts per-link activity.
type LinkStats struct {
	Sent         int // packets accepted onto the queue
	Delivered    int // packets handed to the receiver
	DroppedQueue int // droptail discards
	DroppedLoss  int // random-loss discards
	DroppedDown  int // discards while the link was down or blackholed
	BytesIn      int64
	BytesOut     int64
	// Elided is always zero: every packet is a simulator event and
	// nothing writes this field. It remains only because
	// benchmark/transfer.go reads it, and goes with the benchmark change
	// ROADMAP "Re-calibrate the instrument" describes.
	Elided int
	// LostInFlight counts admitted packets (included in Sent) that died
	// before reaching the receiver — queued or on the wire when the link
	// went down or blackholed. It is a sub-count of DroppedDown, kept
	// separately so the conservation identity
	//
	//	Sent == Delivered + LostInFlight
	//
	// holds exactly at quiescence (the faults invariant checker asserts
	// it across every fault episode).
	LostInFlight int
}

// Link is a one-way packet carrier.
type Link interface {
	// Send enqueues a packet; drops are reflected in Stats.
	Send(p *Packet)
	// SetReceiver installs the delivery callback. Must be set before
	// the first Send.
	SetReceiver(fn func(*Packet))
	// SetDown marks the link administratively down (true) or up.
	SetDown(down bool)
	// SetBlackhole makes the link silently swallow all packets.
	SetBlackhole(bh bool)
	// SetLossProb changes the i.i.d. drop probability mid-run (fault
	// injection: loss bursts), drawn from the link's own loss stream.
	SetLossProb(p float64)
	// Stats returns a snapshot of the link counters.
	Stats() LinkStats
	// QueueLen returns the number of packets waiting or in service.
	QueueLen() int
}
