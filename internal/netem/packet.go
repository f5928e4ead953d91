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
	"math/rand"
	"sync/atomic"
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

// Packet is the unit of transfer across links. Transports put their
// segment in Payload; Size is the total on-the-wire size in bytes.
//
// Packets are recycled through their Sim's free list: the Iface send
// helpers take them from it, and they are released back exactly once —
// by the link when it drops them (queue overflow, random loss,
// down/blackhole) or by the final receiver once it has finished with
// the delivered packet (tcp.Stack does this in its dispatch path).
// Consumers that retain a delivered packet simply never release it; the
// free list is an optimisation, not an obligation.
type Packet struct {
	// Iface names the client interface this packet traverses ("wifi",
	// "lte"); filled in by the Iface send helpers.
	Iface string
	// Dir is the travel direction relative to the client.
	Dir Direction
	// Size is the on-the-wire size in bytes, headers included.
	Size int
	// Payload carries the transport segment.
	Payload any
	// SendTime is when the packet entered the link, set by the link.
	SendTime time.Duration

	// promo carries the target link across a radio-promotion wait (see
	// Iface.SendUp), for the same reason.
	promo Link

	// Elided-schedule state (see baseLink): the packet's service
	// window, its single arrival event, and the owning link for that
	// event's callback. All are computed at admit time.
	startAt time.Duration
	doneAt  time.Duration
	arrive  simnet.Timer
	fl      *baseLink

	// home is the free list the packet was taken from and ReleasePacket
	// returns it to; nil for a packet built as a literal.
	home *simnet.FreeList[Packet]
}

// Recyclable is implemented by payloads that want to be returned to a
// free list when netem is finished with the packet carrying them: on every
// drop path (queue overflow, random loss, down/blackhole, purge) the
// link recycles the payload before releasing the packet. Payloads of
// delivered packets are NOT recycled by netem — ownership passes to the
// receiver (tcp.Stack recycles segments after processing them).
type Recyclable interface{ Recycle() }

// NewPacket returns a zeroed packet from sim's free list.
func NewPacket(sim *simnet.Sim) *Packet {
	return takePacket(simnet.FreeListOf[Packet](sim))
}

// takePacket is NewPacket for a caller that has looked the list up.
func takePacket(l *simnet.FreeList[Packet]) *Packet {
	if leakTrack.Load() {
		livePackets.Add(1)
	}
	p := l.Get()
	p.home = l
	return p
}

// ReleasePacket resets p and returns it to the free list it came from.
// The caller must not touch p afterwards.
func ReleasePacket(p *Packet) {
	if leakTrack.Load() {
		livePackets.Add(-1)
	}
	home := p.home
	*p = Packet{}
	if home != nil {
		home.Put(p)
	}
}

// dropPacket recycles p's payload (if it knows how) and releases p —
// the shared sink for every path where a packet dies inside netem.
func dropPacket(p *Packet) {
	if r, ok := p.Payload.(Recyclable); ok {
		r.Recycle()
	}
	ReleasePacket(p)
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
	// injection: loss bursts). rng is installed only when the link was
	// built without one; pass nil to keep the existing stream.
	SetLossProb(p float64, rng *rand.Rand)
	// Stats returns a snapshot of the link counters.
	Stats() LinkStats
	// QueueLen returns the number of packets waiting or in service.
	QueueLen() int
}

// leakTrack gates live-packet accounting. Off (the default) the
// recycling hot path pays one predictable branch; tests running the faults
// invariant checker switch it on around a run and assert LivePackets
// returns to its starting value once the simulation drains.
var leakTrack atomic.Bool

var livePackets atomic.Int64

// SetLeakTracking enables or disables live-packet accounting and resets
// the counter. Enable it before building the simulation under test so
// every NewPacket/ReleasePacket pair of the run is counted.
func SetLeakTracking(on bool) {
	leakTrack.Store(on)
	livePackets.Store(0)
}

// LivePackets returns the tracked packet balance: allocations minus
// releases since SetLeakTracking(true). Zero at quiescence means no
// pooled-packet leak (and no double release).
func LivePackets() int64 { return livePackets.Load() }
