package netem

import (
	"fmt"
	"math/rand"
	"time"

	"multinet/internal/simnet"
)

// LinkConfig holds the parameters shared by both link service models.
type LinkConfig struct {
	// PropDelay is the one-way propagation delay added after a packet
	// finishes transmission.
	PropDelay time.Duration
	// QueueLimit is the droptail queue capacity in packets (the packet
	// in service counts). Zero means DefaultQueueLimit.
	QueueLimit int
	// LossProb is an i.i.d. per-packet drop probability in [0,1).
	LossProb float64
	// RNG drives random loss, including a fault-injected loss burst's;
	// a link without one panics when its loss probability is set above
	// zero.
	RNG *rand.Rand
}

// DefaultQueueLimit is the droptail capacity used when LinkConfig leaves
// QueueLimit zero. 100 packets ≈ 150 KB, a typical CPE buffer.
const DefaultQueueLimit = 100

func (c *LinkConfig) queueLimit() int {
	if c.QueueLimit <= 0 {
		return DefaultQueueLimit
	}
	return c.QueueLimit
}

// pktRing is the link's FIFO of admitted packets, held until they
// arrive: buf[head:wait] have departed and are on the wire, buf[wait:]
// are waiting or in service — the droptail queue. Arrivals advance head
// and departures wait instead of re-slicing, so a link that fills and
// drains forever stops growing once the array holds its largest
// backlog. The array is a piece of the Sim's slab (simnet.Slab).
type pktRing struct {
	buf  []*Packet //multinet:owns — admitted packets are owned by the link until they arrive or are dropped
	head int
	wait int
}

func (q *pktRing) len() int    { return len(q.buf) - q.head }
func (q *pktRing) queued() int { return len(q.buf) - q.wait }

// push appends p, growing the array — on sim's slab, looked up only then
// — when it is full to the brim.
func (q *pktRing) push(sim *simnet.Sim, p *Packet) {
	if len(q.buf) == cap(q.buf) {
		if q.head > 0 {
			// Reclaim the arrived prefix instead of growing.
			n := copy(q.buf, q.buf[q.head:])
			clear(q.buf[n:])
			q.buf = q.buf[:n]
			q.wait -= q.head
			q.head = 0
		} else {
			q.buf = simnet.SlabOf[*Packet](sim).Grow(q.buf, len(q.buf)+1)
		}
	}
	q.buf = append(q.buf, p)
}

// pop removes and returns the head packet, which must have departed.
func (q *pktRing) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head, q.wait = 0, 0
	}
	return p
}

// baseLink implements the queueing, loss, state and delivery logic
// shared by FixedLink and VarLink.
//
// Both link types run on an elided schedule. Service is FIFO and its
// pace is known ahead of time — a constant rate, or an
// OpportunitySource that is a pure function of time — so a packet's
// departure and arrival instants are computable the moment it is
// admitted:
//
//	start_i  = max(depart_{i-1}, admit_i)   (the virtual service clock)
//	depart_i = the link type's service rule applied at start_i
//	arrive_i = depart_i + PropDelay
//
// and each packet is one entry of the link's simnet.Lane, fired at its
// arrival. The link keeps the packet on its service ring from admission
// until that arrival: the ring is the lane's store, and packets arrive
// in the order they were admitted. The queue is virtual: a packet counts
// towards droptail occupancy — "waiting or in-service packets" — until
// its departure instant passes (lazily evicted), which is what an
// explicit service loop would see at every admission check.
type baseLink struct {
	sim       *simnet.Sim
	cfg       LinkConfig
	recv      func(*Packet)
	ring      pktRing
	lane      simnet.Lane
	down      bool
	blackhole bool
	stats     LinkStats
}

// init binds the link to sim and registers its lane.
func (b *baseLink) init(sim *simnet.Sim, cfg LinkConfig) {
	b.sim, b.cfg = sim, cfg
	b.SetLossProb(cfg.LossProb)
	sim.AddLane(&b.lane, (*arrivals)(b))
}

func (b *baseLink) SetReceiver(fn func(*Packet)) { b.recv = fn }
func (b *baseLink) Stats() LinkStats             { return b.stats }

// onWire counts the packets admitted that have not arrived (Host.Audit).
func (b *baseLink) onWire() int { return b.ring.len() }

// SetLossProb implements Link: a fault-injected loss burst (or its
// restore). It panics when p > 0 and the link has no loss stream.
func (b *baseLink) SetLossProb(p float64) {
	if p > 0 && b.cfg.RNG == nil {
		panic(fmt.Sprintf("netem: loss probability %v on a link built without LinkConfig.RNG", p))
	}
	b.cfg.LossProb = p
}

// LossProb returns the current i.i.d. drop probability — the fault
// layer reads it before a loss burst so the restore puts back the
// link's baseline, not zero.
func (b *baseLink) LossProb() float64 { return b.cfg.LossProb }

// evict moves the packets that have departed by now out of the droptail
// queue and onto the wire. A packet departing at exactly now is gone, so
// an admission at that instant sees the queue the departure left behind
// whichever of the two the kernel would have ordered first.
//
//multinet:hotpath
func (b *baseLink) evict(now time.Duration) {
	q := &b.ring
	for q.wait < len(q.buf) && q.buf[q.wait].doneAt <= now {
		q.wait++
	}
}

// admit evicts the departed packets, so that occupancy is current, and
// runs the shared drop logic. When the packet is queued it returns the instant its service starts — the
// virtual service clock: the departure instant of the last admitted
// packet still on the ring, or now, whichever is later — and true, and
// the caller must launch it. Dropped packets are recycled here — the
// caller must not touch p after a false return.
//
//multinet:hotpath
func (b *baseLink) admit(p *Packet) (time.Duration, bool) {
	now := b.sim.Now()
	b.evict(now)
	if b.down || b.blackhole {
		b.stats.DroppedDown++
		ReleasePacket(p)
		return 0, false
	}
	if b.cfg.LossProb > 0 && b.cfg.RNG.Float64() < b.cfg.LossProb {
		b.stats.DroppedLoss++
		ReleasePacket(p)
		return 0, false
	}
	q := &b.ring
	if q.queued() >= b.cfg.queueLimit() {
		b.stats.DroppedQueue++
		ReleasePacket(p)
		return 0, false
	}
	start := now
	if q.len() > 0 {
		// A purge leaves only departed packets, so coming back up
		// restarts the clock from now.
		start = max(q.buf[len(q.buf)-1].doneAt, now)
	}
	p.SendTime = now
	q.push(b.sim, p)
	b.stats.Sent++
	b.stats.BytesIn += int64(p.Size)
	return start, true
}

// launch records an admitted packet's service window [start, done] and
// stamps its arrival onto the link's lane.
//
//multinet:hotpath
func (b *baseLink) launch(p *Packet, start, done time.Duration) {
	p.startAt = start
	p.doneAt = done
	p.seq = b.sim.Push(&b.lane, done+b.cfg.PropDelay)
}

// arrivals is a link as its lane sees it: a type of its own, so that the
// method the kernel calls is not part of the links' API.
type arrivals baseLink

// Fire runs when the lane's head packet reaches the far end: the single
// per-packet firing of the elided schedule.
//
//multinet:hotpath
func (a *arrivals) Fire() {
	b := (*baseLink)(a)
	// Arrivals run in departure order, so the head has departed: after
	// this the ring holds no reference to it and ownership can pass to
	// the receiver, or back to the free list if it is lost.
	b.evict(b.sim.Now())
	p := b.ring.pop()
	if b.ring.len() > 0 {
		h := b.ring.buf[b.ring.head]
		b.lane.Advance(h.doneAt+b.cfg.PropDelay, h.seq)
	}
	if b.down || b.blackhole {
		// The packet was on the wire when the link died: it is lost.
		b.stats.DroppedDown++
		b.stats.LostInFlight++
		ReleasePacket(p)
		return
	}
	b.stats.Delivered++
	b.stats.BytesOut += int64(p.Size)
	if b.recv == nil {
		ReleasePacket(p)
		return
	}
	b.recv(p)
}

// Drop runs when the world is released with packets still on the ring,
// on the wire or queued: they go back to their free list unfired, so the
// next world built on the same arena sends them again instead of
// allocating. The ring's array is slab memory and rewinds with the
// world.
func (a *arrivals) Drop() {
	q := &a.ring
	for _, p := range q.buf[q.head:] {
		ReleasePacket(p)
	}
}

// stopService drops every admitted packet that has not departed (the
// explicit model's queue purge) as a down-drop: they are truncated off
// the ring's tail and the lane's. Packets already departed stay on the
// ring and are lost at their arrival instead, as in-flight casualties.
func (b *baseLink) stopService() {
	b.evict(b.sim.Now())
	q := &b.ring
	b.sim.Truncate(&b.lane, q.queued())
	for _, p := range q.buf[q.wait:] {
		b.stats.DroppedDown++
		b.stats.LostInFlight++
		ReleasePacket(p)
	}
	clear(q.buf[q.wait:])
	q.buf = q.buf[:q.wait]
	if q.head == q.wait {
		q.buf = q.buf[:0]
		q.head, q.wait = 0, 0
	}
}

// QueueLen implements Link: packets waiting or in service right now.
func (b *baseLink) QueueLen() int {
	b.evict(b.sim.Now())
	return b.ring.queued()
}

// setDead switches one of the two dead states (down, blackhole). Dying
// purges the queue, so coming back finds the service clock at now.
func (b *baseLink) setDead(state *bool, dead bool) {
	*state = dead
	if dead {
		b.stopService()
	}
}

// SetDown implements Link.
func (b *baseLink) SetDown(down bool) { b.setDead(&b.down, down) }

// SetBlackhole implements Link.
func (b *baseLink) SetBlackhole(bh bool) { b.setDead(&b.blackhole, bh) }

// FixedLink is a constant-bit-rate link: a packet departs size/rate
// after its service starts.
type FixedLink struct {
	baseLink
	rateBps float64 // bits per second
}

// NewFixedLink creates a link that transmits at rateMbps megabits per
// second with the given config.
func NewFixedLink(sim *simnet.Sim, rateMbps float64, cfg LinkConfig) *FixedLink {
	if rateMbps <= 0 {
		panic("netem: FixedLink rate must be positive")
	}
	l := &FixedLink{rateBps: rateMbps * 1e6}
	l.init(sim, cfg)
	return l
}

// RateMbps returns the configured rate in Mbit/s.
func (l *FixedLink) RateMbps() float64 { return l.rateBps / 1e6 }

// txTime returns the serialisation time of size bytes at the current
// rate.
func (l *FixedLink) txTime(size int) time.Duration {
	return time.Duration(float64(size*8) / l.rateBps * float64(time.Second))
}

// SetRateMbps changes the link rate; it applies to packets whose
// transmission starts after the change. Packets already admitted but
// not yet started have precomputed schedules under the old rate, so
// they are re-stamped here, in order: truncated off the lane and pushed
// again at their new arrival instants — the rare O(queue) cost that
// keeps the per-packet path O(1).
func (l *FixedLink) SetRateMbps(mbps float64) {
	if mbps <= 0 {
		panic("netem: FixedLink rate must be positive")
	}
	l.rateBps = mbps * 1e6
	now := l.sim.Now()
	l.evict(now)
	q := &l.ring
	base := now
	i := q.wait
	for ; i < len(q.buf) && q.buf[i].startAt <= now; i++ {
		// In service: its transmission began under the old rate and
		// keeps it.
		base = q.buf[i].doneAt
	}
	l.sim.Truncate(&l.lane, len(q.buf)-i)
	for _, p := range q.buf[i:] {
		p.startAt = max(base, p.SendTime)
		p.doneAt = p.startAt + l.txTime(p.Size)
		p.seq = l.sim.Push(&l.lane, p.doneAt+l.cfg.PropDelay)
		base = p.doneAt
	}
}

// Send implements Link.
//
//multinet:hotpath
func (l *FixedLink) Send(p *Packet) {
	start, ok := l.admit(p)
	if !ok {
		return
	}
	l.launch(p, start, start+l.txTime(p.Size))
}

// OpportunitySource produces the packet-delivery schedule for a VarLink.
// Next returns the first delivery-opportunity instant strictly after
// `after`. Sources must be monotone — Next(t) > t — and pure: Next(t) is
// the same whatever was asked before, including an earlier t after a
// later one. VarLink computes departures at admission, ahead of the
// simulation clock, and a queue purge (SetDown, SetBlackhole) restarts
// service from an instant earlier than look-ahead already asked for. A
// source may draw its schedule lazily as long as the draws do not depend
// on the order of the questions.
type OpportunitySource interface {
	Next(after time.Duration) time.Duration
}

// VarLink delivers packets at discrete delivery opportunities, the model
// Mahimahi uses for cellular and WiFi traces. Each opportunity carries
// up to MTU bytes of the head-of-line packet; a larger packet consumes
// several, and the unused remainder of its last one is not shared with
// the next packet (Mahimahi shares it: see EXPERIMENTS.md).
type VarLink struct {
	baseLink
	src OpportunitySource
}

// NewVarLink creates a trace-driven link from an opportunity source.
func NewVarLink(sim *simnet.Sim, src OpportunitySource, cfg LinkConfig) *VarLink {
	if src == nil {
		panic("netem: VarLink needs an OpportunitySource")
	}
	l := &VarLink{src: src}
	l.init(sim, cfg)
	return l
}

// Send implements Link. The packet departs at the ⌈Size/MTU⌉-th
// opportunity (at least the first) after its service starts.
//
//multinet:hotpath
func (l *VarLink) Send(p *Packet) {
	start, ok := l.admit(p)
	if !ok {
		return
	}
	done := l.src.Next(start)
	for carried := MTU; carried < p.Size; carried += MTU {
		done = l.src.Next(done)
	}
	l.launch(p, start, done)
}
