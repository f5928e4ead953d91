package netem

import (
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
	// RNG drives random loss; required only when LossProb > 0.
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

// pktRing is a FIFO packet queue that reuses its backing array: pops
// advance a head index instead of re-slicing, so a link that fills and
// drains its queue forever stops growing once the array has reached the
// droptail limit. The array is a piece of the Sim's slab (simnet.Slab).
type pktRing struct {
	buf  []*Packet //multinet:owns — queued packets are owned by the link until delivered or dropped
	head int
}

func (q *pktRing) len() int { return len(q.buf) - q.head }

// peek returns the head packet; the queue must be non-empty.
func (q *pktRing) peek() *Packet { return q.buf[q.head] }

// push appends p, growing the array — on sim's slab, looked up only then
// — when it is full to the brim.
func (q *pktRing) push(sim *simnet.Sim, p *Packet) {
	if len(q.buf) == cap(q.buf) {
		if q.head > 0 {
			// Reclaim the popped prefix instead of growing.
			n := copy(q.buf, q.buf[q.head:])
			clear(q.buf[n:])
			q.buf = q.buf[:n]
			q.head = 0
		} else {
			q.buf = simnet.SlabOf[*Packet](sim).Grow(q.buf, len(q.buf)+1)
		}
	}
	q.buf = append(q.buf, p)
}

// pop removes and returns the head packet; the queue must be non-empty.
func (q *pktRing) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// baseLink implements the queueing, loss, state and delivery logic
// shared by FixedLink and VarLink.
//
// Both link types run on an elided event schedule. Service is FIFO and
// its pace is known ahead of time — a constant rate, or an
// OpportunitySource that is a pure function of time — so a packet's
// departure and arrival instants are computable the moment it is
// admitted:
//
//	start_i  = max(depart_{i-1}, admit_i)   (the virtual service clock)
//	depart_i = the link type's service rule applied at start_i
//	arrive_i = depart_i + PropDelay
//
// and each packet schedules exactly one kernel event, its arrival. The
// queue is virtual: admitted packets stay on the service ring until
// their departure instant passes (lazily evicted), which keeps droptail
// occupancy — "waiting or in-service packets" — what an explicit
// service loop would see at every admission check.
type baseLink struct {
	sim       *simnet.Sim
	cfg       LinkConfig
	recv      func(*Packet)
	queue     pktRing
	down      bool
	blackhole bool
	stats     LinkStats
	// busyUntil is the virtual service clock: the departure instant of
	// the last admitted packet.
	busyUntil time.Duration
}

func (b *baseLink) SetReceiver(fn func(*Packet)) { b.recv = fn }
func (b *baseLink) Stats() LinkStats             { return b.stats }

// SetLossProb implements Link: a fault-injected loss burst (or its
// restore). rng is only installed when the link was built without one.
func (b *baseLink) SetLossProb(p float64, rng *rand.Rand) {
	b.cfg.LossProb = p
	if b.cfg.RNG == nil && rng != nil {
		b.cfg.RNG = rng
	}
}

// LossProb returns the current i.i.d. drop probability — the fault
// layer reads it before a loss burst so the restore puts back the
// link's baseline, not zero.
func (b *baseLink) LossProb() float64 { return b.cfg.LossProb }

// evict pops service-ring packets that have departed by now: they no
// longer occupy the droptail queue. Ownership of an evicted packet
// rests solely with its pending arrival event. A packet departing at
// exactly now is gone, so an admission at that instant sees the queue
// the departure left behind whichever of the two the kernel would have
// ordered first.
//
//multinet:hotpath
func (b *baseLink) evict(now time.Duration) {
	for b.queue.len() > 0 && b.queue.peek().doneAt <= now {
		b.queue.pop()
	}
}

// admit runs the shared drop logic against an evicted ring; it returns
// true when the packet was queued and the caller must launch it.
// Dropped packets are recycled here — the caller must not touch p after
// a false return.
//
//multinet:hotpath
func (b *baseLink) admit(p *Packet) bool {
	if b.down || b.blackhole {
		b.stats.DroppedDown++
		dropPacket(p)
		return false
	}
	if b.cfg.LossProb > 0 && b.cfg.RNG != nil && b.cfg.RNG.Float64() < b.cfg.LossProb {
		b.stats.DroppedLoss++
		dropPacket(p)
		return false
	}
	if b.queue.len() >= b.cfg.queueLimit() {
		b.stats.DroppedQueue++
		dropPacket(p)
		return false
	}
	p.SendTime = b.sim.Now()
	b.queue.push(b.sim, p)
	b.stats.Sent++
	b.stats.BytesIn += int64(p.Size)
	return true
}

// launch records an admitted packet's service window [start, done],
// advances the service clock to done and schedules the packet's single
// event: its arrival at the far end.
//
//multinet:hotpath
func (b *baseLink) launch(p *Packet, start, done time.Duration) {
	p.startAt = start
	p.doneAt = done
	b.busyUntil = done
	p.fl = b
	p.arrive = b.sim.ScheduleArg(done+b.cfg.PropDelay, linkArrive, p)
}

// linkArrive fires when a packet reaches the far end: the single
// per-packet event of the elided schedule.
//
//multinet:hotpath
func linkArrive(a any) {
	p := a.(*Packet)
	b := p.fl
	p.fl = nil
	p.arrive = simnet.Timer{}
	// Arrivals run in departure order, so p itself is always among the
	// evicted: after this the ring holds no reference to it and
	// ownership can pass to the receiver (or the drop sink).
	b.evict(b.sim.Now())
	if b.down || b.blackhole {
		// The packet was on the wire when the link died: it is lost.
		b.stats.DroppedDown++
		b.stats.LostInFlight++
		dropPacket(p)
		return
	}
	b.stats.Delivered++
	b.stats.BytesOut += int64(p.Size)
	if b.recv == nil {
		dropPacket(p)
		return
	}
	b.recv(p)
}

// stopService drops every admitted packet that has not departed (the
// explicit model's queue purge): their arrival events are cancelled and
// the packets die as down-drops. Packets already departed keep their
// arrival events and are lost there instead, as in-flight casualties.
func (b *baseLink) stopService() {
	b.evict(b.sim.Now())
	for b.queue.len() > 0 {
		p := b.queue.pop()
		p.arrive.Stop()
		p.fl = nil
		b.stats.DroppedDown++
		b.stats.LostInFlight++
		dropPacket(p)
	}
}

// QueueLen implements Link: packets waiting or in service right now.
func (b *baseLink) QueueLen() int {
	b.evict(b.sim.Now())
	return b.queue.len()
}

// setDead switches one of the two dead states (down, blackhole). Dying
// purges the queue; coming back restarts the service clock from now.
func (b *baseLink) setDead(state *bool, dead bool) {
	was := *state
	*state = dead
	if dead {
		b.stopService()
	} else if was {
		b.busyUntil = b.sim.Now()
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
	return &FixedLink{
		baseLink: baseLink{sim: sim, cfg: cfg},
		rateBps:  rateMbps * 1e6,
	}
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
// their delivery events are recomputed here — the rare O(queue) cost
// that keeps the per-packet path O(1).
func (l *FixedLink) SetRateMbps(mbps float64) {
	if mbps <= 0 {
		panic("netem: FixedLink rate must be positive")
	}
	l.rateBps = mbps * 1e6
	now := l.sim.Now()
	l.evict(now)
	q := &l.queue
	base := now
	for i := q.head; i < len(q.buf); i++ {
		p := q.buf[i]
		if p.startAt <= now {
			// In service: its transmission began under the old rate and
			// keeps it (done/arrival already scheduled correctly).
			base = p.doneAt
			continue
		}
		p.arrive.Stop()
		start := base
		if p.SendTime > start {
			start = p.SendTime
		}
		p.startAt = start
		p.doneAt = start + l.txTime(p.Size)
		p.arrive = l.sim.ScheduleArg(p.doneAt+l.cfg.PropDelay, linkArrive, p)
		base = p.doneAt
	}
	if q.len() > 0 {
		l.busyUntil = base
	}
}

// Send implements Link.
//
//multinet:hotpath
func (l *FixedLink) Send(p *Packet) {
	now := l.sim.Now()
	l.evict(now) // occupancy must be current before admit's droptail check
	if !l.admit(p) {
		return
	}
	start := max(l.busyUntil, now)
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
	return &VarLink{
		baseLink: baseLink{sim: sim, cfg: cfg},
		src:      src,
	}
}

// Send implements Link. The packet departs at the ⌈Size/MTU⌉-th
// opportunity (at least the first) after its service starts.
//
//multinet:hotpath
func (l *VarLink) Send(p *Packet) {
	now := l.sim.Now()
	l.evict(now) // occupancy must be current before admit's droptail check
	if !l.admit(p) {
		return
	}
	start := max(l.busyUntil, now)
	done := l.src.Next(start)
	for carried := MTU; carried < p.Size; carried += MTU {
		done = l.src.Next(done)
	}
	l.launch(p, start, done)
}

// PeriodicOpportunities is an OpportunitySource delivering MTU-sized
// slots at a constant rate, i.e. a CBR link expressed in the
// opportunity model.
type PeriodicOpportunities struct {
	Interval time.Duration
}

// NewPeriodicOpportunities returns a source whose slot rate carries
// rateMbps of MTU-sized packets.
func NewPeriodicOpportunities(rateMbps float64) *PeriodicOpportunities {
	if rateMbps <= 0 {
		panic("netem: rate must be positive")
	}
	perSec := rateMbps * 1e6 / (8 * MTU)
	return &PeriodicOpportunities{Interval: time.Duration(float64(time.Second) / perSec)}
}

// Next implements OpportunitySource.
func (p *PeriodicOpportunities) Next(after time.Duration) time.Duration {
	if p.Interval <= 0 {
		panic("netem: PeriodicOpportunities needs positive interval")
	}
	n := after/p.Interval + 1
	return n * p.Interval
}
