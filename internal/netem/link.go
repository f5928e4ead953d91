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

	// Fluid-advance state (see FluidAdmit). All of it is zero-valued —
	// and every branch touching it disabled — until the first FluidAdmit,
	// so default packet-mode runs execute the exact same instructions as
	// before fluid mode existed.
	//
	// stateGen counts link reconfigurations (rate/down/blackhole) and
	// trafficGen counts real Send calls; a fluid session snapshots both
	// and aborts back to packet simulation when either moves underneath
	// it — the "interesting event" detector.
	stateGen   uint64
	trafficGen uint64
	// fluidNow is the high-water mark of virtual admission activity: the
	// semantic clock of the hybrid simulation, which can run ahead of the
	// kernel's event clock between fluid epochs. Occupancy eviction uses
	// max(sim.Now(), fluidNow) so droptail decisions made during a fluid
	// epoch and real decisions made after it agree.
	fluidNow time.Duration
	// vq holds the done instants of virtually admitted packets — the
	// fluid half of the droptail occupancy, lazily evicted like the real
	// service ring.
	vq    []time.Duration
	vhead int
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

// TxTime returns the serialisation time of size bytes at the current
// rate (exported for fluid-advance planning).
func (l *FixedLink) TxTime(size int) time.Duration { return l.txTime(size) }

// SetRateMbps changes the link rate; it applies to packets whose
// transmission starts after the change. Packets already admitted but
// not yet started have precomputed schedules under the old rate, so
// their delivery events are recomputed here — the rare O(queue) cost
// that keeps the per-packet path O(1).
func (l *FixedLink) SetRateMbps(mbps float64) {
	if mbps <= 0 {
		panic("netem: FixedLink rate must be positive")
	}
	l.stateGen++
	l.rateBps = mbps * 1e6
	now := l.sim.Now()
	l.evict()
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
		if l.vqLen() == 0 {
			l.busyUntil = base
		} else if base > l.busyUntil {
			// Virtual backlog extends past the real ring: the serialiser
			// clock must never rewind below admissions already granted.
			l.busyUntil = base
		}
	}
}

// vnow is the occupancy clock: the later of the kernel event clock and
// the fluid semantic clock. In packet mode fluidNow is zero, so vnow is
// exactly sim.Now().
func (l *FixedLink) vnow() time.Duration {
	now := l.sim.Now()
	if l.fluidNow > now {
		return l.fluidNow
	}
	return now
}

// evict brings both halves of the droptail occupancy — the service ring
// and the virtual queue — up to the occupancy clock.
func (l *FixedLink) evict() {
	now := l.vnow()
	l.baseLink.evict(now)
	l.vqEvict(now)
}

func (l *FixedLink) vqLen() int { return len(l.vq) - l.vhead }

func (l *FixedLink) vqPush(done time.Duration) {
	if l.vhead > 0 && len(l.vq) == cap(l.vq) {
		n := copy(l.vq, l.vq[l.vhead:])
		l.vq = l.vq[:n]
		l.vhead = 0
	}
	l.vq = append(l.vq, done)
}

func (l *FixedLink) vqEvict(now time.Duration) {
	for l.vhead < len(l.vq) && l.vq[l.vhead] <= now {
		l.vhead++
	}
	if l.vhead == len(l.vq) {
		l.vq = l.vq[:0]
		l.vhead = 0
	}
}

// Send implements Link.
//
//multinet:hotpath
func (l *FixedLink) Send(p *Packet) {
	l.trafficGen++
	l.evict() // occupancy must be current before admit's droptail check
	if l.vqLen() > 0 && !l.down && !l.blackhole &&
		l.queue.len()+l.vqLen() >= l.cfg.queueLimit() {
		// Virtual backlog fills the droptail budget: the combined
		// occupancy check lives here so baseLink.admit stays untouched
		// for the packet-mode hot path.
		l.stats.DroppedQueue++
		dropPacket(p)
		return
	}
	if !l.admit(p) {
		return
	}
	start := max(l.busyUntil, l.sim.Now())
	l.launch(p, start, start+l.txTime(p.Size))
}

// reconfigure is the fluid half of a down/blackhole transition: the
// generation bump dissolves any fluid session planned against the old
// state, and when the link is dying its virtually admitted packets die
// with it, as queued real packets do (the owning session discards its
// side of the bookkeeping). Evicting on the occupancy clock first leaves
// baseLink.stopService exactly the packets that clock still holds.
func (l *FixedLink) reconfigure(dying bool) {
	l.stateGen++
	if !dying {
		return
	}
	l.evict()
	if n := l.vqLen(); n > 0 {
		l.stats.DroppedDown += n
		l.stats.LostInFlight += n
		l.vq = l.vq[:0]
		l.vhead = 0
	}
}

// QueueLen implements Link, on the occupancy clock.
func (l *FixedLink) QueueLen() int {
	l.evict()
	return l.baseLink.QueueLen()
}

// SetDown implements Link.
func (l *FixedLink) SetDown(down bool) {
	l.reconfigure(down)
	l.baseLink.SetDown(down)
}

// SetBlackhole implements Link.
func (l *FixedLink) SetBlackhole(bh bool) {
	l.reconfigure(bh)
	l.baseLink.SetBlackhole(bh)
}

// SetLossProb implements Link. The generation bump dissolves any fluid
// session whose admission plan assumed the old loss regime (Lossless is
// part of a session's eligibility check).
func (l *FixedLink) SetLossProb(p float64, rng *rand.Rand) {
	l.stateGen++
	l.baseLink.SetLossProb(p, rng)
}

// ---- Fluid-advance interface ----------------------------------------
//
// A fluid session (internal/tcp) advances a steady TCP flow analytically
// against this link's serialiser clock instead of scheduling per-packet
// events. The contract: the session pre-checks admissibility with
// FluidHeadroom, admits with FluidAdmit (which returns the exact
// serialisation-done instant the packet-level simulation would have
// produced), counts the delivery with FluidDeliver when it processes the
// corresponding arrival, and watches Gen to detect any interfering
// reconfiguration or real traffic.

// Gen returns the (state, traffic) generation counters. Any change
// means the closed-form schedule a fluid session computed may be stale.
func (l *FixedLink) Gen() (state, traffic uint64) { return l.stateGen, l.trafficGen }

// Available reports whether the link is neither down nor blackholed.
func (l *FixedLink) Available() bool { return !l.down && !l.blackhole }

// Lossless reports whether the link never drops packets at random.
func (l *FixedLink) Lossless() bool { return l.cfg.LossProb == 0 }

// PropDelay returns the one-way propagation delay.
func (l *FixedLink) PropDelay() time.Duration { return l.cfg.PropDelay }

// QueueLimit returns the droptail capacity in packets.
func (l *FixedLink) QueueLimit() int { return l.cfg.queueLimit() }

// BusyUntil returns the virtual serialiser clock.
func (l *FixedLink) BusyUntil() time.Duration { return l.busyUntil }

// FluidHeadroom returns the droptail slots free at semantic time at:
// the queue limit minus packets (real or virtual) still waiting or
// serialising then. It advances the occupancy clock to at.
func (l *FixedLink) FluidHeadroom(at time.Duration) int {
	if at > l.fluidNow {
		l.fluidNow = at
	}
	l.evict()
	return l.cfg.queueLimit() - l.queue.len() - l.vqLen()
}

// FluidAdmit accepts a packet of size bytes onto the link at semantic
// time at without scheduling any event, and returns its serialisation-
// done instant (arrival at the far end is done + PropDelay). The caller
// must have verified headroom and availability; FluidAdmit itself never
// drops.
func (l *FixedLink) FluidAdmit(size int, at time.Duration) (done time.Duration) {
	start := l.busyUntil
	if at > start {
		start = at
	}
	done = start + l.txTime(size)
	l.busyUntil = done
	if at > l.fluidNow {
		l.fluidNow = at
	}
	l.vqPush(done)
	l.stats.Sent++
	l.stats.Elided++
	l.stats.BytesIn += int64(size)
	return done
}

// FluidDeliver records the far-end delivery of a virtually admitted
// packet of size bytes.
func (l *FixedLink) FluidDeliver(size int) {
	l.stats.Delivered++
	l.stats.BytesOut += int64(size)
}

// FluidDropQueue records a droptail discard of a packet that fluid-
// advance mode chose not to admit (the virtual queue was full), keeping
// the drop counters comparable with packet mode.
func (l *FixedLink) FluidDropQueue() {
	l.stats.DroppedQueue++
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
