package tcp

import (
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// Fluid-advance mode: when a flow is in a provably steady regime — clean
// SACK scoreboard, no pending loss, lossless fixed-rate links it has to
// itself, a pure byte-count source on one side and a pure sink on the
// other — every new data segment, its delivery, its ACK and the ACK's
// arrival are computed analytically at send time from the links'
// serialiser clocks instead of being simulated as four packet events.
// The precomputed schedule is replayed in a handful of batched "step"
// events per RTT epoch, so the event count per RTT drops from O(cwnd)
// to O(1) while the sender's congestion state, RTT estimator and the
// receiver's byte counts evolve through exactly the same arithmetic
// packet mode would perform, at exactly the same semantic instants
// (Conn.now() returns the virtual event's time while it is replayed).
//
// Anything interesting — loss episodes, queue pressure, rate changes,
// link failures, competing traffic, FINs, custom sources or callbacks —
// either prevents the session from starting or makes it dissolve back
// into exact packet-level simulation. See DESIGN.md ("Hybrid
// fluid/packet execution") for the full state machine and the
// invariants maintained across the boundary.

const (
	// fluidQueueMargin is the droptail headroom (in packets) below which
	// virtual sends pause and the session drains: the overflow episode
	// itself must run in packet mode.
	fluidQueueMargin = 2
	// fluidMinEpochBytes is the minimum analytically-advanceable work
	// (per the closed-form epoch estimate) that justifies a session.
	fluidMinEpochBytes = 4 * MSS
)

// FluidDomain pairs the two endpoints of each flow across a client and
// a server stack and tracks which links are claimed by active sessions.
type FluidDomain struct {
	pending map[string]*Conn
	inUse   map[*netem.FixedLink]bool
}

// EnableFluid opts two stacks (the two ends of the simulated paths)
// into fluid-advance mode. Call it once, before traffic starts; it
// returns the shared domain. Connections become eligible pairwise as
// they appear in both stacks.
func EnableFluid(a, b *Stack) *FluidDomain {
	d := a.fluid
	if d == nil {
		d = b.fluid
	}
	if d == nil {
		d = &FluidDomain{
			pending: make(map[string]*Conn),
			inUse:   make(map[*netem.FixedLink]bool),
		}
	}
	a.fluid, b.fluid = d, d
	return d
}

// join pairs c with the opposite endpoint of the same flow if it is
// already known, or parks c until it appears.
func (d *FluidDomain) join(c *Conn) {
	if other, ok := d.pending[c.flow]; ok && other != c {
		delete(d.pending, c.flow)
		c.fluidPeer, other.fluidPeer = other, c
		c.fluidDom, other.fluidDom = d, d
		return
	}
	d.pending[c.flow] = c
}

// forget unlinks a closing connection from the domain.
func (d *FluidDomain) forget(c *Conn) {
	if d.pending[c.flow] == c {
		delete(d.pending, c.flow)
	}
	if p := c.fluidPeer; p != nil {
		p.fluidPeer, p.fluidDom = nil, nil
	}
	c.fluidPeer, c.fluidDom = nil, nil
}

// fluidSeg is one virtually carried data segment: its cumulative
// sequence end, payload size, arrival instant at the receiver, and the
// arrival instant of the ACK it elicits (-1 until the delivery step
// admits the ACK onto the reverse link, or forever if the reverse
// queue was full and the ACK virtually dropped).
type fluidSeg struct {
	seqEnd   uint64
	payload  int
	arriveAt time.Duration
	ackAt    time.Duration
	// sentAt and rtxed carry the segment's scoreboard state: while the
	// session runs, the fifo IS the sender's retransmission queue for
	// virtual segments (c.sb receives no entries; their bytes are still
	// counted in c.pipeBytes), and teardown materialises the unacked
	// tail back onto c.sb.
	sentAt time.Duration
	rtxed  bool
	// probe marks a virtual tail-loss-probe retransmission: an entirely
	// duplicate segment whose delivery leaves the receiver untouched but
	// elicits a pure duplicate ACK (seqEnd is rewritten at delivery time
	// to the dup-ACK's cumulative value).
	probe bool
}

// fluidSession is an active analytic episode on one flow. c is the data
// sender, p the pure receiver; dataLink carries c's segments, ackLink
// the returning ACKs. The fifo holds the precomputed schedule; dIdx and
// aIdx are the delivery and ACK replay cursors (aIdx <= dIdx always).
type fluidSession struct {
	d        *FluidDomain
	c, p     *Conn
	dataLink *netem.FixedLink
	ackLink  *netem.FixedLink

	fifo []fluidSeg
	dIdx int
	aIdx int

	// Interference detection: generation snapshots of both links, plus
	// the pre-entry flight whose real ACKs are expected (and therefore
	// not interference) on the ack link. preSeqs holds the seqEnds of
	// pre-entry segments not yet delivered at entry, in order; each
	// produces exactly one real ACK send when it reaches the receiver.
	dataState   uint64
	dataTraffic uint64
	ackState    uint64
	ackTraffic  uint64
	preSeqs     []uint64

	stepTimer simnet.Timer
	stepAt    time.Duration
	inStep    bool
	// lastAckAt is the latest admitted ACK arrival (monotone: admissions
	// happen in delivery order); ackPending counts admitted ACKs not yet
	// replayed. Both exist so schedule and finished stay O(1) instead of
	// scanning the fifo backlog.
	lastAckAt  time.Duration
	ackPending int
	// vHead is the virtual scoreboard's head cursor: fifo entries below
	// it are fully acked. ackRtxQueueFluid pops by advancing it — the
	// same O(1) head advance the packet-mode ring scoreboard makes, so
	// this is a representation detail, not a cost advantage of fluid
	// mode; teardown materialises [vHead:] back onto c.sb.
	vHead int
	// vProbe is the analytic mirror of the tail-loss-probe timer: the
	// instant a pending probe schedule fires (-1: none). It is seeded
	// from the real timer at entry, re-armed by the suppressed armProbe
	// at each virtual ACK's semantic instant, and when it falls before
	// the next virtual ACK the probe retransmission is injected into the
	// schedule at exactly the packet-mode instant (stale shorter-PTO
	// schedules included — armProbe keeps them when pto > rto).
	vProbe time.Duration
	// drain stops new virtual sends (queue pressure or detected loss
	// signals); the session exits once the fifo is consumed and packet
	// mode plays out the episode.
	drain bool
}

// fluidLinks resolves the fixed-rate data and ack links for a sender.
func fluidLinks(c *Conn) (dl, al *netem.FixedLink, ok bool) {
	var dataL, ackL netem.Link
	if c.dir == netem.Up {
		dataL, ackL = c.iface.UpLink(), c.iface.DownLink()
	} else {
		dataL, ackL = c.iface.DownLink(), c.iface.UpLink()
	}
	dl, ok1 := dataL.(*netem.FixedLink)
	al, ok2 := ackL.(*netem.FixedLink)
	return dl, al, ok1 && ok2 && dl != al
}

// maybeEnterFluid starts an analytic session if the flow is provably in
// a steady regime. Called wherever new sending can begin: on every
// clean cumulative ACK and on Send.
func (c *Conn) maybeEnterFluid() {
	if c.fluid != nil || c.fluidPeer == nil || c.fluidDom == nil {
		return
	}
	p := c.fluidPeer
	// Sender must be established and spotless: nothing sacked or lost,
	// no dup-ACK run, no timeout history pending, a plain byte source
	// with enough data, and no per-segment callbacks observing the wire.
	if c.state != StateEstablished || c.finSent ||
		c.inRecov || c.lostPending != 0 || c.dupAcks != 0 ||
		c.rtoCount != 0 || c.probeFired || c.hiSacked > c.sndUna ||
		c.byteSrc == nil || c.byteSrc.pending < fluidMinEpochBytes ||
		c.cb.OnSegment != nil || c.cb.AckOpt != nil {
		return
	}
	// Receiver must be a pure in-order sink: established, hole-free, no
	// data of its own in flight or queued, no FIN exchanged, and no
	// wire-observing callbacks (AckOpt would put options on the very
	// ACKs the session elides).
	if p.state != StateEstablished || p.fluid != nil ||
		len(p.ooo) != 0 || p.sb.n != 0 || p.peerFin ||
		p.finQueued || p.finSent || p.byteSrc == nil ||
		p.byteSrc.pending != 0 ||
		p.cb.OnSegment != nil || p.cb.AckOpt != nil {
		return
	}
	// Both directions of one interface, unobserved and uncontended.
	if c.iface != p.iface || c.iface.HasTaps() {
		return
	}
	// Radio promotion: elided packets cannot pay wake-up latency, so
	// only engage when steady-flow gaps (~1 RTT) can never look idle.
	if pd := c.iface.PromDelay(); pd > 0 &&
		(c.srtt == 0 || c.iface.PromIdle() <= 4*c.srtt) {
		return
	}
	dl, al, ok := fluidLinks(c)
	if !ok || c.fluidDom.inUse[dl] || c.fluidDom.inUse[al] ||
		!dl.Available() || !dl.Lossless() ||
		!al.Available() || !al.Lossless() {
		return
	}
	// Closed-form viability check: the first analytic epoch must move
	// enough data to be worth a session, and must fit in both droptail
	// queues with margin — otherwise the imminent overflow episode
	// belongs to packet mode.
	wnd := int(c.cwnd)
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	flight := int(c.sndNxt - c.sndUna)
	est, _ := analyticEpochAdvance(c.cwnd, c.ssthresh, wnd, flight, c.byteSrc.pending)
	if est < fluidMinEpochBytes {
		return
	}
	now := c.sim.Now()
	epochSegs := (est+flight)/MSS + fluidQueueMargin
	if analyticQueueOccupancy(dl.BusyUntil(), now, dl.TxTime(HeaderSize+MSS))+
		epochSegs > dl.QueueLimit() {
		return
	}
	if analyticQueueOccupancy(al.BusyUntil(), now, al.TxTime(HeaderSize))+
		epochSegs > al.QueueLimit() {
		return
	}

	s := &fluidSession{d: c.fluidDom, c: c, p: p, dataLink: dl, ackLink: al}
	s.stepAt = -1
	s.vProbe = -1
	s.lastAckAt = -1
	if c.probeTimer.Active() {
		s.vProbe = c.probeTimer.When()
	}
	for i := 0; i < c.sb.n; i++ {
		if end := c.sb.at(i).seqEnd(); end > p.rcvNxt {
			s.preSeqs = append(s.preSeqs, end)
		}
	}
	s.dataState, s.dataTraffic = dl.Gen()
	s.ackState, s.ackTraffic = al.Gen()
	s.d.inUse[dl], s.d.inUse[al] = true, true
	c.cancelRTO()
	c.probeTimer.Stop() // keep s.vProbe: cancelProbe would clear it
	c.fluid = s
	c.fluidSuppress = true
}

// expectedAcks counts how many pre-entry segments have reached the
// receiver so far — each elicited exactly one real ACK send on the ack
// link, which the interference check must not mistake for foreign
// traffic.
func (s *fluidSession) expectedAcks() int {
	n := 0
	for _, end := range s.preSeqs {
		if end <= s.p.rcvNxt {
			n++
		}
	}
	return n
}

// interference reports whether anything other than this session (and
// its expected pre-entry ACKs) touched either link since entry.
func (s *fluidSession) interference() bool {
	ds, dt := s.dataLink.Gen()
	as, at := s.ackLink.Gen()
	return ds != s.dataState || dt != s.dataTraffic || as != s.ackState ||
		at != s.ackTraffic+uint64(s.expectedAcks())
}

// sendVirtual advances one new data segment analytically. Refusal (no
// data, queue pressure, or loss signals) pauses the send loop; packet-
// mode sending resumes only after the session dissolves.
func (s *fluidSession) sendVirtual(c *Conn, max int) (int, bool) {
	if s.drain || c.dupAcks >= 3 || c.inRecov || c.lostPending != 0 {
		// dupAcks 1-2 are benign (a probe's duplicate ACK); packet mode's
		// trySend keeps sending through them too.
		return s.refuse()
	}
	at := c.now()
	if s.dataLink.FluidHeadroom(at) <= fluidQueueMargin ||
		s.ackLink.FluidHeadroom(at) <= fluidQueueMargin {
		s.drain = true
		return s.refuse()
	}
	n, _, ok := c.src.Next(max) // byteSource: opt is always nil
	if !ok {
		return s.refuse()
	}
	c.sndNxt += uint64(n)
	c.pipeBytes += n
	c.segmentsSent++
	done := s.dataLink.FluidAdmit(HeaderSize+n, at)
	if len(s.fifo) == cap(s.fifo) {
		// Reclaim the consumed prefix instead of letting append
		// reallocate (which would copy it along and abandon the array).
		s.compactFifo()
	}
	s.fifo = append(s.fifo, fluidSeg{
		seqEnd:   c.sndNxt,
		payload:  n,
		arriveAt: done + s.dataLink.PropDelay(),
		ackAt:    -1,
		sentAt:   at,
	})
	if !s.inStep {
		s.schedule()
	}
	return n, true
}

// refuse declines a virtual send. With nothing virtual in flight the
// session dissolves in place: the caller's trySend continues in packet
// mode and arms the timers, and a later Send or clean ACK may re-enter.
func (s *fluidSession) refuse() (int, bool) {
	if len(s.fifo) == 0 {
		s.teardown()
	}
	return 0, false
}

func fluidStep(a any) { a.(*fluidSession).runStep() }

// runStep replays every due virtual event, then exits or reschedules.
func (s *fluidSession) runStep() {
	s.stepAt = -1
	c := s.c
	if c.fluid != s || c.state == StateDone {
		return
	}
	now := c.sim.Now()
	if s.interference() ||
		c.dupAcks >= 3 || c.inRecov || c.lostPending != 0 ||
		c.rtoCount != 0 || c.hiSacked > c.sndUna {
		s.abort(now)
		return
	}
	s.advance(now)
	if c.fluid != s {
		return // desync or callback teardown inside the replay
	}
	if s.finished() {
		s.teardown()
		c.trySend() // resume packet mode: FIN, timers, leftover data
		return
	}
	s.schedule()
}

// advance replays deliveries and ACK arrivals due at or before now.
func (s *fluidSession) advance(now time.Duration) {
	s.inStep = true
	defer func() { s.inStep = false }()

	// Deliveries: the receiver's side of processData, plus the deferred
	// admission of its ACK onto the reverse link at the exact arrival
	// instant (keeping FIFO order with any real pre-entry ACKs).
	p := s.p
	advanced := false
	var touched time.Duration = -1
	for s.dIdx < len(s.fifo) && s.fifo[s.dIdx].arriveAt <= now {
		e := &s.fifo[s.dIdx]
		if e.probe {
			// An entirely duplicate probe retransmission: processData's
			// duplicate branch leaves the receiver untouched and answers
			// with a pure dup-ACK carrying the current cumulative point.
			p.segmentsRecvd++
			p.segmentsSent++
			s.dataLink.FluidDeliver(HeaderSize + e.payload)
			e.seqEnd = p.rcvNxt
			e.payload = 0
			if s.ackLink.FluidHeadroom(e.arriveAt) <= 0 {
				s.ackLink.FluidDropQueue()
				s.drain = true
			} else {
				ackDone := s.ackLink.FluidAdmit(HeaderSize, e.arriveAt)
				e.ackAt = ackDone + s.ackLink.PropDelay()
				s.lastAckAt = e.ackAt
				s.ackPending++
			}
			touched = e.arriveAt
			s.dIdx++
			continue
		}
		if p.rcvNxt != e.seqEnd-uint64(e.payload) {
			// A pre-entry segment was dropped below our virtual data:
			// hand everything over as out-of-order and let packet mode
			// run the SACK recovery.
			s.desync(advanced)
			return
		}
		p.segmentsRecvd++
		p.segmentsSent++ // the ACK below
		p.rcvNxt = e.seqEnd
		p.recvTotal = int64(e.seqEnd - 1) // minus SYN
		s.dataLink.FluidDeliver(HeaderSize + e.payload)
		if s.ackLink.FluidHeadroom(e.arriveAt) <= 0 {
			s.ackLink.FluidDropQueue() // droptail eats the ACK
			s.drain = true
		} else {
			ackDone := s.ackLink.FluidAdmit(HeaderSize, e.arriveAt)
			e.ackAt = ackDone + s.ackLink.PropDelay()
			s.lastAckAt = e.ackAt
			s.ackPending++
		}
		touched = e.arriveAt
		advanced = true
		s.dIdx++
	}
	if touched >= 0 {
		s.c.iface.FluidTouch(touched)
	}
	if advanced && p.cb.OnData != nil {
		p.cb.OnData(p, p.recvTotal)
	}

	// ACK arrivals: cumulative ACKs cover any virtually dropped ones.
	// The analytic probe clock interleaves by semantic time: the probe
	// fires iff no ACK processed before its expiry re-armed it, so the
	// injection check must precede every applyAck (which is where both
	// re-arms and new sends happen).
	var ackTouched time.Duration = -1
	for {
		j := s.aIdx
		for j < s.dIdx && s.fifo[j].ackAt < 0 {
			j++
		}
		var nextAck time.Duration = -1
		if j < s.dIdx {
			nextAck = s.fifo[j].ackAt
		}
		if s.vProbe >= 0 && (nextAck < 0 || s.vProbe <= nextAck) {
			if s.vProbe > now {
				break
			}
			s.injectProbe()
			continue
		}
		if nextAck < 0 || nextAck > now {
			break
		}
		e := s.fifo[j] // copy: applyAck can grow s.fifo
		s.aIdx = j + 1
		s.ackPending--
		s.applyAck(e)
		ackTouched = e.ackAt
		if s.c.fluid != s {
			break
		}
	}
	if ackTouched >= 0 {
		// One promotion-clock touch for the whole replayed run (monotone,
		// and nothing reads the clock between virtual ACKs).
		s.c.iface.FluidTouch(ackTouched)
	}
}

// injectProbe replays onProbe at the analytic probe clock's expiry: the
// newest unacked segment is marked retransmitted on the scoreboard and
// its (entirely duplicate) wire copy is admitted onto the data link at
// the exact semantic instant — in admission order, since all sends up
// to here happened at earlier ACK instants and later ones follow after.
func (s *fluidSession) injectProbe() {
	c := s.c
	at := s.vProbe
	s.vProbe = -1
	if c.sndNxt == c.sndUna || c.state == StateDone {
		return
	}
	c.probeFired = true
	// Newest unacked payload entry. Virtual segments are newer than any
	// pre-entry scoreboard remnant and all carry payload, so the scan
	// always lands on one (flight > 0 implies a live virtual entry:
	// virtual ACKs are cumulative, so remnants outlive them only while
	// no virtual ACK has been applied at all).
	idx := -1
	for i := len(s.fifo) - 1; i >= s.vHead; i-- {
		if !s.fifo[i].probe && s.fifo[i].payload > 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	// Loss marks never exist in-session (detectLoss is a proven no-op on
	// a clean scoreboard), so onProbe's lostPending adjustment is moot.
	e := &s.fifo[idx]
	e.rtxed = true
	e.sentAt = at
	seqEnd, payload := e.seqEnd, e.payload
	c.Retransmits++
	c.segmentsSent++
	if s.dataLink.FluidHeadroom(at) <= 0 {
		s.dataLink.FluidDropQueue() // droptail eats the probe copy
		s.drain = true
		return
	}
	done := s.dataLink.FluidAdmit(HeaderSize+payload, at)
	s.fifo = append(s.fifo, fluidSeg{
		seqEnd:   seqEnd,
		payload:  payload,
		arriveAt: done + s.dataLink.PropDelay(),
		ackAt:    -1,
		sentAt:   at,
		rtxed:    true, // a retransmission: never an RTT sample
		probe:    true,
	})
}

// applyAck is the exact mirror of processAck's clean cumulative branch
// for a pure virtual ACK, replayed at its semantic arrival instant.
func (s *fluidSession) applyAck(e fluidSeg) {
	c := s.c
	c.fluidClock = e.ackAt
	c.segmentsRecvd++
	s.ackLink.FluidDeliver(HeaderSize)
	if e.probe && e.seqEnd <= c.sndUna {
		// processAck's duplicate branch: the probe's dup-ACK arrived
		// after the regular ACK for the same cumulative point.
		if e.seqEnd == c.sndUna && c.BytesInFlight() > 0 {
			c.dupAcks++
			c.detectLoss()
			c.trySend()
		}
		c.fluidClock = -1
		return
	}
	dataAcked := int(e.seqEnd - c.sndUna)
	s.ackRtxQueueFluid(e.seqEnd)
	c.dupAcks = 0
	c.rtoCount = 0
	c.sndUna = e.seqEnd
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(dataAcked) // slow start
	} else {
		c.cwnd += c.increase(c, dataAcked)
	}
	c.probeFired = false
	// Flight-based emptiness: on a clean scoreboard [sndUna, sndNxt) is
	// exactly what packet mode's scoreboard would hold.
	if c.sndNxt == c.sndUna {
		c.cancelRTO()
		c.cancelProbe()
	} else {
		c.armProbe() // suppressed: re-arms the analytic probe clock
	}
	c.checkClosed()
	c.detectLoss()
	c.trySend()
	c.fluidClock = -1
}

// ackRtxQueueFluid is ackRtxQueue operating on the virtual scoreboard:
// the pop advances the fifo's vHead cursor, as the ring scoreboard
// advances its head. Pre-entry remnants on c.sb (possible only when
// their real ACKs were dropped before entry) are drained through the
// regular representation first, sharing Karn's newest-sample rule
// across both.
func (s *fluidSession) ackRtxQueueFluid(ack uint64) {
	c := s.c
	sampleAt := c.ackScoreboard(ack)
	i := s.vHead
	for ; i < len(s.fifo); i++ {
		e := &s.fifo[i]
		if e.seqEnd > ack {
			break
		}
		// Probe entries (seqEnd rewritten at delivery to the dup-ACK's
		// cumulative point) fall through here; rtxed keeps them out of
		// the RTT sample, and they own no scoreboard state or pipe bytes.
		if !e.probe {
			c.pipeBytes -= e.payload
		}
		if !e.rtxed && e.sentAt > sampleAt {
			sampleAt = e.sentAt
		}
	}
	s.vHead = i
	if sampleAt >= 0 {
		c.rttSample(c.now() - sampleAt)
	}
}

// compactFifo drops the fifo's fully consumed prefix in place so
// appends keep reusing the same backing array. Callers inside the
// replay loops are safe: the loops re-read the cursors every iteration.
func (s *fluidSession) compactFifo() {
	cut := s.aIdx
	if s.vHead < cut {
		cut = s.vHead
	}
	if cut == 0 {
		return
	}
	n := copy(s.fifo, s.fifo[cut:])
	s.fifo = s.fifo[:n]
	s.dIdx -= cut
	s.aIdx -= cut
	s.vHead -= cut
}

// finished reports whether every virtual segment has been delivered and
// every admitted ACK replayed.
func (s *fluidSession) finished() bool {
	return s.dIdx == len(s.fifo) && s.ackPending == 0
}

// schedule picks the next step instant. Three regimes: with lots of
// data left, one delivery step and one ACK step per burst (O(1) events
// per RTT); near the end of the source, one step per ACK so the final
// send happens at its exact real instant and the finish is schedulable;
// with the source drained, a step at the exact final-delivery instant
// (the receiver's completion time) and a final batched ACK step whose
// end dissolves the session and releases the FIN at the exact time
// packet mode would have sent it.
func (s *fluidSession) schedule() {
	c := s.c
	n := len(s.fifo)
	var nextAck time.Duration = -1
	for j := s.aIdx; j < s.dIdx; j++ {
		if s.fifo[j].ackAt >= 0 {
			nextAck = s.fifo[j].ackAt
			break
		}
	}
	// ACKs replay in admission order, so while any is pending the latest
	// admitted one (lastAckAt) is the last to replay.
	lastAck := func() time.Duration {
		if s.ackPending == 0 {
			return -1
		}
		return s.lastAckAt
	}
	pending := 0
	if c.byteSrc != nil {
		pending = c.byteSrc.pending
	}
	var at time.Duration = -1
	switch {
	case pending == 0:
		if s.dIdx < n {
			at = s.fifo[n-1].arriveAt
		} else {
			at = lastAck()
		}
	case !s.drain:
		// Batch: one delivery step and one ACK step per burst. Sends
		// happen inside the ACK step at their semantic (fluid-clock)
		// instants; if the source exhausts mid-burst the pending==0
		// regime above takes over at the next schedule and lands the
		// exact final-delivery and final-ACK steps.
		if s.dIdx < n {
			at = s.fifo[n-1].arriveAt
		} else {
			at = lastAck()
		}
	default:
		// Drain: replay ACK by ACK so the dissolve happens at the
		// earliest exact instant and packet mode takes over promptly.
		if nextAck >= 0 {
			at = nextAck
		}
		if s.dIdx < n && (at < 0 || s.fifo[s.dIdx].arriveAt < at) {
			at = s.fifo[s.dIdx].arriveAt
		}
	}
	if at < 0 {
		return
	}
	if now := c.sim.Now(); at < now {
		at = now // an injected probe's delivery can already be due
	}
	if s.stepTimer.Active() && s.stepAt == at {
		return
	}
	s.stepTimer.Stop()
	s.stepAt = at
	s.stepTimer = c.sim.ScheduleArg(at, fluidStep, s)
}

// abort dissolves the session after outside interference: everything
// due is replayed exactly, then the remainder is flushed at its (stale)
// precomputed schedule if the links are still up — a rate change only
// bends timings from here on — or discarded if a link died, exactly as
// in-flight packets die on a downed link; the re-armed RTO recovers.
func (s *fluidSession) abort(now time.Duration) {
	s.drain = true
	s.advance(now)
	if s.c.fluid != s {
		return
	}
	if s.dataLink.Available() && s.ackLink.Available() {
		s.advance(1<<62 - 1)
		if s.c.fluid != s {
			return
		}
	} else {
		// The link's own purge counted the drops; just skip the replay.
		s.dIdx = len(s.fifo)
		s.aIdx = s.dIdx
	}
	s.teardown()
	s.c.trySend()
}

// desync handles a receiver hole discovered mid-replay (a pre-entry
// segment was dropped): the remaining virtual data is delivered as
// out-of-order intervals, the receiver emits one real SACK-bearing
// dup-ACK, and packet mode runs the recovery.
func (s *fluidSession) desync(advanced bool) {
	p := s.p
	for ; s.dIdx < len(s.fifo); s.dIdx++ {
		e := &s.fifo[s.dIdx]
		p.segmentsRecvd++
		p.insertOOO(interval{e.seqEnd - uint64(e.payload), e.seqEnd})
		s.dataLink.FluidDeliver(HeaderSize + e.payload)
	}
	s.aIdx = s.dIdx
	if advanced && p.cb.OnData != nil {
		p.cb.OnData(p, p.recvTotal)
	}
	s.teardown()
	p.sendAck()
	s.c.trySend()
}

// discard drops the session without replay (Conn.Abort): the scoreboard
// keeps every unacked segment, so nothing is lost that packet mode
// would have preserved.
func (s *fluidSession) discard() { s.teardown() }

// teardown returns the connection to packet mode and releases the
// links. Callers re-run trySend when sending should resume.
func (s *fluidSession) teardown() {
	c := s.c
	// Materialise the unacked virtual tail back onto the real scoreboard
	// — identical to what track() would have recorded in packet mode,
	// except that pipeBytes already counts these bytes (sendVirtual).
	// Probe entries are retransmissions of existing segments and own no
	// scoreboard slot.
	for i := s.vHead; i < len(s.fifo); i++ {
		e := &s.fifo[i]
		if e.probe {
			continue
		}
		c.sb.push(c.sim, sbEntry{
			seq: e.seqEnd - uint64(e.payload), sentAt: e.sentAt,
			payload: int32(e.payload), flags: FlagACK, rtxed: e.rtxed,
		})
	}
	s.vHead = len(s.fifo)
	c.fluid = nil
	c.fluidSuppress = false
	c.fluidClock = -1
	delete(s.d.inUse, s.dataLink)
	delete(s.d.inUse, s.ackLink)
	s.stepTimer.Stop()
	if s.vProbe >= 0 && !c.probeFired && c.sb.n > 0 &&
		c.state != StateDone {
		// Restore the pending probe schedule as a real timer. armProbe
		// below replaces it when a fresh arm is due (pto <= rto), and
		// keeps it when stale — exactly packet mode's behaviour.
		at := s.vProbe
		if now := c.sim.Now(); at < now {
			at = now
		}
		c.probeTimer.Stop()
		c.probeTimer = c.sim.ScheduleArg(at, connOnProbe, c)
		s.vProbe = -1
	}
	if c.sb.n > 0 && c.state != StateDone {
		c.armRTOIfIdle()
		c.armProbe()
	}
}

// --- Closed-form primitives -------------------------------------------
//
// These are the analytic building blocks the entry check uses to prove
// a session is worthwhile and queue-safe; fluid_test.go pins each one
// against hand-stepped packet traces.

// analyticAckAdvance returns the congestion window after one clean
// cumulative ACK of acked bytes under Reno (slow start below ssthresh,
// MSS*acked/cwnd above), mirroring processAck's update.
func analyticAckAdvance(cwnd, ssthresh float64, acked int) float64 {
	if cwnd < ssthresh {
		return cwnd + float64(acked)
	}
	return cwnd + float64(MSS)*float64(acked)/cwnd
}

// analyticEpochAdvance advances one ACK-clocked RTT epoch in closed
// form: the in-flight bytes return as MSS-quantum ACKs, each growing
// cwnd per analyticAckAdvance and releasing window for new sends,
// clamped by wndLimit (the min of cwnd and the peer window as the epoch
// progresses) and the sender's pending backlog. It returns the bytes
// newly sent during the epoch and the final window — the same values
// stepping the packet simulator through one RTT would produce for a
// clean flow.
func analyticEpochAdvance(cwnd, ssthresh float64, wndLimit, inflight, pending int) (sent int, cwndOut float64) {
	pipe := inflight
	acked := 0
	for acked < inflight && pending > 0 {
		q := MSS
		if inflight-acked < q {
			q = inflight - acked
		}
		acked += q
		pipe -= q
		cwnd = analyticAckAdvance(cwnd, ssthresh, q)
		w := wndLimit
		if c := int(cwnd); c < w {
			w = c
		}
		for (w-pipe >= MSS || (w-pipe > 0 && pipe == 0)) && pending > 0 {
			n := MSS
			if pending < n {
				n = pending
			}
			if b := w - pipe; b < n {
				n = b
			}
			pending -= n
			pipe += n
			sent += n
		}
	}
	return sent, cwnd
}

// analyticQueueOccupancy returns the droptail occupancy (in packets) of
// a serialiser at time at, given its busy-until clock and a per-packet
// transmission time: the packets whose service has not finished yet.
func analyticQueueOccupancy(busyUntil, at, txPerPkt time.Duration) int {
	if busyUntil <= at || txPerPkt <= 0 {
		return 0
	}
	return int((busyUntil - at + txPerPkt - 1) / txPerPkt)
}
