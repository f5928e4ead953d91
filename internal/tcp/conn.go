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
// The wire header is netem.Segment, which a packet carries by value: a
// connection fills one on its stack for each transmission, the
// interface copies it into a pooled packet, and the receiving Stack
// copies it out before it releases the packet. No segment is pooled or
// shared, and retransmission state lives in the scoreboard.
//
// A layer above drives a connection through one set of hooks,
// Callbacks: besides the event hooks, package mptcp's subflows use Pull
// to supply per-segment payload and its DSS mapping, and Increase to
// replace the congestion-avoidance increase (coupled LIA).
package tcp

import (
	"fmt"
	"slices"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// State is the connection state. The set is a condensed version of the
// TCP state machine: TIME_WAIT and simultaneous-open states are not
// needed in simulation.
type State int

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait   // our FIN sent, not yet acked
	StateClosing   // both FINs seen, ours not yet acked
	StateCloseWait // peer FIN seen, we have not sent ours
	StateDone      // fully closed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateClosing:
		return "closing"
	case StateCloseWait:
		return "close-wait"
	case StateDone:
		return "done"
	}
	return "unknown"
}

// Default protocol constants. These mirror the Linux 3.11 stack the
// paper measured (initial cwnd 10, min RTO 200 ms).
const (
	// MSS is the maximum segment payload in bytes. With the
	// netem.HeaderSize bytes of IP+TCP header this fills a 1500-byte MTU.
	MSS                 = 1460
	InitialCwndSegments = 10
	MinRTO              = 200 * time.Millisecond
	MaxRTO              = 60 * time.Second
	InitialRTO          = 1 * time.Second
	DefaultWindow       = 4 << 20 // 4 MB advertised window
	// MaxConsecutiveRTOs aborts the connection after this many
	// back-to-back timeouts (the Linux tcp_retries2 analogue); with
	// exponential backoff this is roughly four minutes of silence.
	MaxConsecutiveRTOs = 12
)

// RenoIncrease is the standard Reno congestion-avoidance increase: the
// cwnd increment in bytes for a new cumulative ACK of acked bytes.
func RenoIncrease(c *Conn, acked int) float64 {
	return float64(MSS) * float64(acked) / c.cwnd
}

// Callbacks are the optional hooks through which a layer above drives a
// connection. All are invoked from the simulation loop.
type Callbacks struct {
	// Pull, when set, supplies the payload in place of Send: the size of
	// the next chunk to transmit (0 < n <= max) and its DSS, which the
	// segment carries under FlagDSS. ok=false means no data is available
	// now; NotifyData asks again. A connection with Pull sends its FIN as
	// soon as Close is called, so its user closes it once drained.
	Pull func(c *Conn, max int) (n int, dss netem.DSS, ok bool)
	// Increase, when set, replaces Reno's congestion-avoidance increase
	// (RenoIncrease) with the cwnd increment in bytes for a new
	// cumulative ACK of acked bytes; MPTCP's coupled LIA is one (RFC
	// 6356).
	Increase func(c *Conn, acked int) float64
	// OnEstablished fires when the handshake completes.
	OnEstablished func(*Conn)
	// OnData fires when in-order data advances; total is cumulative
	// in-order bytes received.
	OnData func(c *Conn, total int64)
	// OnSegment fires for every arriving segment, before processing. It
	// gets a copy: the receiving Stack's lives on its goroutine's stack,
	// which a pointer handed to a hook would force onto the heap.
	OnSegment func(c *Conn, seg netem.Segment)
	// OnMappedAck fires once per cumulative ACK that covers at least one
	// sent segment carrying a DSS, while the covered segments are still
	// yielded by Mappings.
	OnMappedAck func(c *Conn)
	// AckOpt, when set, supplies the DSS outgoing pure ACKs carry (MPTCP
	// uses it for DATA_ACK).
	AckOpt func(c *Conn) netem.DSS
	// OnRTO fires on each retransmission timeout with the consecutive
	// timeout count.
	OnRTO func(c *Conn, count int)
	// OnClosed fires when both directions have shut down.
	OnClosed func(*Conn)
}

// Conn is one endpoint of a TCP connection (or MPTCP subflow) bound to
// a network interface.
//
// A Conn is carved from its Sim's slab and lives exactly as long as the
// world: after Sim.Release it is zeroed memory the next world hands out
// again, so read what you need from it before releasing.
type Conn struct {
	sim   *simnet.Sim
	iface *netem.Iface
	dir   netem.Direction // direction this endpoint SENDS in
	flow  string
	// port is the connection's handle in the Stack that filed it, and
	// peerPort the peer's in its own, from the last segment received (0:
	// none yet); see Stack.
	port, peerPort uint32
	state          State

	cb Callbacks
	// owner is whatever the layer above hangs on the connection so that
	// its hooks can be plain functions (see Config.Owner).
	owner any

	// Sender state.
	synOpt   any
	pending  int // bytes queued by Send and not yet sent (no Pull)
	sndUna   uint64
	sndNxt   uint64
	cwnd     float64 // bytes
	ssthresh float64 // bytes
	// sb is the SACK scoreboard (see scoreboard.go). Only this Conn's
	// sender-side methods flip an entry's rtxed/sacked/lost flags, and
	// each flip adjusts pipeBytes and lostPending by the entry's delta.
	sb scoreboard
	// pipeBytes is the RFC 6675 pipe, maintained incrementally: the sum
	// of sbEntry.inPipe over sb.
	pipeBytes int
	dupAcks   int
	// hiSacked is the monotone high-water mark of SACKed SeqEnds. It is
	// equivalent to rescanning the scoreboard (cumulative ACKs only ever
	// remove entries at or below sndUna, and every live entry ends above
	// it): once sndUna passes it no SACKed data remains, which is the
	// O(1) clean-path exit of detectLoss.
	hiSacked uint64
	// lostPending counts scoreboard entries that are lost, unsacked and
	// not yet retransmitted — the set nextLost scans for — so the send
	// loop skips the scan entirely outside recovery.
	lostPending int
	// sbVisits counts scoreboard entries visited by the O(window)
	// recovery scans (applySack, detectLoss, nextLost); tests pin that a
	// clean flow stops accruing them.
	sbVisits  uint64
	inRecov   bool
	recover   uint64
	peerWnd   int
	finQueued bool // send FIN once pending drains
	finSent   bool
	finAcked  bool
	forgotten bool // by its Stack (Stack.Forget)
	finSeq    uint64

	// RTT estimation (RFC 6298).
	srtt     time.Duration
	rttvar   time.Duration
	minRTT   time.Duration
	rto      time.Duration
	rtoTimer simnet.Timer
	rtoCount int // consecutive timeouts

	// Tail loss probe (simplified Linux TLP): one probe retransmission
	// of the newest unacked segment 2*SRTT after the send stream goes
	// quiet, so tail drops do not pay a full RTO.
	probeTimer simnet.Timer
	probeFired bool

	// Receiver state.
	rcvNxt     uint64
	ooo        Ranges // what arrived above rcvNxt
	lastOOO    Range  // the latest arrival above rcvNxt
	sackCursor int    // rotation cursor for SACK block reporting
	recvTotal  int64  // cumulative in-order payload bytes
	peerFin    bool
	peerFinAt  uint64

	// Diagnostics.
	Retransmits   int
	FastRecovers  int
	segmentsSent  int
	segmentsRecvd int
}

// Config parameterises NewConn.
type Config struct {
	// Callbacks are the hooks.
	Callbacks Callbacks
	// SynOpt is attached to the SYN (active open) or SYN-ACK (passive
	// open) segment; MPTCP uses it for MP_CAPABLE / MP_JOIN.
	SynOpt any
	// Owner is an opaque reference the connection carries for its user
	// (Conn.Owner). Every hook in Callbacks is handed the *Conn, so a
	// layer that wires many connections the same way — MPTCP and its
	// subflows — can share one set of package-level functions that
	// recover their state from it, instead of building a set of closures
	// per connection.
	Owner any
}

// NewConn creates an endpoint for the given flow on an interface. dir
// is the direction this endpoint's segments travel: netem.Up for the
// client side, netem.Down for the server side. The connection does
// nothing until Connect (active) or until a SYN is dispatched to it
// (passive, via Stack).
func NewConn(sim *simnet.Sim, iface *netem.Iface, dir netem.Direction, flow string, cfg Config) *Conn {
	c := simnet.SlabOf[Conn](sim).New()
	*c = Conn{
		sim:      sim,
		iface:    iface,
		dir:      dir,
		flow:     flow,
		state:    StateClosed,
		cb:       cfg.Callbacks,
		owner:    cfg.Owner,
		synOpt:   cfg.SynOpt,
		peerWnd:  DefaultWindow,
		rto:      InitialRTO,
		cwnd:     InitialCwndSegments * MSS,
		ssthresh: DefaultWindow,
	}
	return c
}

// Flow returns the connection's flow identifier.
func (c *Conn) Flow() string { return c.flow }

// SetCallbacks replaces the connection's event hooks. It is intended
// for use inside Stack.Accept, before any segment is processed.
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }

// Owner returns the reference set by Config.Owner or SetOwner (nil if
// neither was).
func (c *Conn) Owner() any { return c.owner }

// SetOwner replaces the owner reference. Like SetCallbacks it is meant
// for Stack.Accept, where a passively opened connection meets its user.
func (c *Conn) SetOwner(owner any) { c.owner = owner }

// SetSynOpt sets the option attached to the SYN-ACK of a passive open.
// Must be called inside Stack.Accept.
func (c *Conn) SetSynOpt(opt any) { c.synOpt = opt }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Iface returns the bound interface.
func (c *Conn) Iface() *netem.Iface { return c.iface }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// CwndBytes returns the congestion window in bytes.
func (c *Conn) CwndBytes() int { return int(c.cwnd) }

// BytesInFlight returns unacknowledged bytes.
func (c *Conn) BytesInFlight() int { return int(c.sndNxt - c.sndUna) }

// RecvTotal returns cumulative in-order payload bytes received.
func (c *Conn) RecvTotal() int64 { return c.recvTotal }

// SegmentsSent returns the count of segments this endpoint transmitted.
func (c *Conn) SegmentsSent() int { return c.segmentsSent }

// segment returns a header addressed as this connection's: its flow and
// both ports.
func (c *Conn) segment() netem.Segment {
	return netem.Segment{Flow: c.flow, SrcPort: c.port, DstPort: c.peerPort}
}

// Connect performs the active open (sends SYN).
func (c *Conn) Connect() {
	if c.state != StateClosed {
		panic("tcp: Connect on non-closed conn " + c.flow)
	}
	c.state = StateSynSent
	syn := c.segment()
	syn.Flags, syn.Wnd, syn.Opt = netem.FlagSYN, DefaultWindow, c.synOpt
	c.sndNxt = 1 // SYN consumes one
	c.track(&syn)
	c.transmit(&syn)
	c.armRTO()
}

// Send queues n more payload bytes for transmission. Only valid without
// Callbacks.Pull.
func (c *Conn) Send(n int) {
	if c.cb.Pull != nil {
		panic("tcp: Send on conn with Pull " + c.flow)
	}
	if n <= 0 {
		return
	}
	c.pending += n
	c.trySend()
}

// NotifyData tells a connection with Callbacks.Pull that data became
// available; the scheduler calls it after queueing mappings.
func (c *Conn) NotifyData() { c.trySend() }

// Close queues a FIN to be sent once the bytes queued by Send are out.
func (c *Conn) Close() {
	if c.finQueued || c.finSent {
		return
	}
	c.finQueued = true
	c.trySend()
}

// handle processes one arriving segment. Stack dispatches to it.
func (c *Conn) handle(seg *netem.Segment) {
	c.peerPort = seg.SrcPort
	c.segmentsRecvd++
	if c.cb.OnSegment != nil {
		c.cb.OnSegment(c, *seg)
	}
	switch c.state {
	case StateClosed:
		if seg.Flags.Has(netem.FlagSYN) && !seg.Flags.Has(netem.FlagACK) {
			c.passiveOpen(seg)
		}
		return
	case StateSynSent:
		if seg.Flags.Has(netem.FlagSYN | netem.FlagACK) {
			c.completeActiveOpen(seg)
		}
		return
	case StateSynRcvd:
		if seg.Flags.Has(netem.FlagACK) && seg.Ack >= 1 {
			c.becomeEstablished()
		}
		// Fall through: the ACK may carry data.
	}
	if seg.Flags.Has(netem.FlagSYN) {
		// Duplicate SYN-ACK (our handshake ACK was lost): re-ACK so the
		// peer can leave SYN_RCVD, then ignore the rest of the segment.
		c.sendAck()
		return
	}
	if seg.Flags.Has(netem.FlagACK) {
		c.processAck(seg)
	}
	if seg.PayloadLen > 0 {
		c.processData(seg)
	}
	if seg.Flags.Has(netem.FlagFIN) {
		c.processFin(seg)
	}
}

func (c *Conn) passiveOpen(syn *netem.Segment) {
	c.state = StateSynRcvd
	c.rcvNxt = syn.SeqEnd()
	c.peerWnd = int(syn.Wnd)
	synAck := c.segment()
	synAck.Flags, synAck.Ack, synAck.Wnd, synAck.Opt = netem.FlagSYN|netem.FlagACK, c.rcvNxt, DefaultWindow, c.synOpt
	c.sndNxt = 1
	c.track(&synAck)
	c.transmit(&synAck)
	c.armRTO()
}

func (c *Conn) completeActiveOpen(synAck *netem.Segment) {
	c.rcvNxt = synAck.SeqEnd()
	c.peerWnd = int(synAck.Wnd)
	c.ackRtxQueue(synAck.Ack)
	if synAck.Ack > c.sndUna {
		c.sndUna = synAck.Ack
	}
	if c.sb.n == 0 {
		c.cancelRTO()
	}
	c.becomeEstablished()
	// The handshake ACK (may be combined with data by trySend; send a
	// pure ACK first for protocol fidelity in captures).
	c.sendAck()
	c.trySend()
}

func (c *Conn) becomeEstablished() {
	if c.state == StateEstablished {
		return
	}
	c.state = StateEstablished
	if c.cb.OnEstablished != nil {
		c.cb.OnEstablished(c)
	}
	c.trySend()
}

// pipe estimates bytes currently in flight per RFC 6675: SACKed bytes
// have left the network; lost bytes count only if their retransmission
// is outstanding. The value is maintained at every scoreboard flag
// transition (see sbEntry.inPipe), so reading it is O(1).
func (c *Conn) pipe() int { return c.pipeBytes }

// trySend transmits retransmissions and new data as the congestion and
// peer windows allow (the RFC 6675 send loop).
//
//multinet:hotpath
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait && c.state != StateClosing {
		return
	}
	wnd := int(c.cwnd)
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	pipe := c.pipe()
	for wnd-pipe >= MSS || (wnd-pipe > 0 && pipe == 0) {
		// Retransmissions of lost segments take priority.
		if e := c.nextLost(); e != nil {
			c.markRetransmitted(e)
			c.retransmit(e)
			pipe += int(e.payload)
			continue
		}
		if c.state != StateEstablished && c.state != StateCloseWait {
			break // FIN already sent: no new data
		}
		budget := wnd - pipe
		max := MSS
		if budget < max {
			max = budget
		}
		n, dss, ok := c.next(max)
		if !ok {
			break
		}
		seg := c.segment()
		seg.Flags = netem.FlagACK
		if c.cb.Pull != nil {
			seg.Flags |= netem.FlagDSS
			seg.DSS = dss
		}
		seg.Seq = c.sndNxt
		seg.Ack = c.rcvNxt
		seg.PayloadLen = int32(n)
		seg.Wnd = DefaultWindow
		c.sndNxt += uint64(n)
		c.track(&seg)
		c.transmit(&seg)
		pipe += n
	}
	c.maybeSendFin()
	if c.sb.n > 0 {
		c.armRTOIfIdle()
		c.armProbe()
	}
}

// next takes the next chunk to send, of at most max bytes: from Pull
// when the connection has it, else from the bytes queued by Send.
func (c *Conn) next(max int) (int, netem.DSS, bool) {
	if c.cb.Pull != nil {
		return c.cb.Pull(c, max)
	}
	n := min(c.pending, max)
	c.pending -= n
	return n, netem.DSS{}, n > 0
}

// nextLost returns the earliest lost entry whose retransmission has not
// been sent yet, or nil. Outside recovery lostPending is zero and the
// scan is skipped.
func (c *Conn) nextLost() *sbEntry {
	if c.lostPending == 0 {
		return nil
	}
	for i := 0; i < c.sb.n; i++ {
		if e := c.sb.at(i); e.pendingLoss() {
			c.sbVisits += uint64(i + 1)
			return e
		}
	}
	c.sbVisits += uint64(c.sb.n)
	return nil
}

// markRetransmitted records that e is about to be resent (by the send
// loop, the tail loss probe or the RTO): it leaves the pending-loss set
// if it was in it, and its bytes re-enter the pipe.
func (c *Conn) markRetransmitted(e *sbEntry) {
	if e.pendingLoss() {
		c.lostPending--
		c.pipeBytes += int(e.payload)
	}
	e.rtxed = true
	e.sentAt = c.sim.Now()
	c.Retransmits++
}

func (c *Conn) maybeSendFin() {
	if !c.finQueued || c.finSent || c.pending > 0 {
		return
	}
	if c.state != StateEstablished && c.state != StateCloseWait {
		return
	}
	fin := c.segment()
	fin.Flags, fin.Seq, fin.Ack, fin.Wnd = netem.FlagFIN|netem.FlagACK, c.sndNxt, c.rcvNxt, DefaultWindow
	c.finSent = true
	c.finSeq = c.sndNxt
	c.sndNxt++
	if c.state == StateEstablished {
		c.state = StateFinWait
	} else {
		c.state = StateClosing
	}
	c.track(&fin)
	c.transmit(&fin)
	c.armRTOIfIdle()
}

// processAck handles the acknowledgement field and SACK scoreboard.
//
//multinet:hotpath
func (c *Conn) processAck(seg *netem.Segment) {
	c.peerWnd = int(seg.Wnd)
	c.applySack(seg.Sack[:seg.NSack])
	switch {
	case seg.Ack > c.sndUna:
		acked := int(seg.Ack - c.sndUna)
		c.ackRtxQueue(seg.Ack)
		c.dupAcks = 0
		c.rtoCount = 0
		dataAcked := acked
		if c.finSent && seg.Ack > c.finSeq {
			dataAcked-- // FIN consumed one unit
			c.finAcked = true
		}
		if seg.Ack > 0 && c.sndUna == 0 {
			dataAcked-- // SYN consumed one unit
		}
		c.sndUna = seg.Ack
		if c.inRecov && seg.Ack >= c.recover {
			c.inRecov = false
		}
		if !c.inRecov && dataAcked > 0 {
			if c.cwnd < c.ssthresh {
				c.cwnd += float64(dataAcked) // slow start
			} else if c.cb.Increase != nil {
				c.cwnd += c.cb.Increase(c, dataAcked)
			} else {
				c.cwnd += RenoIncrease(c, dataAcked)
			}
		}
		c.probeFired = false
		if c.sb.n == 0 {
			c.cancelRTO()
			c.cancelProbe()
		} else {
			c.armRTO()
			c.armProbe()
		}
		c.checkClosed()
		c.detectLoss()
		c.trySend()
	case seg.Ack == c.sndUna && c.BytesInFlight() > 0 && seg.PayloadLen == 0 &&
		!seg.Flags.Has(netem.FlagSYN) && !seg.Flags.Has(netem.FlagFIN):
		c.dupAcks++
		c.detectLoss()
		c.trySend()
	}
}

// applySack marks scoreboard entries covered by the blocks.
func (c *Conn) applySack(blocks []netem.SackBlock) {
	if len(blocks) == 0 {
		return
	}
	c.sbVisits += uint64(c.sb.n)
	for i := 0; i < c.sb.n; i++ {
		e := c.sb.at(i)
		if e.sacked {
			continue
		}
		end := e.seqEnd()
		for _, b := range blocks {
			if e.seq >= b.Lo && end <= b.Hi {
				if e.lost && !e.rtxed {
					c.lostPending--
				} else {
					c.pipeBytes -= int(e.payload)
				}
				e.sacked = true
				if end > c.hiSacked {
					c.hiSacked = end
				}
				break
			}
		}
	}
}

// detectLoss applies the RFC 6675 loss rule (a hole with >= 3*MSS of
// SACKed data above it is lost) plus the classic three-dupACK rule for
// the first unacked segment, and enters recovery on fresh loss. A clean
// flow exits without touching the scoreboard: every live entry ends
// above sndUna, so with no SACKed data above sndUna neither SACK rule
// can fire, and without a dupACK run the third cannot. hiSacked is
// never reset, which is why the guard compares it with sndUna, not
// with zero.
func (c *Conn) detectLoss() {
	if c.hiSacked <= c.sndUna && c.dupAcks < 3 {
		return // no rule can mark anything lost
	}
	newLoss := false
	c.sbVisits += uint64(c.sb.n)
	for i := 0; i < c.sb.n; i++ {
		e := c.sb.at(i)
		if e.sacked || e.lost {
			continue
		}
		end := e.seqEnd()
		byRule := c.hiSacked > 0 && end+3*MSS <= c.hiSacked
		// After a tail loss probe, any hole below the highest SACK is
		// lost (TLP early retransmit: the probe proved the path works).
		byProbe := c.probeFired && c.hiSacked > 0 && end <= c.hiSacked
		byDup := c.dupAcks >= 3 && e.seq == c.sndUna
		if byRule || byProbe || byDup {
			e.lost = true
			if !e.rtxed {
				c.lostPending++
				c.pipeBytes -= int(e.payload)
			}
			newLoss = true
		}
	}
	if newLoss && !c.inRecov {
		c.enterRecovery()
	}
}

func (c *Conn) enterRecovery() {
	c.FastRecovers++
	// Halve the pre-loss flight (not the post-SACK pipe, which can be
	// near zero after a burst loss and would strangle the recovery).
	ss := float64(c.BytesInFlight()) / 2
	if ss < 2*MSS {
		ss = 2 * MSS
	}
	c.ssthresh = ss
	c.cwnd = ss
	c.recover = c.sndNxt
	c.inRecov = true
}

// processData handles payload bytes.
func (c *Conn) processData(seg *netem.Segment) {
	lo, hi := seg.Seq, seg.Seq+uint64(seg.PayloadLen)
	if lo > c.rcvNxt {
		c.lastOOO = Range{lo, hi}
	}
	c.rcvNxt = c.ooo.Add(c.sim, c.rcvNxt, lo, hi)
	newTotal := int64(0)
	if c.rcvNxt > 0 {
		newTotal = int64(c.rcvNxt - 1) // minus SYN
	}
	if c.peerFin && c.rcvNxt > c.peerFinAt {
		newTotal--
	}
	advanced := newTotal > c.recvTotal
	if advanced {
		c.recvTotal = newTotal
	}
	c.sendAck()
	if advanced && c.cb.OnData != nil {
		c.cb.OnData(c, c.recvTotal)
	}
}

// fillSack writes up to MaxSackBlocks out-of-order intervals into seg's
// SACK option, RFC 2018 style: the block containing the most recent
// arrival first, then a rotating window over the rest so that a sender
// facing many holes eventually learns the whole scoreboard.
func (c *Conn) fillSack(seg *netem.Segment) {
	ooo := c.ooo.r
	if len(ooo) == 0 {
		return
	}
	blocks := seg.Sack[:0] // never outgrows the array
	// Most recent first: find the range containing lastOOO.
	for _, r := range ooo {
		if c.lastOOO.Lo >= r.Lo && c.lastOOO.Hi <= r.Hi {
			blocks = append(blocks, netem.SackBlock(r))
			break
		}
	}
	for i := 0; i < len(ooo) && len(blocks) < netem.MaxSackBlocks; i++ {
		if b := netem.SackBlock(ooo[(c.sackCursor+i)%len(ooo)]); !slices.Contains(blocks, b) {
			blocks = append(blocks, b)
		}
	}
	seg.NSack = uint8(len(blocks))
	c.sackCursor = (c.sackCursor + netem.MaxSackBlocks - 1) % len(ooo)
}

func (c *Conn) processFin(seg *netem.Segment) {
	finSeq := seg.Seq + uint64(seg.PayloadLen)
	if finSeq > c.rcvNxt {
		// FIN beyond our in-order point (data still missing): note it
		// and wait; the retransmissions will fill the hole.
		return
	}
	if !c.peerFin {
		c.peerFin = true
		c.peerFinAt = finSeq
		if c.rcvNxt == finSeq {
			c.rcvNxt = finSeq + 1
		}
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait:
			c.state = StateClosing
		}
	}
	c.sendAck()
	c.checkClosed()
}

func (c *Conn) checkClosed() {
	if c.state == StateDone {
		return
	}
	if c.finSent && c.finAcked && c.peerFin {
		c.state = StateDone
		c.cancelRTO()
		if c.cb.OnClosed != nil {
			c.cb.OnClosed(c)
		}
	}
}

// sendAck emits a pure ACK carrying current SACK blocks (and a DSS if
// hooked).
func (c *Conn) sendAck() {
	ack := c.segment()
	ack.Flags, ack.Seq, ack.Ack, ack.Wnd = netem.FlagACK, c.sndNxt, c.rcvNxt, DefaultWindow
	if c.cb.AckOpt != nil {
		ack.Flags |= netem.FlagDSS
		ack.DSS = c.cb.AckOpt(c)
	}
	c.fillSack(&ack)
	c.transmit(&ack)
}

// SendWindowUpdate emits a pure ACK advertising the current window.
// MPTCP backup mode uses it to reproduce the paper's Fig. 15g trace.
func (c *Conn) SendWindowUpdate() { c.sendAck() }

// ackRtxQueue drops fully-acked entries, takes an RTT sample, and fires
// the DSS-ack callback. The RTT sample comes from the most recently
// sent never-retransmitted entry covered by the ACK (Karn's algorithm);
// older covered entries would inflate the estimate when a cumulative
// ACK releases a burst at once.
func (c *Conn) ackRtxQueue(ack uint64) {
	if sampleAt := c.ackScoreboard(ack); sampleAt >= 0 {
		c.rttSample(c.sim.Now() - sampleAt)
	}
}

// ackScoreboard pops the scoreboard entries ack covers and returns the
// newest never-retransmitted send time among them (-1 if none).
//
// OnMappedAck re-enters the sender (mptcp: onMappingAcked → wake →
// trySend) while the covered entries are still queued and sndUna is
// still old, so an entry's bytes leave pipeBytes only when the entry
// itself leaves the ring, after the callback: a nested send sees the
// same pipe a scan of the scoreboard would give it.
func (c *Conn) ackScoreboard(ack uint64) (sampleAt time.Duration) {
	sampleAt = -1
	mapped := false
	i := 0
	for ; i < c.sb.n; i++ {
		e := c.sb.at(i)
		if e.seqEnd() > ack {
			break
		}
		if e.pendingLoss() {
			c.lostPending--
		}
		if !e.rtxed && e.sentAt > sampleAt {
			sampleAt = e.sentAt
		}
		mapped = mapped || e.flags.Has(netem.FlagDSS)
	}
	if mapped && c.cb.OnMappedAck != nil {
		c.cb.OnMappedAck(c) // may push entries behind the covered ones
	}
	for ; i > 0; i-- {
		c.pipeBytes -= c.sb.at(0).inPipe()
		c.sb.popFront()
	}
	return sampleAt
}

func (c *Conn) rttSample(r time.Duration) {
	if r <= 0 {
		r = time.Microsecond
	}
	if c.minRTT == 0 || r < c.minRTT {
		c.minRTT = r
	}
	// HyStart-style delay increase detection: leave slow start when the
	// RTT has clearly risen above its floor — the queue is building.
	// (Linux has shipped HyStart since 2.6.29; without it the simulated
	// slow start overshoots deep buffers by 2-3x.)
	if c.cwnd < c.ssthresh {
		eta := c.minRTT / 8
		if eta < 4*time.Millisecond {
			eta = 4 * time.Millisecond
		}
		if eta > 16*time.Millisecond {
			eta = 16 * time.Millisecond
		}
		if r > c.minRTT+eta {
			c.ssthresh = c.cwnd
		}
	}
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < MinRTO {
		c.rto = MinRTO
	}
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
}

// track snapshots a segment into the retransmission scoreboard as it is
// transmitted.
func (c *Conn) track(seg *netem.Segment) {
	if seg.PayloadLen > 0 || seg.Flags.Has(netem.FlagSYN) || seg.Flags.Has(netem.FlagFIN) {
		c.sb.push(c.sim, sbEntry{
			seq: seg.Seq, sentAt: c.sim.Now(), dss: seg.DSS,
			payload: int32(seg.PayloadLen), flags: seg.Flags,
		})
		c.pipeBytes += int(seg.PayloadLen)
	}
}

// transmit hands the segment to the interface, which copies it into the
// packet: the caller's segment is its own again when transmit returns.
//
//multinet:hotpath
func (c *Conn) transmit(seg *netem.Segment) {
	c.segmentsSent++
	if c.dir == netem.Up {
		c.iface.SendUp(seg.WireSize(), seg)
	} else {
		c.iface.SendDown(seg.WireSize(), seg)
	}
}

// retransmit rebuilds the segment from a scoreboard entry.
// Everything the entry does not store is the same for every tracked
// segment of this connection (flow, advertised window, no SACK blocks,
// a SYN's option) or is taken from the present: the ACK field carries
// the current receive point (the RFC 793 rule), the ports the current
// addressing. The DSS is the entry's, DATA_ACK included: a copy repeats
// the option its original carried.
func (c *Conn) retransmit(e *sbEntry) {
	seg := c.segment()
	seg.Flags, seg.Seq, seg.Ack = e.flags, e.seq, c.rcvNxt
	seg.PayloadLen, seg.Wnd, seg.DSS = e.payload, DefaultWindow, e.dss
	if e.flags.Has(netem.FlagSYN) {
		seg.Opt = c.synOpt
	}
	if seg.Ack > 0 {
		seg.Flags |= netem.FlagACK
	}
	c.transmit(&seg)
}

func connOnRTO(a any)   { a.(*Conn).onRTO() }
func connOnProbe(a any) { a.(*Conn).onProbe() }

// armRTO (re)arms the retransmission timer from now. It runs on every
// cumulative ACK, and an ACK almost always pushes the deadline out, so
// the kernel moves the pending event where it sits (simnet.RearmArg):
// the per-ACK timer churn is four field writes, no unlink, no re-file
// and no allocation.
func (c *Conn) armRTO() {
	c.rtoTimer = c.sim.RearmArg(c.rtoTimer, c.sim.Now()+c.rto, connOnRTO, c)
}

func (c *Conn) armRTOIfIdle() {
	if !c.rtoTimer.Active() {
		c.armRTO()
	}
}

func (c *Conn) cancelRTO() {
	c.rtoTimer.Stop()
}

// armProbe schedules the tail loss probe 2*SRTT out (minimum 10 ms),
// replacing any previous schedule. The probe is disabled until the
// first RTT sample and after it has fired once for the current
// outstanding data.
func (c *Conn) armProbe() {
	if c.probeFired || c.srtt == 0 || c.sb.n == 0 {
		return
	}
	pto := 2 * c.srtt
	if pto < 10*time.Millisecond {
		pto = 10 * time.Millisecond
	}
	if pto > c.rto {
		return // RTO fires first anyway (stale schedules stay armed)
	}
	c.probeTimer = c.sim.RearmArg(c.probeTimer, c.sim.Now()+pto, connOnProbe, c)
}

func (c *Conn) cancelProbe() {
	c.probeTimer.Stop()
}

func (c *Conn) onProbe() {
	if c.sb.n == 0 || c.state == StateDone {
		return
	}
	c.probeFired = true
	// Retransmit the newest unacked data segment (data, because only
	// data is SACKable); its ACK lets SACK-based recovery find the tail
	// holes without waiting for the RTO.
	e := c.sb.at(c.sb.n - 1)
	for i := c.sb.n - 1; i >= 0; i-- {
		if x := c.sb.at(i); x.payload > 0 {
			e = x
			break
		}
	}
	c.markRetransmitted(e)
	c.retransmit(e)
}

// Abort terminates the connection immediately: timers stop, the state
// becomes Done, and OnClosed fires. Used when the interface is removed
// (MPTCP subflow teardown) and when the retry budget is exhausted.
func (c *Conn) Abort() {
	if c.state == StateDone {
		return
	}
	c.state = StateDone
	c.cancelRTO()
	c.cancelProbe()
	if c.cb.OnClosed != nil {
		c.cb.OnClosed(c)
	}
}

func (c *Conn) onRTO() {
	if c.sb.n == 0 || c.state == StateDone {
		return
	}
	c.rtoCount++
	if c.rtoCount > MaxConsecutiveRTOs {
		c.Abort()
		return
	}
	// Collapse the window and mark every outstanding segment lost so
	// the send loop retransmits from the front in slow start.
	flight := float64(c.BytesInFlight())
	ss := flight / 2
	if ss < 2*MSS {
		ss = 2 * MSS
	}
	c.ssthresh = ss
	c.cwnd = MSS
	c.inRecov = false
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
	c.lostPending = 0
	for i := 0; i < c.sb.n; i++ {
		e := c.sb.at(i)
		if !e.sacked {
			c.pipeBytes -= e.inPipe()
			e.lost = true
			e.rtxed = false
			c.lostPending++
		}
	}
	// Retransmit the head immediately (trySend would also do it, but
	// zero-payload SYN/FIN entries bypass the pipe budget there).
	e := c.sb.at(0)
	c.markRetransmitted(e)
	c.retransmit(e)
	c.armRTO()
	if c.cb.OnRTO != nil {
		c.cb.OnRTO(c, c.rtoCount)
	}
}

// String describes the connection.
func (c *Conn) String() string {
	return fmt.Sprintf("conn(%s %s cwnd=%d inflight=%d)", c.flow, c.state, int(c.cwnd), c.BytesInFlight())
}
