package mptcp

import (
	"fmt"
	"sort"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// DefaultRecvBuf is the connection-level receive buffer: the scheduler
// never maps data more than this far beyond the receiver's cumulative
// data-ACK. Matches the order of Linux MPTCP's default rmem; it is the
// knob behind receive-window head-of-line blocking on disparate paths.
const DefaultRecvBuf = 512 << 10

// Config parameterises an MPTCP connection.
type Config struct {
	// ConnID uniquely names the connection; subflow flow IDs are
	// ConnID+"/"+iface.
	ConnID string
	// Primary is the interface for the primary subflow.
	Primary string
	// CC selects coupled (LIA) or decoupled (Reno) congestion control.
	CC CongestionMode
	// Mode selects Full-MPTCP or Backup operation.
	Mode Mode
	// BackupIfaces names the interfaces whose subflows are
	// backup-priority (only meaningful in Backup mode).
	BackupIfaces []string
	// RecvBuf bounds scheduling ahead of the peer's data-ACK
	// (default DefaultRecvBuf).
	RecvBuf int
	// NoJoin disables additional subflows (ablation: primary only).
	NoJoin bool
	// SimultaneousJoin starts all subflows at Dial time instead of
	// waiting for the primary handshake (ablation for the paper's
	// late-join effect).
	SimultaneousJoin bool
	// Scheduler names the registered data scheduler (see
	// RegisterScheduler); empty means SchedMinSRTT, the Linux default.
	Scheduler string
	// RoundRobin is the legacy ablation flag, equivalent to
	// Scheduler: SchedRoundRobin (ignored when Scheduler is set).
	RoundRobin bool
	// RejoinBackoff is the client-side delay before re-establishing a
	// subflow after its interface recovers from an administrative down
	// (default DefaultRejoinBackoff). Each consecutive failed re-join
	// attempt doubles it, up to a fixed cap.
	RejoinBackoff time.Duration
	// WatchdogRTOs, when positive, enables the per-connection stuck-flow
	// watchdog: with data pending and no forward progress across this
	// many virtual RTO spans, the connection records a stall event and
	// reinjects outstanding mappings; after WatchdogMaxStalls consecutive
	// stalls it aborts, so a chaos run can never hang silently.
	WatchdogRTOs int
	// WatchdogMaxStalls bounds consecutive stall events before the
	// watchdog gives up and aborts the connection (default
	// DefaultWatchdogMaxStalls).
	WatchdogMaxStalls int
}

// DefaultRejoinBackoff is the initial re-join delay after an interface
// recovers — long enough to let the link settle, short against any RTO.
const DefaultRejoinBackoff = 200 * time.Millisecond

// rejoinBackoffCap bounds exponential re-join backoff.
const rejoinBackoffCap = 10 * time.Second

// DefaultWatchdogMaxStalls is how many consecutive stall events the
// watchdog tolerates before aborting the connection.
const DefaultWatchdogMaxStalls = 3

func (c *Config) rejoinBackoff() time.Duration {
	if c.RejoinBackoff <= 0 {
		return DefaultRejoinBackoff
	}
	return c.RejoinBackoff
}

func (c *Config) watchdogMaxStalls() int {
	if c.WatchdogMaxStalls <= 0 {
		return DefaultWatchdogMaxStalls
	}
	return c.WatchdogMaxStalls
}

func (c *Config) recvBuf() int {
	if c.RecvBuf <= 0 {
		return DefaultRecvBuf
	}
	return c.RecvBuf
}

// Callbacks are connection-level event hooks.
type Callbacks struct {
	// OnEstablished fires when the primary subflow completes its
	// handshake.
	OnEstablished func(*Conn)
	// OnSubflowEstablished fires per subflow.
	OnSubflowEstablished func(*Conn, *Subflow)
	// OnData fires when connection-level in-order data advances.
	OnData func(c *Conn, total int64)
	// OnClosed fires when all subflows have fully closed.
	OnClosed func(*Conn)
	// OnStall fires when the stuck-flow watchdog records a stall event
	// (total is the connection's cumulative stall count).
	OnStall func(c *Conn, total int)
}

// mapping is a scheduled chunk of the connection-level byte stream.
type mapping struct {
	dataSeq uint64
	len     int
}

func (m mapping) end() uint64 { return m.dataSeq + uint64(m.len) }

// Subflow is one TCP subflow of an MPTCP connection. Like the Conn it
// belongs to it is carved from the Sim's slab and dead at Sim.Release.
type Subflow struct {
	TCP    *tcp.Conn
	Iface  *netem.Iface
	Backup bool

	// The flags and the attempt count share Backup's word: with them
	// spread out the join option below would tip the handle into the
	// next size class, which every never-released world would pay
	// (TestColdWorldBytes).
	established bool
	dead        bool // administratively down
	reinjected  bool // reinjection already performed for current stall
	// Re-join state (client side): a dead subflow whose interface came
	// back up re-establishes on a fresh tcp.Conn after a backoff.
	rejoining      bool  // a re-join handshake is in flight
	rejoinAttempts uint8 // consecutive failed re-joins (drives backoff), <= maxRejoinAttempts
	rejoinTimer    simnet.Timer

	conn *Conn
	// join is the MP_JOIN option the subflow's SYNs carry. It rides in
	// the handle, as Conn.capable does: an option is read by the peer's
	// stack and by scoreboards of this same world, never after it.
	join        MPJoin
	outstanding mapq // mappings sent on this subflow, not yet subflow-acked
	ackScratch  mapq // double buffer for onMappingAcked rebuilds
	dupQueue    mapq // scheduler-duplicated mappings awaiting send
}

// Name returns the subflow's flow identifier.
func (sf *Subflow) Name() string { return sf.TCP.Flow() }

// Established reports whether the subflow handshake completed.
func (sf *Subflow) Established() bool { return sf.established }

// Dead reports whether the subflow was administratively killed.
func (sf *Subflow) Dead() bool { return sf.dead }

// Conn is one endpoint of an MPTCP connection. Both the client and the
// server side use this type; the client side initiates subflows.
//
// A Conn, its Subflows and the list Subflows returns are carved from the
// Sim's slab and live exactly as long as the world: after Sim.Release
// they are zeroed memory the next world hands out again, so read what
// you need from them before releasing.
type Conn struct {
	sim  *simnet.Sim
	dss  *simnet.FreeList[DSS] // sim's; looked up once
	cfg  Config
	cb   Callbacks
	side tcp.Side

	stack    *tcp.Stack
	host     *netem.Host
	subflows []*Subflow // a piece of the Sim's slab
	// capable is the MP_CAPABLE option of the primary's SYN. With the
	// four flags below in one word it fits the size class the handle had
	// without it (TestColdWorldBytes).
	capable MPCapable

	// Sender state.
	sendTotal uint64 // bytes queued by the application
	dataNxt   uint64 // next unscheduled connection-level byte
	dataUna   uint64 // cumulative data-ACK from the peer
	rtxPool   mapq
	closeReq  bool
	closed    bool
	// everEstablished records whether any subflow ever completed its
	// handshake: it gates the one-shot OnEstablished callback and decides
	// whether a re-join SYN carries MP_JOIN or restarts with MP_CAPABLE.
	everEstablished bool
	// aborted records that AbortAll terminated the connection (watchdog
	// gave up or a harness forced quiescence) — delivery-completeness
	// invariants do not apply to aborted connections.
	aborted bool

	// Receiver state.
	rcvNxt    uint64
	ooo       []mapping // out-of-order received intervals (sorted)
	recvTotal int64

	// Scheduling policy (see Scheduler).
	sched Scheduler
	// eligScratch is reused by modeEligible; wake consults it once per
	// data/ack event, so rebuilding it must not allocate. It is a piece
	// of the Sim's slab.
	eligScratch []*Subflow

	// Stuck-flow watchdog state (armed only when Config.WatchdogRTOs>0).
	watch     simnet.Timer
	watchUna  uint64 // dataUna snapshot at last watchdog arm
	watchRecv int64  // recvTotal snapshot at last watchdog arm
	stallRun  int    // consecutive stall events without progress

	// Diagnostics.
	Reinjections int
	// StallCount is the total number of watchdog stall events recorded.
	StallCount int
}

// newConn builds the common state.
func newConn(sim *simnet.Sim, stack *tcp.Stack, host *netem.Host, side tcp.Side, cfg Config, cb Callbacks) *Conn {
	if cfg.ConnID == "" {
		panic("mptcp: ConnID required")
	}
	c := simnet.SlabOf[Conn](sim).New()
	*c = Conn{sim: sim, dss: simnet.FreeListOf[DSS](sim), cfg: cfg, cb: cb, side: side,
		stack: stack, host: host, capable: MPCapable{ConnID: cfg.ConnID}, sched: schedulerFor(cfg)}
	return c
}

// Dial opens an MPTCP connection from the client side: the primary
// subflow starts its handshake immediately; joins follow per Config.
func Dial(sim *simnet.Sim, stack *tcp.Stack, host *netem.Host, cfg Config, cb Callbacks) *Conn {
	c := newConn(sim, stack, host, tcp.ClientSide, cfg, cb)
	primary := host.Iface(cfg.Primary)
	if primary == nil {
		panic("mptcp: unknown primary iface " + cfg.Primary)
	}
	c.addSubflow(primary, c.isBackupIface(cfg.Primary), true)
	if cfg.SimultaneousJoin && !cfg.NoJoin {
		c.startJoins()
	}
	return c
}

func (c *Conn) isBackupIface(name string) bool {
	for _, b := range c.cfg.BackupIfaces {
		if b == name {
			return true
		}
	}
	return false
}

// startJoins initiates an MP_JOIN subflow on every interface that does
// not yet carry one.
func (c *Conn) startJoins() {
	for _, iface := range c.host.Ifaces() {
		if c.subflowOn(iface.Name) != nil {
			continue
		}
		c.addSubflow(iface, c.isBackupIface(iface.Name), false)
	}
}

func (c *Conn) subflowOn(ifaceName string) *Subflow {
	for _, sf := range c.subflows {
		if sf.Iface.Name == ifaceName {
			return sf
		}
	}
	return nil
}

// newSubflow builds an unconnected subflow of c on iface and subscribes
// it to the interface's administrative state: the iproute `multipath
// off` signal of paper Section 3.6.
func (c *Conn) newSubflow(iface *netem.Iface, backup bool) *Subflow {
	sf := simnet.SlabOf[Subflow](c.sim).New()
	*sf = Subflow{Iface: iface, Backup: backup, conn: c, join: MPJoin{ConnID: c.cfg.ConnID, Backup: backup}}
	if len(c.subflows) == cap(c.subflows) {
		// Room for a two-path host at once; eligScratch grows in step.
		c.subflows = simnet.SlabOf[*Subflow](c.sim).Grow(c.subflows, max(2, len(c.subflows)+1))
	}
	c.subflows = append(c.subflows, sf)
	iface.SubscribeDown(subflowIfaceDown, sf)
	return sf
}

// dialSubflow gives sf a new tcp.Conn and starts its handshake (the
// first one, or a re-join's). The SYN carries MP_CAPABLE when capable,
// MP_JOIN otherwise.
func (c *Conn) dialSubflow(sf *Subflow, capable bool) {
	var synOpt any = &sf.join
	if capable {
		synOpt = &c.capable
	}
	flow := c.cfg.ConnID + "/" + sf.Iface.Name
	sf.TCP = tcp.NewConn(c.sim, sf.Iface, netem.Up, flow, tcp.Config{
		Source:    (*sfSource)(sf),
		SynOpt:    synOpt,
		Callbacks: subflowCallbacks(),
		Owner:     sf,
	})
	c.stack.Register(sf.TCP)
	sf.TCP.Connect()
}

// addSubflow creates and connects a client-side subflow.
func (c *Conn) addSubflow(iface *netem.Iface, backup, capable bool) *Subflow {
	sf := c.newSubflow(iface, backup)
	c.dialSubflow(sf, capable)
	return sf
}

// adoptSubflow attaches a passively-opened subflow (server side).
func (c *Conn) adoptSubflow(tc *tcp.Conn, iface *netem.Iface, backup bool) *Subflow {
	sf := c.newSubflow(iface, backup)
	sf.TCP = tc
	tc.SetOwner(sf)
	tc.SetSource((*sfSource)(sf))
	tc.SetCallbacks(subflowCallbacks())
	if c.cfg.CC == Coupled {
		tc.SetIncrease(liaIncrease)
	}
	return sf
}

// Every subflow is wired with the same functions: the tcp.Conn carries
// its Subflow as its owner reference (tcp.Config.Owner) and each hook
// recovers it from there, so wiring a subflow builds no closure. A
// Subflow outlives its tcp.Conn across a re-join; the superseded
// tcp.Conn keeps naming it, as the closures it replaced did.

func subflowOf(tc *tcp.Conn) *Subflow { return tc.Owner().(*Subflow) }

func subflowCallbacks() tcp.Callbacks {
	return tcp.Callbacks{
		OnEstablished: func(tc *tcp.Conn) {
			sf := subflowOf(tc)
			sf.conn.subflowEstablished(sf)
		},
		OnSegment: func(tc *tcp.Conn, seg *tcp.Segment) {
			sf := subflowOf(tc)
			sf.conn.onSegment(sf, seg)
		},
		OnAckedOpt: func(tc *tcp.Conn, opt any) {
			sf := subflowOf(tc)
			sf.conn.onMappingAcked(sf, opt)
		},
		AckOpt: func(tc *tcp.Conn) any { return subflowOf(tc).conn.newDSS(0, 0) },
		OnRTO: func(tc *tcp.Conn, count int) {
			sf := subflowOf(tc)
			sf.conn.onSubflowRTO(sf, count)
		},
		OnClosed: func(tc *tcp.Conn) {
			sf := subflowOf(tc)
			sf.conn.onSubflowClosed(sf)
		},
	}
}

// subflowIfaceDown is every subflow's netem.Iface.SubscribeDown hook.
func subflowIfaceDown(a any, down bool) {
	sf := a.(*Subflow)
	if down {
		sf.conn.subflowDied(sf)
	} else {
		sf.conn.subflowRevived(sf)
	}
}

func (c *Conn) subflowEstablished(sf *Subflow) {
	first := !c.everEstablished
	c.everEstablished = true
	sf.established = true
	if sf.rejoining {
		// The re-join handshake completed: the subflow is a full member
		// again, and the backoff ladder resets.
		sf.rejoining = false
		sf.dead = false
		sf.rejoinAttempts = 0
	}
	if c.cfg.CC == Coupled {
		sf.TCP.SetIncrease(liaIncrease)
	}
	if c.cb.OnSubflowEstablished != nil {
		c.cb.OnSubflowEstablished(c, sf)
	}
	if first {
		if c.cb.OnEstablished != nil {
			c.cb.OnEstablished(c)
		}
		// Linux initiates MP_JOINs once the MP_CAPABLE handshake is
		// done — the "late join" at the heart of the paper's short-flow
		// findings.
		if c.side == tcp.ClientSide && !c.cfg.NoJoin && !c.cfg.SimultaneousJoin {
			c.startJoins()
		}
	}
	c.wake()
}

// Send queues n bytes of application data for striped transmission.
func (c *Conn) Send(n int) {
	if n <= 0 {
		return
	}
	c.sendTotal += uint64(n)
	c.armWatchdog()
	c.wake()
}

// Close requests connection shutdown once all queued data is delivered.
func (c *Conn) Close() {
	c.closeReq = true
	c.maybeClose()
}

// RecvTotal returns cumulative connection-level in-order bytes received.
func (c *Conn) RecvTotal() int64 { return c.recvTotal }

// Subflows returns the subflows in creation order. The list is the
// connection's own: read it, do not append to it.
func (c *Conn) Subflows() []*Subflow { return c.subflows }

// Primary returns the first subflow.
func (c *Conn) Primary() *Subflow {
	if len(c.subflows) == 0 {
		return nil
	}
	return c.subflows[0]
}

// ConnID returns the connection identifier.
func (c *Conn) ConnID() string { return c.cfg.ConnID }

// SendTotal returns cumulative bytes queued by the application.
func (c *Conn) SendTotal() uint64 { return c.sendTotal }

// DataAcked returns the cumulative data-level acknowledgement (bytes the
// peer has confirmed receiving in order).
func (c *Conn) DataAcked() uint64 { return c.dataUna }

// DataScheduled returns the high-water mark of connection-level bytes
// handed to subflows (dataNxt).
func (c *Conn) DataScheduled() uint64 { return c.dataNxt }

// RcvNxt returns the next in-order connection-level byte expected.
func (c *Conn) RcvNxt() uint64 { return c.rcvNxt }

// Closed reports whether the connection has fully closed or aborted.
func (c *Conn) Closed() bool { return c.closed }

// Aborted reports whether AbortAll terminated the connection.
func (c *Conn) Aborted() bool { return c.aborted }

// OOORecords returns the number of out-of-order receive intervals held.
func (c *Conn) OOORecords() int { return len(c.ooo) }

// UncoveredBytes measures the stranded-mapping gap: bytes in
// [dataUna, dataNxt) — scheduled but not yet data-acked — that no live
// mapping record covers. A mapping counts as coverage if it sits in the
// connection-level rtxPool or is held (outstanding or duplicate-queued)
// by a subflow that is alive and able to retransmit it. Dead or fully
// terminated subflows cannot retransmit, so their records do not count:
// subflowDied must have moved them to rtxPool already. The invariant
// checker asserts this is zero whenever the connection is not closed —
// a nonzero value means a fault path stranded data that nothing will
// ever resend.
func (c *Conn) UncoveredBytes() uint64 {
	if c.dataNxt <= c.dataUna {
		return 0
	}
	iv := c.rtxPool.appendTo(make([]mapping, 0, c.rtxPool.len()+8))
	for _, sf := range c.subflows {
		if sf.dead || sf.TCP.State() == tcp.StateDone {
			continue
		}
		iv = sf.outstanding.appendTo(iv)
		iv = sf.dupQueue.appendTo(iv)
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].dataSeq < iv[j].dataSeq })
	covered := uint64(0)
	pos := c.dataUna
	for _, m := range iv {
		end := m.end()
		if end <= pos {
			continue
		}
		lo := m.dataSeq
		if lo < pos {
			lo = pos
		}
		if lo >= c.dataNxt {
			break
		}
		if end > c.dataNxt {
			end = c.dataNxt
		}
		covered += end - lo
		pos = end
	}
	return (c.dataNxt - c.dataUna) - covered
}

// wake offers data to eligible subflows in the scheduler's priority
// order. Each NotifyData lets that subflow pull mappings until its
// window fills, so earlier-ranked paths are preferred whenever several
// have room. hasDataFor is per-subflow once a scheduler gates
// admission (or holds per-subflow duplicate queues), so a refusal for
// one subflow must not starve later ones: continue, never break.
//
//multinet:hotpath
func (c *Conn) wake() {
	sfs := c.sched.Rank(c, c.modeEligible())
	for _, sf := range sfs {
		if !c.hasDataFor(sf) {
			continue
		}
		sf.TCP.NotifyData()
	}
}

// eligible reports whether sf may carry data right now (established,
// alive, and allowed by Backup-mode gating).
func (c *Conn) eligible(sf *Subflow) bool {
	return sf.established && !sf.dead && c.allowedByMode(sf)
}

// modeEligible returns the established, usable subflows in creation
// order; the scheduler's Rank imposes the offering order. The returned
// slice is the connection's reusable scratch: it is valid until the
// next modeEligible call, and only wake (whose iteration finishes
// before any nested data event can re-enter) may hold it.
func (c *Conn) modeEligible() []*Subflow {
	if cap(c.eligScratch) < len(c.subflows) {
		// Room for as many as subflows has, so the two grow in step.
		c.eligScratch = simnet.SlabOf[*Subflow](c.sim).Make(cap(c.subflows))
	}
	out := c.eligScratch[:0]
	for _, sf := range c.subflows {
		if c.eligible(sf) {
			out = append(out, sf)
		}
	}
	c.eligScratch = out
	return out
}

// allowedByMode applies Backup-mode gating: backup subflows carry data
// only when every regular subflow is administratively dead. A silently
// blackholed regular subflow does NOT activate backups — that is the
// paper's Fig. 15g behaviour.
func (c *Conn) allowedByMode(sf *Subflow) bool {
	if c.cfg.Mode != Backup || !sf.Backup {
		return true
	}
	for _, other := range c.subflows {
		if !other.Backup && !other.dead {
			return false
		}
	}
	return true
}

// hasDataFor reports whether pull would yield a mapping for sf.
func (c *Conn) hasDataFor(sf *Subflow) bool {
	if !sf.established || sf.dead || !c.allowedByMode(sf) {
		return false
	}
	if sf.dupQueue.pruneAcked(c.dataUna); sf.dupQueue.len() > 0 {
		return true
	}
	if c.rtxPool.len() > 0 {
		return true
	}
	return c.sched.Admit(c, sf) &&
		c.dataNxt < c.sendTotal && c.dataNxt < c.dataUna+uint64(c.cfg.recvBuf())
}

// pull is called by a subflow's Source when it has window space.
// Priority: scheduler-duplicated mappings, then the shared
// retransmission pool, then fresh data (gated by Scheduler.Admit —
// evaluated once per pull, on the fresh-data branch only).
//
//multinet:hotpath
func (c *Conn) pull(sf *Subflow, max int) (int, any, bool) {
	if !sf.established || sf.dead || !c.allowedByMode(sf) {
		return 0, nil, false
	}
	// Duplicates and reinjections the peer has meanwhile data-acked are
	// discarded before they are offered.
	sf.dupQueue.pruneAcked(c.dataUna)
	if sf.dupQueue.len() > 0 {
		m := sf.dupQueue.takeFront(max)
		sf.outstanding.push(c.sim, m)
		return m.len, c.newDSS(m.dataSeq, m.len), true
	}
	c.rtxPool.pruneAcked(c.dataUna)
	fresh := c.dataNxt < c.sendTotal && c.dataNxt < c.dataUna+uint64(c.cfg.recvBuf()) &&
		c.sched.Admit(c, sf)
	if c.rtxPool.len() == 0 && !fresh {
		return 0, nil, false
	}
	var m mapping
	if c.rtxPool.len() > 0 {
		m = c.rtxPool.takeFront(max)
	} else {
		n := c.sendTotal - c.dataNxt
		if lim := c.dataUna + uint64(c.cfg.recvBuf()); c.dataNxt+n > lim {
			n = lim - c.dataNxt
		}
		if int(n) > max {
			n = uint64(max)
		}
		m = mapping{dataSeq: c.dataNxt, len: int(n)}
		c.dataNxt += n
		if d, ok := c.sched.(duplicator); ok {
			d.onFreshMapping(c, sf, m)
		}
	}
	sf.outstanding.push(c.sim, m)
	return m.len, c.newDSS(m.dataSeq, m.len), true
}

// onMappingAcked removes the subflow-acknowledged byte range from
// sf's outstanding records. Matching is by range overlap, not exact
// (dataSeq, len) identity: pull splits oversized reinjected mappings
// to the puller's window, so a subflow can hold an outstanding record
// that a later ack only partially covers (e.g. the original {seq, len}
// after a split re-pull of the same range). Overlapped spans are
// trimmed and any unacked remainder is kept, so no record is stranded
// to be reinjected forever. The in-order case — the ack is exactly the
// oldest record of an ordered queue — is a constant-time pop (mapq.ack).
func (c *Conn) onMappingAcked(sf *Subflow, opt any) {
	dss, ok := opt.(*DSS)
	if !ok || dss.Len == 0 {
		return
	}
	sf.outstanding.ack(c.sim, mapping{dataSeq: dss.DataSeq, len: dss.Len}, &sf.ackScratch)
	sf.reinjected = false
	c.maybeClose()
	c.wake()
}

// onSegment processes connection-level information on every arriving
// subflow segment.
func (c *Conn) onSegment(sf *Subflow, seg *tcp.Segment) {
	dss, ok := seg.Opt.(*DSS)
	if !ok {
		return
	}
	if dss.DataAck > c.dataUna {
		c.dataUna = dss.DataAck
		c.maybeClose()
		c.wake()
	}
	if dss.Len > 0 {
		c.receive(mapping{dataSeq: dss.DataSeq, len: dss.Len})
	}
}

// receive performs connection-level reassembly.
func (c *Conn) receive(m mapping) {
	switch {
	case m.end() <= c.rcvNxt:
		return // duplicate
	case m.dataSeq <= c.rcvNxt:
		c.rcvNxt = m.end()
		// Drain contiguous out-of-order intervals; copy down so the
		// backing array keeps its capacity for later reordering bursts.
		k := 0
		for k < len(c.ooo) && c.ooo[k].dataSeq <= c.rcvNxt {
			if e := c.ooo[k].end(); e > c.rcvNxt {
				c.rcvNxt = e
			}
			k++
		}
		if k > 0 {
			n := copy(c.ooo, c.ooo[k:])
			c.ooo = c.ooo[:n]
		}
	default:
		c.insertOOO(m)
	}
	if int64(c.rcvNxt) > c.recvTotal {
		c.recvTotal = int64(c.rcvNxt)
		if c.cb.OnData != nil {
			c.cb.OnData(c, c.recvTotal)
		}
	}
}

func (c *Conn) insertOOO(m mapping) {
	pos := len(c.ooo)
	for i, e := range c.ooo {
		if m.dataSeq < e.dataSeq {
			pos = i
			break
		}
	}
	if len(c.ooo) == cap(c.ooo) {
		c.ooo = simnet.SlabOf[mapping](c.sim).Grow(c.ooo, len(c.ooo)+1)
	}
	c.ooo = append(c.ooo, mapping{})
	copy(c.ooo[pos+1:], c.ooo[pos:])
	c.ooo[pos] = m
	// Merge overlaps.
	merged := c.ooo[:1]
	for _, e := range c.ooo[1:] {
		last := &merged[len(merged)-1]
		if e.dataSeq <= last.end() {
			if e.end() > last.end() {
				last.len = int(e.end() - last.dataSeq)
			}
		} else {
			merged = append(merged, e)
		}
	}
	c.ooo = merged
}

// onSubflowRTO handles repeated timeouts: in Full-MPTCP mode the
// subflow's outstanding mappings are reinjected onto the others; in
// Backup mode a stalled regular subflow causes the backup to emit a
// single window update and nothing else (the paper's Fig. 15g trace).
func (c *Conn) onSubflowRTO(sf *Subflow, count int) {
	if count < 2 || sf.reinjected {
		return
	}
	sf.reinjected = true
	c.reinject(sf, false)
	if c.cfg.Mode == Backup && !sf.Backup {
		for _, other := range c.subflows {
			if other.Backup && other.established && !other.dead {
				other.TCP.SendWindowUpdate()
			}
		}
	}
	c.wake()
}

// reinject copies (or moves, if the subflow is dead) sf's outstanding
// mappings above the data-ACK point into the retransmission pool.
func (c *Conn) reinject(sf *Subflow, move bool) {
	for i := 0; i < sf.outstanding.len(); i++ {
		m := *sf.outstanding.at(i)
		if m.end() <= c.dataUna {
			continue
		}
		c.rtxPool.push(c.sim, m)
		c.Reinjections++
	}
	if move {
		sf.outstanding.reset()
	}
}

// subflowDied handles an administrative interface down: the subflow is
// torn down (as the kernel does on interface removal), its unacked
// mappings reinjected for the surviving subflows, and its flow entry
// forgotten so a later re-join can reuse the flow identifier. Pooled
// segments owned by the wire keep their single release site (the link's
// drop paths); the abort only cancels timers and bookkeeping.
func (c *Conn) subflowDied(sf *Subflow) {
	if sf.rejoining {
		// Down again mid-handshake: abort the half-open re-join conn and
		// wait for the next recovery.
		sf.rejoining = false
		sf.rejoinAttempts++
		sf.TCP.Abort()
		c.stack.Forget(sf.TCP.Flow())
		return
	}
	if sf.dead {
		return
	}
	sf.dead = true
	c.reinject(sf, true)
	sf.dupQueue.reset() // duplicates: the original copy lives elsewhere
	sf.TCP.Abort()
	c.stack.Forget(sf.TCP.Flow())
	c.wake()
}

// subflowRevived handles an administrative interface up: the client
// schedules a re-join after a backoff (the server side waits for the
// client's MP_JOIN instead — it never initiates subflows).
func (c *Conn) subflowRevived(sf *Subflow) {
	if !sf.dead || sf.rejoining || c.closed || c.side != tcp.ClientSide {
		return
	}
	c.scheduleRejoin(sf)
}

// maxRejoinAttempts bounds consecutive failed re-joins per subflow: an
// interface that reports up but leads nowhere (blackholed) must not keep
// the event loop alive forever.
const maxRejoinAttempts = 16

// scheduleRejoin arms sf's re-join timer with exponential backoff.
func (c *Conn) scheduleRejoin(sf *Subflow) {
	if sf.rejoinTimer.Active() || sf.rejoinAttempts >= maxRejoinAttempts {
		return
	}
	delay := c.cfg.rejoinBackoff()
	for i := 0; i < int(sf.rejoinAttempts) && delay < rejoinBackoffCap; i++ {
		delay *= 2
	}
	if delay > rejoinBackoffCap {
		delay = rejoinBackoffCap
	}
	sf.rejoinTimer = c.sim.AfterArg(delay, subflowRejoinFire, sf)
}

func subflowRejoinFire(a any) {
	sf := a.(*Subflow)
	sf.conn.rejoin(sf)
}

// rejoin re-establishes a dead subflow on a fresh tcp.Conn. It reuses
// the flow identifier (both stacks forgot it at death) and carries
// MP_JOIN — or MP_CAPABLE when no subflow ever completed a handshake,
// restarting the connection from scratch.
func (c *Conn) rejoin(sf *Subflow) {
	if !sf.dead || sf.rejoining || c.closed || sf.Iface.AdminDown() {
		return
	}
	sf.rejoining = true
	sf.established = false
	sf.reinjected = false
	c.dialSubflow(sf, !c.everEstablished)
}

// maybeClose sends FINs on every subflow once all data is delivered.
func (c *Conn) maybeClose() {
	if !c.closeReq || c.closed {
		return
	}
	if c.dataNxt < c.sendTotal || c.dataUna < c.sendTotal || c.rtxPool.len() > 0 {
		return
	}
	c.closed = true
	c.watch.Stop()
	for _, sf := range c.subflows {
		sf.TCP.Close()
	}
}

func (c *Conn) onSubflowClosed(sf *Subflow) {
	if sf.rejoining && !c.closed {
		// The re-join handshake gave up (SYN retransmission limit): back
		// off further and retry while the interface is still up.
		sf.rejoining = false
		sf.rejoinAttempts++
		c.stack.Forget(sf.TCP.Flow())
		if !sf.Iface.AdminDown() {
			c.scheduleRejoin(sf)
		}
		return
	}
	for _, other := range c.subflows {
		if other.TCP.State() != tcp.StateDone {
			return
		}
	}
	if c.cb.OnClosed != nil {
		c.cb.OnClosed(c)
	}
}

// armWatchdog snapshots the progress marks and schedules the next
// stuck-flow check, one interval of WatchdogRTOs virtual RTO spans out.
// Inert (no timer, no events) unless Config.WatchdogRTOs is positive,
// which keeps default runs bit-identical with pre-watchdog builds.
func (c *Conn) armWatchdog() {
	if c.cfg.WatchdogRTOs <= 0 || c.closed || c.watch.Active() {
		return
	}
	c.watchUna = c.dataUna
	c.watchRecv = c.recvTotal
	c.watch = c.sim.AfterArg(c.watchInterval(), connWatchdogFire, c)
}

// watchInterval is WatchdogRTOs times the largest live subflow RTO —
// "K virtual RTOs" scaled to whatever backoff the paths are in.
func (c *Conn) watchInterval() time.Duration {
	rto := tcp.InitialRTO
	for _, sf := range c.subflows {
		if sf.TCP.State() != tcp.StateDone && sf.TCP.RTO() > rto {
			rto = sf.TCP.RTO()
		}
	}
	return time.Duration(c.cfg.WatchdogRTOs) * rto
}

func connWatchdogFire(a any) { a.(*Conn).watchdogFire() }

func (c *Conn) watchdogFire() {
	if c.closed {
		return
	}
	if c.dataUna >= c.sendTotal {
		return // nothing pending: disarm; Send re-arms
	}
	if c.dataUna > c.watchUna || c.recvTotal > c.watchRecv {
		c.stallRun = 0
		c.armWatchdog()
		return
	}
	// No forward progress across K virtual RTOs with data pending: a
	// stall. Record it, reinject everything outstanding as a recovery
	// attempt, and abort the whole connection once the streak exceeds
	// the budget — a chaos run terminates instead of hanging.
	c.StallCount++
	c.stallRun++
	if c.cb.OnStall != nil {
		c.cb.OnStall(c, c.StallCount)
	}
	if c.stallRun >= c.cfg.watchdogMaxStalls() {
		c.AbortAll()
		return
	}
	for _, sf := range c.subflows {
		if !sf.dead && sf.established {
			c.reinject(sf, false)
		}
	}
	c.wake()
	c.armWatchdog()
}

// AbortAll hard-terminates the connection: every subflow is aborted,
// pending re-joins and the watchdog are cancelled, and no further data
// will flow. The stuck-flow watchdog calls it when a stall persists;
// harnesses may call it to guarantee quiescence.
func (c *Conn) AbortAll() {
	c.closed = true
	c.aborted = true
	c.watch.Stop()
	for _, sf := range c.subflows {
		sf.rejoinTimer.Stop()
		sf.rejoining = false
		if sf.TCP.State() != tcp.StateDone {
			sf.TCP.Abort()
		}
	}
}

// String describes the connection.
func (c *Conn) String() string {
	return fmt.Sprintf("mptcp(%s %d subflows, sent=%d acked=%d recv=%d)",
		c.cfg.ConnID, len(c.subflows), c.dataNxt, c.dataUna, c.recvTotal)
}

// sfSource is a Subflow seen as its tcp.Conn's Source: the connection
// scheduler behind the tcp.Source interface. It is the Subflow itself
// under another method set, so handing it to tcp costs no allocation and
// puts no Next/Pending on the exported type.
type sfSource Subflow

func (s *sfSource) Next(max int) (int, any, bool) {
	sf := (*Subflow)(s)
	return sf.conn.pull(sf, max)
}

func (s *sfSource) Pending() bool {
	sf := (*Subflow)(s)
	return sf.conn.hasDataFor(sf)
}
