// Package core is the library's public face: it wires the simulation
// substrates (netem links, phy radio models, tcp, mptcp) into the
// paper's testbed, a World, and a Session on it on which callers run
// measured transfers — the programmatic equivalent of the paper's
// modified Cell vs WiFi tool (Section 3.2). ConfigFor turns a decision
// of the adaptive selector (internal/selector, the policy the paper's
// conclusion poses as future work) into the transfer that realises it,
// and Probe measures the estimate it decides on.
package core

import (
	"fmt"
	"strconv"
	"time"

	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/selector"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// TransportKind selects the transport for one transfer.
type TransportKind int

// Transport kinds.
const (
	// TCP is single-path TCP on Config.Iface.
	TCP TransportKind = iota
	// MPTCP uses all interfaces with Config.Primary first.
	MPTCP
)

// Config describes one transfer configuration — one cell of the
// paper's measurement matrix.
type Config struct {
	// Transport selects TCP or MPTCP.
	Transport TransportKind
	// Iface is the network for single-path TCP: any attached interface
	// name ("wifi"/"lte" in the classic pair).
	Iface string
	// Primary is the MPTCP primary-subflow network.
	Primary string
	// CC is the MPTCP congestion coupling.
	CC mptcp.CongestionMode
	// Mode selects Full-MPTCP or Backup operation.
	Mode mptcp.Mode
	// BackupIfaces marks backup-priority subflows (Backup mode).
	BackupIfaces []string
	// Scheduler names the MPTCP data scheduler, one of
	// mptcp.Schedulers (empty: mptcp.SchedMinSRTT, the Linux default).
	Scheduler string
	// RoundRobin is the legacy ablation flag: with Scheduler empty it
	// runs mptcp.SchedRoundRobin on the client end only, which is what
	// the ablation-scheduler golden pins.
	RoundRobin bool
	// SimultaneousJoin is the late-join ablation (all subflows start at
	// dial time).
	SimultaneousJoin bool
	// WatchdogRTOs arms the MPTCP stuck-flow watchdog on both endpoints
	// (0 = disabled): a connection making no forward progress across
	// this many virtual RTO spans with data pending records stall
	// events and eventually aborts instead of hanging. Fault-injection
	// experiments set it; it never changes a fault-free run.
	WatchdogRTOs int
}

// Name renders the configuration the way the paper labels it; a
// non-default scheduler is part of the label, since it changes what
// the measurement means.
func (c Config) Name() string {
	if c.Transport == TCP {
		return fmt.Sprintf("%s-TCP", c.Iface)
	}
	if c.Scheduler != "" && c.Scheduler != mptcp.SchedMinSRTT {
		return fmt.Sprintf("MPTCP(%s, %s, %s)", c.Primary, c.CC, c.Scheduler)
	}
	return fmt.Sprintf("MPTCP(%s, %s)", c.Primary, c.CC)
}

// Result is one measured transfer.
type Result struct {
	// Completed reports whether every byte arrived in order within the
	// horizon.
	Completed bool
	// FCT is the flow completion time: first SYN to last in-order byte.
	FCT time.Duration
	// Mbps is size*8/FCT in megabits per second.
	Mbps float64
	// EstablishedAt is when the (primary) handshake completed,
	// relative to the transfer start.
	EstablishedAt time.Duration
}

// Direction of a transfer relative to the client.
type Direction int

// Transfer directions (paper: both are measured in every run).
const (
	Download Direction = iota
	Upload
)

// DefaultHorizon bounds a single transfer's simulated duration.
const DefaultHorizon = 10 * time.Minute

// World is the paper's testbed (its Fig. 5): a multi-homed client host
// with one interface per path of a network condition, the client's TCP
// stack and the single-homed server's, both bound to every interface.
// It is the one way the reproduction builds that world; what runs on it
// (transfers, replays, taps, fault schedules) attaches after.
type World struct {
	Sim    *simnet.Sim
	Host   *netem.Host
	Client *tcp.Stack
	Server *tcp.Stack
}

// NewWorld builds the world for a network condition: the Sim, the host,
// the client stack, the server stack, then each interface bound to both
// in attachment order. The same seed and condition give a bit-identical
// world.
func NewWorld(seed int64, cond phy.Condition) World {
	sim := simnet.New(seed)
	w := World{Sim: sim, Host: phy.BuildHost(sim, cond)}
	w.Client = tcp.NewStack(sim, tcp.ClientSide)
	w.Server = tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range w.Host.Ifaces() {
		w.Client.Bind(ifc)
		w.Server.Bind(ifc)
	}
	return w
}

// Close ends the world and hands the simulator's memory to the next one
// built (simnet.Sim.Release). Call it once the world's results,
// counters and connections have been read: connection handles are dead
// with it, and a closed world must not be used again. Closing is
// optional: a world that is simply dropped is collected, it just does
// not pass its memory on.
func (w *World) Close() { w.Sim.Release() }

// Session is a simulated multi-homed client and single-homed server
// pair under one network condition: a World and the server that answers
// its transfers. Transfers run sequentially, as in the paper's
// measurement app; Close is the World's.
type Session struct {
	World
	mpServer *mptcp.Server

	// Horizon bounds each transfer (default DefaultHorizon).
	Horizon time.Duration

	nextID int
	cur    *transfer // the transfer Run is running; nil between transfers
}

// transfer is one Run, carved from the Sim's slab: a new one per Run,
// never reused. It owns both ends of its connection, so one set of
// hooks serves every transfer. Only the session's current transfer acts
// on the session: the ends of a transfer Run gave up on at the horizon
// keep running, and when their data arrives later they record nothing
// and stop nothing.
type transfer struct {
	s    *Session
	id   string
	dir  Direction
	size int
	// done and established are the instants the last byte arrived and
	// the (primary) handshake completed; zero until they happen.
	done, established time.Duration
}

// NewSession builds a session for a network condition. The same seed
// and condition give a bit-identical run.
func NewSession(seed int64, cond phy.Condition) *Session {
	s := &Session{World: NewWorld(seed, cond), Horizon: DefaultHorizon}
	s.mpServer = mptcp.NewServer(s.Sim, s.Server, mptcp.ServerConfig{})
	s.mpServer.AcceptTCP = s.acceptTCP
	s.mpServer.OnConn = s.acceptMPTCP
	return s
}

// acceptTCP and acceptMPTCP adopt the current transfer's connection and
// ignore strangers.
func (s *Session) acceptTCP(c *tcp.Conn) {
	if t := s.cur; t != nil && c.Flow() == t.id {
		c.SetOwner(t)
		c.SetCallbacks(tcp.Callbacks{OnEstablished: tcpServerEstablished, OnData: tcpServerData})
	}
}

func (s *Session) acceptMPTCP(c *mptcp.Conn) {
	if t := s.cur; t != nil && c.ConnID() == t.id {
		c.SetOwner(t)
		c.SetCallbacks(mptcp.Callbacks{OnData: mpServerData})
		t.serverEstablished(c) // a download is pushed at accept
	}
}

// Every transfer's connection is wired with the same hooks, plain
// functions that build no closure. Each finds its transfer as the
// connection's owner, set at Dial on the client and at accept on the
// server.

func tcpClientEstablished(c *tcp.Conn)       { c.Owner().(*transfer).clientEstablished(c) }
func tcpClientData(c *tcp.Conn, total int64) { c.Owner().(*transfer).clientData(c, total) }
func tcpServerEstablished(c *tcp.Conn)       { c.Owner().(*transfer).serverEstablished(c) }
func tcpServerData(c *tcp.Conn, total int64) { c.Owner().(*transfer).serverData(total) }

func mpClientEstablished(c *mptcp.Conn)       { c.Owner().(*transfer).clientEstablished(c) }
func mpClientData(c *mptcp.Conn, total int64) { c.Owner().(*transfer).clientData(c, total) }
func mpServerData(c *mptcp.Conn, total int64) { c.Owner().(*transfer).serverData(total) }

// end is either transport's connection, as a transfer's hooks drive it.
type end interface {
	Send(n int)
	Close()
}

// clientEstablished: the handshake is done, and an upload sends.
func (t *transfer) clientEstablished(c end) {
	if t.s.cur == t {
		t.established = t.s.Sim.Now()
	}
	if t.dir == Upload {
		c.Send(t.size)
		c.Close()
	}
}

// clientData: a download is complete once every byte has arrived.
func (t *transfer) clientData(c end, total int64) {
	if t.dir == Download && total >= int64(t.size) {
		t.finish()
		c.Close()
	}
}

// serverEstablished: the server pushes a download.
func (t *transfer) serverEstablished(c end) {
	if t.dir == Download {
		c.Send(t.size)
		c.Close()
	}
}

// serverData: an upload is complete once every byte has arrived.
func (t *transfer) serverData(total int64) {
	if t.dir == Upload && total >= int64(t.size) {
		t.finish()
	}
}

// finish records the current transfer's completion and hands control
// back to Run, which drains the teardown.
func (t *transfer) finish() {
	if t.s.cur == t && t.done == 0 {
		t.done = t.s.Sim.Now()
		t.s.Sim.Stop()
	}
}

// Run measures one transfer of size bytes in the given direction under
// cfg. It advances the session's virtual clock. Result.Mbps is 0 when
// the transfer did not complete.
func (s *Session) Run(cfg Config, dir Direction, size int) Result {
	if size <= 0 {
		panic("core: transfer size must be positive")
	}
	s.nextID++
	t := simnet.SlabOf[transfer](s.Sim).New()
	*t = transfer{s: s, id: "xfer-" + strconv.Itoa(s.nextID), dir: dir, size: size}
	s.cur = t
	start := s.Sim.Now()

	switch cfg.Transport {
	case TCP:
		iface := s.Host.Iface(cfg.Iface)
		if iface == nil {
			panic("core: unknown iface " + cfg.Iface)
		}
		s.Client.Dial(iface, t.id, tcp.Config{
			Callbacks: tcp.Callbacks{OnEstablished: tcpClientEstablished, OnData: tcpClientData},
			Owner:     t,
		})
	case MPTCP:
		// The server applies matching parameters to this connection
		// (both endpoints must agree on coupling). Scheduler is wired to
		// both ends; the legacy RoundRobin flag stays client-side only,
		// preserving the historical ablation behaviour the output
		// goldens pin.
		s.mpServer.SetConfig(mptcp.ServerConfig{
			CC: cfg.CC, Mode: cfg.Mode, Scheduler: cfg.Scheduler, WatchdogRTOs: cfg.WatchdogRTOs,
		})
		mcfg := mptcp.Config{
			ConnID:           t.id,
			Primary:          cfg.Primary,
			CC:               cfg.CC,
			Mode:             cfg.Mode,
			BackupIfaces:     cfg.BackupIfaces,
			Scheduler:        cfg.Scheduler,
			SimultaneousJoin: cfg.SimultaneousJoin,
			WatchdogRTOs:     cfg.WatchdogRTOs,
		}
		if cfg.RoundRobin && cfg.Scheduler == "" {
			mcfg.Scheduler = mptcp.SchedRoundRobin
		}
		mptcp.Dial(s.Sim, s.Client, s.Host, mcfg,
			mptcp.Callbacks{OnEstablished: mpClientEstablished, OnData: mpClientData}).SetOwner(t)
	}

	s.Sim.RunUntil(start + s.Horizon)
	s.cur = nil
	res := Result{Completed: t.done > 0}
	if res.Completed {
		res.FCT = t.done - start
		res.Mbps = float64(size) * 8 / res.FCT.Seconds() / 1e6
		if t.established > 0 {
			res.EstablishedAt = t.established - start
		}
	}
	// Let in-flight teardown drain before the next sequential transfer.
	s.Sim.RunFor(2 * time.Second)
	return res
}

// ConfigFor maps a selector Decision onto the transfer Config that
// realises it: single-path TCP on the preferred path, or MPTCP with
// the preferred path as primary and the decided coupling. The decided
// scheduler is carried only when it differs from the min-SRTT default,
// so configuration names (and the output goldens pinning them) name
// a scheduler only when it is not the default.
func ConfigFor(d selector.Decision) Config {
	if !d.UseMPTCP {
		return Config{Transport: TCP, Iface: d.Primary()}
	}
	cfg := Config{Transport: MPTCP, Primary: d.Primary(), CC: d.CC}
	if d.Scheduler != "" && d.Scheduler != mptcp.SchedMinSRTT {
		cfg.Scheduler = d.Scheduler
	}
	return cfg
}

// ProbeSize is the transfer used per network by Session.Probe.
const ProbeSize = 256 << 10

// Probe measures every attached network with a ProbeSize download
// each, in attachment order, and returns the resulting estimate. It
// advances the session clock.
func (s *Session) Probe() selector.Estimate {
	est := selector.Estimate{}
	for _, name := range s.Host.IfaceNames() {
		r := s.Run(Config{Transport: TCP, Iface: name}, Download, ProbeSize)
		if r.Completed {
			est.Set(name, r.Mbps, r.EstablishedAt) // handshake ≈ 1 RTT
		} else {
			est.Set(name, 0, 0)
		}
	}
	return est
}
