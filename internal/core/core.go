// Package core is the library's public face: it wires the simulation
// substrates (netem links, phy radio models, tcp, mptcp) into the
// paper's testbed, a World, and a Session on it on which callers run
// measured transfers — the programmatic equivalent of the paper's
// modified Cell vs WiFi tool (Section 3.2). Every measurement, app
// replays and backup-mode downloads too, runs as a Flow. ConfigFor
// turns a decision of the adaptive selector (internal/selector, the
// policy the paper's conclusion poses as future work) into the transfer
// that realises it, and Probe measures the estimate it decides on.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
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

// Close audits the world, panicking with the audit's error when a rule
// is broken, then ends it and hands the simulator's memory to the next
// one built (simnet.Sim.Release). Call it once the world's results,
// counters and connections have been read: connection handles are dead
// with it, and a closed world must not be used again. Closing is
// optional: a dropped world is collected unaudited, it just does not
// pass its memory on.
func (w *World) Close() {
	if err := w.Audit(); err != nil {
		panic(fmt.Errorf("core: world audit at %v: %w", w.Sim.Now(), err))
	}
	audited.Add(1)
	w.Sim.Release()
}

// audited counts the worlds that passed their audit at Close.
var audited atomic.Int64

// AuditedWorlds returns how many worlds this process has closed.
func AuditedWorlds() int64 { return audited.Load() }

// Audit checks the world's rules, each kept by the package whose state
// it reads (netem.Host.Audit, tcp.Conn.AuditScoreboard on every filed
// connection, mptcp.AuditPairs), and returns an error naming every
// broken one, nil (allocating nothing) when all hold. All but two of
// AuditPairs hold between any two events, so Audit may run mid-flight.
func (w *World) Audit() error {
	errs := []error{w.Host.Audit(), mptcp.AuditPairs(w.Client, w.Server)}
	for _, st := range [...]*tcp.Stack{w.Client, w.Server} {
		for c := range st.Conns() {
			if err := c.AuditScoreboard(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Session is a simulated multi-homed client and single-homed server
// pair under one network condition: a World and the Flows its server
// answers, on which Run measures one transfer at a time, as in the
// paper's measurement app; Close is the World's. It embeds the Flows,
// so that a session is one object.
type Session struct {
	Flows

	// Horizon bounds each transfer (default DefaultHorizon).
	Horizon time.Duration

	nextID int
}

// NewSession builds a session for a network condition. The same seed
// and condition give a bit-identical run.
func NewSession(seed int64, cond phy.Condition) *Session {
	s := &Session{Horizon: DefaultHorizon}
	s.serve(NewWorld(seed, cond))
	return s
}

// Run measures one transfer of size bytes in the given direction under
// cfg: a flow of its own, the only open one while Run runs it. It
// advances the session's virtual clock. Result.Mbps is 0 when the
// transfer did not complete.
func (s *Session) Run(cfg Config, dir Direction, size int) Result {
	if size <= 0 {
		panic("core: transfer size must be positive")
	}
	s.nextID++
	s.Open(1)
	f := s.Flow(0)
	*f = Flow{Name: "xfer-" + strconv.Itoa(s.nextID), Config: cfg, Response: size, ClientCloses: true, OnDone: stopRun}
	if dir == Upload {
		f.Request, f.Response = size, 0
	}
	s.Start(f)
	s.Sim.RunUntil(f.Started + s.Horizon)
	s.Open(0)
	res := Result{Completed: f.Done > 0}
	if res.Completed {
		res.FCT = f.Done - f.Started
		res.Mbps = float64(size) * 8 / res.FCT.Seconds() / 1e6
		if f.Established > 0 {
			res.EstablishedAt = f.Established - f.Started
		}
	}
	// Let in-flight teardown drain before the next sequential transfer.
	s.Sim.RunFor(2 * time.Second)
	return res
}

// stopRun hands control back to Run once the transfer it is running is
// done, and Run drains the teardown. The ends of a transfer Run gave up
// on at the horizon keep running; when their last byte arrives later,
// their flow is no longer the open one, and it stops nothing.
//
//multinet:hotpath
func stopRun(fs *Flows, f *Flow) {
	if len(fs.open) == 1 && f == &fs.open[0] {
		fs.Sim.Stop()
	}
}

// ConfigFor maps a selector Decision onto the transfer Config that
// realises it: single-path TCP on the preferred path, or MPTCP with
// the preferred path as primary and the decided coupling. The policy
// decides only the min-SRTT scheduler, the Config default, so the
// Config leaves it unnamed.
func ConfigFor(d selector.Decision) Config {
	if !d.UseMPTCP {
		return Config{Transport: TCP, Iface: d.Primary()}
	}
	return Config{Transport: MPTCP, Primary: d.Primary(), CC: d.CC}
}

// probeSize is the transfer used per network by Session.Probe.
const probeSize = 256 << 10

// Probe measures every attached network with a probeSize download
// each, in attachment order, and returns the resulting estimate. It
// advances the session clock.
func (s *Session) Probe() selector.Estimate {
	est := selector.Estimate{}
	for _, name := range s.Host.IfaceNames() {
		r := s.Run(Config{Transport: TCP, Iface: name}, Download, probeSize)
		if r.Completed {
			est.Set(name, r.Mbps, r.EstablishedAt) // handshake ≈ 1 RTT
		} else {
			est.Set(name, 0, 0)
		}
	}
	return est
}
