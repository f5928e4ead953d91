// Package core is the library's public face: it wires the simulation
// substrates (netem links, phy radio models, tcp, mptcp) into a
// Session on which callers run measured transfers — the programmatic
// equivalent of the paper's modified Cell vs WiFi tool (Section 3.2) —
// and provides the adaptive network Selector that the paper's
// conclusion poses as future work ("how can we automatically decide
// when to use single path TCP and when to use MPTCP?").
package core

import (
	"fmt"
	"time"

	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
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
	// RecvBuf overrides the MPTCP connection-level receive buffer.
	RecvBuf int
	// Scheduler names the registered MPTCP data scheduler (empty:
	// mptcp.SchedMinSRTT, the Linux default).
	Scheduler string
	// RoundRobin selects the ablation scheduler instead of min-SRTT
	// (legacy flag; equivalent to Scheduler: mptcp.SchedRoundRobin).
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

// Session is a simulated multi-homed client and single-homed server
// pair under one network condition. Transfers run sequentially, as in
// the paper's measurement app.
type Session struct {
	Sim  *simnet.Sim
	Host *netem.Host

	clientStack *tcp.Stack
	serverStack *tcp.Stack
	mpServer    *mptcp.Server

	// Horizon bounds each transfer (default DefaultHorizon).
	Horizon time.Duration

	nextID   int
	tcpSpecs map[string]tcpServerSpec
	mpSpecs  map[string]tcpServerSpec
}

type tcpServerSpec struct {
	sendBytes int // server pushes this many bytes when established
	expect    int // server expects this many bytes (upload)
	onDone    func()
}

// NewSession builds a session for a network condition. The same seed
// and condition give a bit-identical run.
func NewSession(seed int64, cond phy.Condition) *Session {
	sim := simnet.New(seed)
	s := &Session{
		Sim:      sim,
		Host:     phy.BuildHost(sim, cond),
		Horizon:  DefaultHorizon,
		tcpSpecs: make(map[string]tcpServerSpec),
	}
	s.clientStack = tcp.NewStack(sim, tcp.ClientSide)
	s.serverStack = tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range s.Host.Ifaces() {
		s.clientStack.Bind(ifc)
		s.serverStack.Bind(ifc)
	}
	s.mpServer = mptcp.NewServer(sim, s.serverStack, mptcp.ServerConfig{})
	s.mpServer.AcceptTCP = s.acceptTCP
	s.mpServer.OnConn = s.acceptMPTCP
	s.mpSpecs = make(map[string]tcpServerSpec)
	return s
}

func (s *Session) acceptTCP(c *tcp.Conn) {
	spec, ok := s.tcpSpecs[c.Flow()]
	if !ok {
		return
	}
	c.SetCallbacks(tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			if spec.sendBytes > 0 {
				c.Send(spec.sendBytes)
				c.Close()
			}
		},
		OnData: func(c *tcp.Conn, total int64) {
			if spec.expect > 0 && total >= int64(spec.expect) {
				spec.onDone()
			}
		},
	})
}

func (s *Session) acceptMPTCP(c *mptcp.Conn) {
	spec, ok := s.mpSpecs[c.ConnID()]
	if !ok {
		return
	}
	if spec.sendBytes > 0 {
		c.Send(spec.sendBytes)
		c.Close()
	}
	if spec.expect > 0 {
		c.SetCallbacks(mptcp.Callbacks{OnData: func(c *mptcp.Conn, total int64) {
			if total >= int64(spec.expect) {
				spec.onDone()
			}
		}})
	}
}

// Run measures one transfer of size bytes in the given direction under
// cfg. It advances the session's virtual clock.
func (s *Session) Run(cfg Config, dir Direction, size int) Result {
	if size <= 0 {
		panic("core: transfer size must be positive")
	}
	s.nextID++
	id := fmt.Sprintf("xfer-%d", s.nextID)
	start := s.Sim.Now()
	var done, established time.Duration
	finish := func() {
		if done == 0 {
			done = s.Sim.Now()
			s.Sim.Stop() // return control; teardown drains below
		}
	}

	switch cfg.Transport {
	case TCP:
		iface := s.Host.Iface(cfg.Iface)
		if iface == nil {
			panic("core: unknown iface " + cfg.Iface)
		}
		if dir == Download {
			s.tcpSpecs[id] = tcpServerSpec{sendBytes: size}
			s.clientStack.Dial(iface, id, tcp.Config{Callbacks: tcp.Callbacks{
				OnEstablished: func(c *tcp.Conn) { established = s.Sim.Now() },
				OnData: func(c *tcp.Conn, total int64) {
					if total >= int64(size) {
						finish()
						c.Close()
					}
				},
			}})
		} else {
			s.tcpSpecs[id] = tcpServerSpec{expect: size, onDone: finish}
			s.clientStack.Dial(iface, id, tcp.Config{Callbacks: tcp.Callbacks{
				OnEstablished: func(c *tcp.Conn) {
					established = s.Sim.Now()
					c.Send(size)
					c.Close()
				},
			}})
		}
	case MPTCP:
		// The server applies matching parameters to this connection
		// (both endpoints must agree on coupling; the receive buffer
		// bound binds at the data sender).
		// Scheduler is wired to both ends; the legacy RoundRobin flag
		// stays client-side only, preserving the historical ablation
		// behaviour the output goldens pin.
		s.mpServer.SetConfig(mptcp.ServerConfig{
			CC: cfg.CC, Mode: cfg.Mode, RecvBuf: cfg.RecvBuf, Scheduler: cfg.Scheduler,
			WatchdogRTOs: cfg.WatchdogRTOs,
		})
		mcfg := mptcp.Config{
			ConnID:           id,
			Primary:          cfg.Primary,
			CC:               cfg.CC,
			Mode:             cfg.Mode,
			BackupIfaces:     cfg.BackupIfaces,
			RecvBuf:          cfg.RecvBuf,
			Scheduler:        cfg.Scheduler,
			RoundRobin:       cfg.RoundRobin,
			SimultaneousJoin: cfg.SimultaneousJoin,
			WatchdogRTOs:     cfg.WatchdogRTOs,
		}
		if dir == Download {
			s.mpSpecs[id] = tcpServerSpec{sendBytes: size}
			mptcp.Dial(s.Sim, s.clientStack, s.Host, mcfg, mptcp.Callbacks{
				OnEstablished: func(c *mptcp.Conn) { established = s.Sim.Now() },
				OnData: func(c *mptcp.Conn, total int64) {
					if total >= int64(size) {
						finish()
						c.Close()
					}
				},
			})
		} else {
			s.mpSpecs[id] = tcpServerSpec{expect: size, onDone: finish}
			mptcp.Dial(s.Sim, s.clientStack, s.Host, mcfg, mptcp.Callbacks{
				OnEstablished: func(c *mptcp.Conn) {
					established = s.Sim.Now()
					c.Send(size)
					c.Close()
				},
			})
		}
	}

	s.Sim.RunUntil(start + s.Horizon)
	res := Result{Completed: done > 0}
	if res.Completed {
		res.FCT = done - start
		res.Mbps = float64(size) * 8 / res.FCT.Seconds() / 1e6
		if established > 0 {
			res.EstablishedAt = established - start
		}
	}
	// Let in-flight teardown drain before the next sequential transfer.
	s.Sim.RunFor(2 * time.Second)
	return res
}

// Close ends the session and hands the simulator's memory to the next
// one built (simnet.Sim.Release). Call it once the session's results,
// counters and captures have been read; a closed session must not be
// used again. Closing is optional: a session that is simply dropped is
// collected, it just does not pass its memory on.
func (s *Session) Close() { s.Sim.Release() }

// RunMbps is a convenience wrapper returning just the throughput
// (0 when the transfer did not complete).
func (s *Session) RunMbps(cfg Config, dir Direction, size int) float64 {
	r := s.Run(cfg, dir, size)
	if !r.Completed {
		return 0
	}
	return r.Mbps
}
