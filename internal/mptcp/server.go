package mptcp

import (
	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// ServerConfig carries the connection parameters a server applies to
// every accepted MPTCP connection (the client chooses the primary
// interface and backup flags; both ends must agree on congestion
// coupling, as the paper notes in Section 3.5).
type ServerConfig struct {
	// CC selects coupled or decoupled congestion control.
	CC CongestionMode
	// Mode selects Full-MPTCP or Backup operation.
	Mode Mode
	// Scheduler names the data scheduler applied to accepted
	// connections, one of Schedulers (empty: SchedMinSRTT). The server
	// side matters most for downloads — the data sender runs the
	// scheduler.
	Scheduler string
	// WatchdogRTOs arms the stuck-flow watchdog on accepted connections
	// (0 disables; see Config.WatchdogRTOs).
	WatchdogRTOs int
}

// Server accepts MPTCP connections on a server-side TCP stack,
// demultiplexing MP_CAPABLE and MP_JOIN SYNs into connections and
// subflows.
type Server struct {
	sim   *simnet.Sim
	stack *tcp.Stack
	cfg   ServerConfig
	// conns are the accepted connections in accept order, on a piece of
	// the Sim's slab.
	conns []*Conn

	// OnConn fires when a new MPTCP connection is accepted (its primary
	// subflow's SYN arrived). The app installs callbacks and queues
	// response data here.
	OnConn func(*Conn)
	// AcceptTCP, when set, handles plain-TCP SYNs (no MPTCP option) so
	// single-path and multipath service can share a stack. The
	// connection is the hook's from then on: the server no longer sees
	// its segments.
	AcceptTCP func(*tcp.Conn)
	// Owner is handed to OnConn and AcceptTCP as the owner of the
	// connection they are given, so that the hooks can be plain functions
	// that find their state there instead of closures.
	Owner any
}

// NewServer installs an MPTCP acceptor on the stack. It panics on an
// unknown scheduler name.
func NewServer(sim *simnet.Sim, stack *tcp.Stack, cfg ServerConfig) *Server {
	s := &Server{sim: sim, stack: stack}
	s.SetConfig(cfg)
	stack.Accept = s.accept
	return s
}

// SetConfig changes the parameters applied to subsequently accepted
// connections (existing connections are unaffected). Experiment
// harnesses use it between sequential transfers. It panics on an
// unknown scheduler name.
func (s *Server) SetConfig(cfg ServerConfig) {
	mustBeScheduler(cfg.Scheduler)
	s.cfg = cfg
}

// Conn returns the accepted connection with the given ID, or nil. An
// MP_CAPABLE that arrives again with the ID of an accepted connection (a
// re-join that restarts the connection) supersedes it: the latest wins.
func (s *Server) Conn(connID string) *Conn {
	for i := len(s.conns) - 1; i >= 0; i-- {
		if c := s.conns[i]; c.cfg.ConnID == connID {
			return c
		}
	}
	return nil
}

// accept is the Stack.Accept hook: the new tcp.Conn has not yet
// processed its SYN, so install a one-shot OnSegment hook to inspect
// the MPTCP option and rewire the connection. Until then (and for good,
// if nothing rewires it) the server is the connection's owner, which is
// how the hook finds it without being a closure.
func (s *Server) accept(tc *tcp.Conn) {
	tc.SetOwner(s)
	tc.SetCallbacks(tcp.Callbacks{OnSegment: serverFirstSegment})
}

func serverFirstSegment(tc *tcp.Conn, seg netem.Segment) {
	tc.Owner().(*Server).firstSegment(tc, seg.Opt)
}

func (s *Server) firstSegment(tc *tcp.Conn, opt any) {
	switch opt := opt.(type) {
	case *MPCapable:
		c := newConn(s.sim, s.stack, nil, Config{
			ConnID:       opt.ConnID,
			CC:           s.cfg.CC,
			Mode:         s.cfg.Mode,
			Scheduler:    s.cfg.Scheduler,
			Primary:      tc.Iface().Name,
			WatchdogRTOs: s.cfg.WatchdogRTOs,
		}, Callbacks{})
		if len(s.conns) == cap(s.conns) {
			s.conns = simnet.SlabOf[*Conn](s.sim).Grow(s.conns, len(s.conns)+1)
		}
		s.conns = append(s.conns, c)
		c.adoptSubflow(tc, tc.Iface(), false)
		tc.SetSynOpt(opt) // echoed: options are immutable once sent
		c.owner = s.Owner
		if s.OnConn != nil {
			s.OnConn(c)
		}
	case *MPJoin:
		c := s.Conn(opt.ConnID)
		if c == nil {
			return // stale join: ignore; the subflow will time out
		}
		c.adoptSubflow(tc, tc.Iface(), opt.Backup)
		tc.SetSynOpt(opt)
	default:
		if s.AcceptTCP != nil {
			tc.SetCallbacks(tcp.Callbacks{})
			tc.SetOwner(s.Owner)
			s.AcceptTCP(tc)
		}
	}
}

// SetCallbacks installs connection-level hooks (used by Server.OnConn
// consumers; the client side passes callbacks to Dial).
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }
