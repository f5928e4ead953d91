package mptcp

import (
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
	// RecvBuf bounds server-side scheduling ahead of the data-ACK.
	RecvBuf int
	// Scheduler names the data scheduler applied to accepted
	// connections (empty: SchedMinSRTT). The server side matters most
	// for downloads — the data sender runs the scheduler.
	Scheduler string
	// WatchdogRTOs arms the stuck-flow watchdog on accepted connections
	// (0 disables; see Config.WatchdogRTOs).
	WatchdogRTOs int
	// WatchdogMaxStalls bounds consecutive stalls before the watchdog
	// aborts the connection (0: DefaultWatchdogMaxStalls).
	WatchdogMaxStalls int
}

// Server accepts MPTCP connections on a server-side TCP stack,
// demultiplexing MP_CAPABLE and MP_JOIN SYNs into connections and
// subflows.
type Server struct {
	sim   *simnet.Sim
	stack *tcp.Stack
	cfg   ServerConfig
	conns map[string]*Conn

	// OnConn fires when a new MPTCP connection is accepted (its primary
	// subflow's SYN arrived). The app installs callbacks and queues
	// response data here.
	OnConn func(*Conn)
	// AcceptTCP, when set, handles plain-TCP SYNs (no MPTCP option) so
	// single-path and multipath service can share a stack.
	AcceptTCP func(*tcp.Conn)
}

// NewServer installs an MPTCP acceptor on the stack.
func NewServer(sim *simnet.Sim, stack *tcp.Stack, cfg ServerConfig) *Server {
	s := &Server{sim: sim, stack: stack, cfg: cfg, conns: make(map[string]*Conn)}
	stack.Accept = s.accept
	return s
}

// SetConfig changes the parameters applied to subsequently accepted
// connections (existing connections are unaffected). Experiment
// harnesses use it between sequential transfers.
func (s *Server) SetConfig(cfg ServerConfig) { s.cfg = cfg }

// Conn returns the accepted connection with the given ID, or nil.
func (s *Server) Conn(connID string) *Conn { return s.conns[connID] }

// accept is the Stack.Accept hook: the new tcp.Conn has not yet
// processed its SYN, so install a one-shot OnSegment hook to inspect
// the MPTCP option and rewire the connection. Until then (and for good,
// if nothing rewires it) the server is the connection's owner, which is
// how the hook finds it without being a closure.
func (s *Server) accept(tc *tcp.Conn) {
	tc.SetOwner(s)
	tc.SetCallbacks(tcp.Callbacks{OnSegment: serverFirstSegment})
}

func serverFirstSegment(tc *tcp.Conn, seg *tcp.Segment) { tc.Owner().(*Server).firstSegment(tc, seg) }

func (s *Server) firstSegment(tc *tcp.Conn, seg *tcp.Segment) {
	switch opt := seg.Opt.(type) {
	case *MPCapable:
		c := newConn(s.sim, s.stack, nil, tcp.ServerSide, Config{
			ConnID:    opt.ConnID,
			CC:        s.cfg.CC,
			Mode:      s.cfg.Mode,
			RecvBuf:   s.cfg.RecvBuf,
			Scheduler: s.cfg.Scheduler,
			Primary:   tc.Iface().Name,

			WatchdogRTOs:      s.cfg.WatchdogRTOs,
			WatchdogMaxStalls: s.cfg.WatchdogMaxStalls,
		}, Callbacks{})
		s.conns[opt.ConnID] = c
		c.adoptSubflow(tc, tc.Iface(), false)
		tc.SetSynOpt(opt) // echoed: options are immutable once sent
		if s.OnConn != nil {
			s.OnConn(c)
		}
	case *MPJoin:
		c := s.conns[opt.ConnID]
		if c == nil {
			return // stale join: ignore; the subflow will time out
		}
		c.adoptSubflow(tc, tc.Iface(), opt.Backup)
		tc.SetSynOpt(opt)
	default:
		if s.AcceptTCP != nil {
			s.AcceptTCP(tc)
		}
	}
}

// SetCallbacks installs connection-level hooks (used by Server.OnConn
// consumers; the client side passes callbacks to Dial).
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }
