package tcp

import (
	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// Side identifies which end of the client↔server paths a Stack sits on.
type Side int

// Stack sides.
const (
	ClientSide Side = iota
	ServerSide
)

// Stack demultiplexes segments arriving on one or more interfaces to
// connections, and creates passive connections on incoming SYNs (the
// listener role).
//
// Every connection a stack files gets a handle, its index + 1 in the
// table. A connection stamps its handle on what it sends
// (netem.Segment.SrcPort) and remembers its peer's from what it receives, so
// the peer's next segment names its receiver (DstPort) and dispatch is
// one index. The name is the fallback, for a segment whose DstPort is
// unset (a SYN, or a retransmitted one) or names a forgotten connection
// (a segment of an earlier incarnation), and it is found by scanning the
// table: such segments are a fraction of a percent of what a stack
// dispatches, and a stack holds a few dozen connections at most. Handles
// are never reused within a world, so such a segment goes by name where
// it always went, and a live handle can only name the connection with
// the segment's own flow name. That rests on a world's two stacks facing
// each other, one per side of every interface: a handle learnt from a
// segment indexes the stack that sent it, which is the one the reply
// reaches.
type Stack struct {
	sim  *simnet.Sim
	side Side
	// table is the demux table, a piece of the Sim's slab, so a world
	// built from a released one finds it already grown: entry i is the
	// connection whose handle is i + 1, nil once forgotten.
	table []*Conn
	// Accept configures a passively-opened connection before its SYN is
	// processed (install callbacks, queue response data, ...). If nil,
	// incoming SYNs for unknown flows are dropped.
	Accept func(c *Conn)
}

// NewStack creates an empty stack.
func NewStack(sim *simnet.Sim, side Side) *Stack {
	return &Stack{sim: sim, side: side}
}

// insert gives c the next handle.
func (s *Stack) insert(c *Conn) {
	if len(s.table) == cap(s.table) {
		s.table = simnet.SlabOf[*Conn](s.sim).Grow(s.table, len(s.table)+1)
	}
	s.table = append(s.table, c)
	c.port = uint32(len(s.table))
}

// Bind attaches the stack to an interface so segments arriving on the
// stack's side are dispatched to connections.
func (s *Stack) Bind(iface *netem.Iface) {
	recv := func(p *netem.Packet) { s.dispatch(iface, p) }
	if s.side == ClientSide {
		iface.OnClientRecv(recv)
	} else {
		iface.OnServerRecv(recv)
	}
}

// sendDir returns the direction this stack's conns transmit in.
func (s *Stack) sendDir() netem.Direction {
	if s.side == ClientSide {
		return netem.Up
	}
	return netem.Down
}

// dispatch is the delivery sink of the pooled hot path: it copies the
// header out of the packet and releases the packet before the connection
// handles the copy, so a reply the handler sends reuses that packet.
// The copy stays on this goroutine's stack: nothing below keeps a
// pointer to it (OnSegment hooks get their own copy).
//
//multinet:hotpath
func (s *Stack) dispatch(iface *netem.Iface, p *netem.Packet) {
	seg := p.Seg
	netem.ReleasePacket(p)
	var c *Conn
	if h := uint(seg.DstPort) - 1; h < uint(len(s.table)) { // DstPort 0 wraps past any table
		c = s.table[h]
	}
	if c == nil {
		if c = s.lookup(iface, &seg); c == nil {
			return // no listener / stray segment
		}
	}
	c.handle(&seg)
}

// lookup finds the segment's connection by its flow name, creating a
// passive one for a SYN when the stack listens; nil means drop.
func (s *Stack) lookup(iface *netem.Iface, seg *netem.Segment) *Conn {
	if c := s.Conn(seg.Flow); c != nil {
		return c
	}
	if !seg.Flags.Has(netem.FlagSYN) || seg.Flags.Has(netem.FlagACK) || s.Accept == nil {
		return nil
	}
	c := NewConn(s.sim, iface, s.sendDir(), seg.Flow, Config{})
	s.insert(c)
	s.Accept(c)
	return c
}

// Dial creates an active connection on the given interface and starts
// its handshake.
func (s *Stack) Dial(iface *netem.Iface, flow string, cfg Config) *Conn {
	c := NewConn(s.sim, iface, s.sendDir(), flow, cfg)
	s.Register(c)
	c.Connect()
	return c
}

// Register adds a pre-built connection (used by MPTCP subflows that
// need custom Config on the passive side too).
func (s *Stack) Register(c *Conn) {
	if s.Conn(c.flow) != nil {
		panic("tcp: duplicate flow " + c.flow)
	}
	s.insert(c)
}

// Conn returns the live connection for a flow, or nil.
func (s *Stack) Conn(flow string) *Conn {
	for _, c := range s.table {
		if c != nil && c.flow == flow {
			return c
		}
	}
	return nil
}

// Forget removes a connection from the demux: its name is free for a new
// connection, and its handle is dead for the rest of the world.
func (s *Stack) Forget(flow string) {
	if c := s.Conn(flow); c != nil {
		s.table[c.port-1] = nil
	}
}
