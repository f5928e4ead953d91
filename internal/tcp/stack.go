package tcp

import (
	"slices"
	"strings"

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
// connections by flow identifier, and creates passive connections on
// incoming SYNs (the listener role).
type Stack struct {
	sim  *simnet.Sim
	side Side
	// conns is the demux table: the connections sorted by flow name, on a
	// piece of the Sim's slab, so that a world built from a released one
	// finds the table already grown. A short-lived world holds a few
	// dozen flows; a search is a handful of string compares and an insert
	// moves pointers.
	conns []*Conn
	// gen counts changes to conns; it invalidates the Bind closures'
	// flow caches (see flowCache).
	gen uint64
	// Accept configures a passively-opened connection before its SYN is
	// processed (install callbacks, queue response data, ...). If nil,
	// incoming SYNs for unknown flows are dropped.
	Accept func(c *Conn)
}

// NewStack creates an empty stack.
func NewStack(sim *simnet.Sim, side Side) *Stack {
	return &Stack{sim: sim, side: side}
}

// find returns where flow's connection is in the table, or where it
// would go.
func (s *Stack) find(flow string) (int, bool) {
	return slices.BinarySearchFunc(s.conns, flow, func(c *Conn, flow string) int {
		return strings.Compare(c.flow, flow)
	})
}

// insert files c at i, the place find gave for its flow.
func (s *Stack) insert(i int, c *Conn) {
	if len(s.conns) == cap(s.conns) {
		s.conns = simnet.SlabOf[*Conn](s.sim).Grow(s.conns, len(s.conns)+1)
	}
	s.conns = slices.Insert(s.conns, i, c)
	s.gen++
}

// flowCache remembers the last demux-table hit of one Bind closure. A
// bulk transfer delivers run after run of segments of one flow to one
// interface, and looking the flow string up for each was 4–5 % of a
// sweep; a hit here is a generation compare and a string compare that
// stops at the shared data pointer.
type flowCache struct {
	flow string
	conn *Conn
	gen  uint64
}

// Bind attaches the stack to an interface so segments arriving on the
// stack's side are dispatched to connections.
func (s *Stack) Bind(iface *netem.Iface) {
	fc := new(flowCache)
	recv := func(p *netem.Packet) { s.dispatch(iface, p, fc) }
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

// dispatch is the delivery sink of the pooled hot path: once the
// payload segment is extracted the packet is released, and after the
// connection has processed the segment it is recycled too. Handlers
// (and their callbacks) therefore must not retain the segment or
// anything aliased to it beyond the handle call — they copy the fields
// they need, as the MPTCP layer does.
//
//multinet:hotpath
func (s *Stack) dispatch(iface *netem.Iface, p *netem.Packet, fc *flowCache) {
	seg, ok := p.Payload.(*Segment)
	if !ok {
		return
	}
	p.Payload = nil
	netem.ReleasePacket(p)
	c := fc.conn
	if c == nil || fc.gen != s.gen || fc.flow != seg.Flow {
		c = s.lookup(iface, seg)
		if c == nil {
			seg.Recycle() // no listener / stray segment
			return
		}
		*fc = flowCache{flow: seg.Flow, conn: c, gen: s.gen}
	}
	c.handle(seg)
	seg.Recycle()
}

// lookup finds the segment's connection in the demux table, creating a
// passive one for a SYN when the stack listens; nil means drop.
func (s *Stack) lookup(iface *netem.Iface, seg *Segment) *Conn {
	i, ok := s.find(seg.Flow)
	if ok {
		return s.conns[i]
	}
	if !seg.Flags.Has(FlagSYN) || seg.Flags.Has(FlagACK) || s.Accept == nil {
		return nil
	}
	c := NewConn(s.sim, iface, s.sendDir(), seg.Flow, Config{})
	s.insert(i, c)
	s.Accept(c)
	return c
}

// Dial creates an active connection on the given interface and starts
// its handshake.
func (s *Stack) Dial(iface *netem.Iface, flow string, cfg Config) *Conn {
	i, dup := s.find(flow)
	if dup {
		panic("tcp: duplicate flow " + flow)
	}
	c := NewConn(s.sim, iface, s.sendDir(), flow, cfg)
	s.insert(i, c)
	c.Connect()
	return c
}

// Register adds a pre-built connection (used by MPTCP subflows that
// need custom Config on the passive side too).
func (s *Stack) Register(c *Conn) {
	i, dup := s.find(c.flow)
	if dup {
		panic("tcp: duplicate flow " + c.flow)
	}
	s.insert(i, c)
}

// Conn returns the connection for a flow, or nil.
func (s *Stack) Conn(flow string) *Conn {
	if i, ok := s.find(flow); ok {
		return s.conns[i]
	}
	return nil
}

// Forget removes a connection from the demux table.
func (s *Stack) Forget(flow string) {
	if i, ok := s.find(flow); ok {
		s.conns = slices.Delete(s.conns, i, i+1)
	}
	s.gen++
}
