package core

import (
	"strconv"
	"time"

	"multinet/internal/mptcp"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// Flow is one request and its response on one connection, timed from
// the dial to the last byte: the unit every measurement of the paper
// shares. A Cell vs WiFi download is a flow with no request, an upload
// one with no response, an app replay one flow per HTTP exchange, and a
// Section 3.6 backup-mode transfer a download whose client never closes.
//
// Records are carved from the world's slab by Flows.Open and are dead at
// its Close, like the connections they own. Each owns both ends of its
// connection, so one set of package-level hooks serves every flow.
type Flow struct {
	// Name names the connection (the subflows add "/iface").
	Name   string
	Config Config
	// Request is what the client sends once connected, Response what the
	// server sends back once the whole request is in and Think has
	// passed. A flow with no request is answered as soon as the server
	// has the connection; one with no response is done when the request
	// is in.
	Request, Response int
	Think             time.Duration
	// ClientCloses sends the client's FIN once its part is done: the
	// request sent, when there is no response, or else the response in.
	ClientCloses bool
	// Started, Established and Done are the instants the flow was dialed,
	// its (primary) handshake completed and its last byte arrived; zero
	// until they happen.
	Started, Established, Done time.Duration
	// OnDone, if set, is called once the last byte has arrived. It is a
	// plain function, not a closure: what it needs beyond the flow and
	// its Flows it finds through Owner.
	OnDone func(*Flows, *Flow)
	Owner  any

	fs     *Flows
	server end // the server's end, once adopted
	dialed bool
}

// Flows runs flows on a world: Start dials a flow's client end, and the
// world's server answers every connection named after an open flow.
type Flows struct {
	World
	mp   *mptcp.Server
	open []Flow
}

// NewFlows makes w's server answer flows: single-path TCP and MPTCP
// both, on one acceptor. The Flows is carved from w's slab and is dead
// at its Close.
func NewFlows(w World) *Flows {
	fs := simnet.SlabOf[Flows](w.Sim).New()
	fs.serve(w)
	return fs
}

func (fs *Flows) serve(w World) {
	*fs = Flows{World: w, mp: mptcp.NewServer(w.Sim, w.Server, mptcp.ServerConfig{})}
	fs.mp.Owner = fs
	fs.mp.OnConn = acceptMPTCP
	fs.mp.AcceptTCP = acceptTCP
}

// Open carves n zeroed flow records and makes them the open ones. The
// server adopts a connection only by the name of an open flow, so a
// connection of a flow opened before — a late SYN of a transfer given
// up on — is a stranger it leaves alone; Open(0) turns every new
// connection away.
func (fs *Flows) Open(n int) { fs.open = simnet.SlabOf[Flow](fs.Sim).Make(n) }

// Flow returns the i-th open flow.
func (fs *Flows) Flow(i int) *Flow { return &fs.open[i] }

// StartAfter dials f after d, through a timer event even when d is 0.
func (fs *Flows) StartAfter(f *Flow, d time.Duration) {
	f.fs = fs
	fs.Sim.AfterArg(d, startFlow, f)
}

func startFlow(a any) {
	f := a.(*Flow)
	f.fs.Start(f)
}

// Start dials f's client end now; a flow already dialed is left alone.
// It panics on a transport, interface or scheduler that does not exist.
// Every MPTCP dial sets the server's parameters to the flow's, so the
// flows open at one time must agree on them.
func (fs *Flows) Start(f *Flow) {
	if f.dialed {
		return
	}
	if f.Request <= 0 && f.Response <= 0 {
		panic("core: a flow must carry a request or a response")
	}
	f.fs, f.dialed, f.Started = fs, true, fs.Sim.Now()
	cfg := f.Config
	switch cfg.Transport {
	case TCP:
		iface := fs.Host.Iface(cfg.Iface)
		if iface == nil {
			panic("core: unknown iface " + cfg.Iface)
		}
		fs.Client.Dial(iface, f.Name, tcp.Config{
			Callbacks: tcp.Callbacks{OnEstablished: tcpClientEstablished, OnData: tcpClientData},
			Owner:     f,
		})
	case MPTCP:
		// Both endpoints must agree on coupling; Scheduler is wired to
		// both ends.
		fs.mp.SetConfig(mptcp.ServerConfig{
			CC: cfg.CC, Mode: cfg.Mode, Scheduler: cfg.Scheduler, WatchdogRTOs: cfg.WatchdogRTOs,
		})
		mptcp.Dial(fs.Sim, fs.Client, fs.Host, mptcp.Config{
			ConnID:           f.Name,
			Primary:          cfg.Primary,
			CC:               cfg.CC,
			Mode:             cfg.Mode,
			BackupIfaces:     cfg.BackupIfaces,
			Scheduler:        cfg.Scheduler,
			SimultaneousJoin: cfg.SimultaneousJoin,
			WatchdogRTOs:     cfg.WatchdogRTOs,
		}, mptcp.Callbacks{OnEstablished: mpClientEstablished, OnData: mpClientData}).SetOwner(f)
	default:
		panic("core: unknown transport " + strconv.Itoa(int(cfg.Transport)))
	}
}

// named is the open flow whose connection is named name; nil for a
// stranger.
func (fs *Flows) named(name string) *Flow {
	for i := range fs.open {
		if fs.open[i].Name == name {
			return &fs.open[i]
		}
	}
	return nil
}

// acceptTCP and acceptMPTCP adopt an open flow's connection and leave
// strangers alone. The server hands them the connection owned by the
// Flows.

//multinet:hotpath
func acceptTCP(c *tcp.Conn) {
	if f := c.Owner().(*Flows).named(c.Flow()); f != nil {
		f.server = c
		c.SetOwner(f)
		c.SetCallbacks(tcp.Callbacks{OnEstablished: tcpServerEstablished, OnData: tcpServerData})
	}
}

//multinet:hotpath
func acceptMPTCP(c *mptcp.Conn) {
	if f := c.Owner().(*Flows).named(c.ConnID()); f != nil {
		f.server = c
		c.SetOwner(f)
		c.SetCallbacks(mptcp.Callbacks{OnData: mpServerData})
		if f.Request == 0 {
			f.respond()
		}
	}
}

// Every flow's connection is wired with the same hooks. Each finds its
// flow as the connection's owner, set at Dial on the client and at
// accept on the server.

//multinet:hotpath
func tcpClientEstablished(c *tcp.Conn) { c.Owner().(*Flow).clientEstablished(c) }

//multinet:hotpath
func tcpClientData(c *tcp.Conn, total int64) { c.Owner().(*Flow).clientData(c, total) }

//multinet:hotpath
func tcpServerEstablished(c *tcp.Conn) {
	if f := c.Owner().(*Flow); f.Request == 0 {
		f.respond()
	}
}

//multinet:hotpath
func tcpServerData(c *tcp.Conn, total int64) { c.Owner().(*Flow).serverData(total) }

//multinet:hotpath
func mpClientEstablished(c *mptcp.Conn) { c.Owner().(*Flow).clientEstablished(c) }

//multinet:hotpath
func mpClientData(c *mptcp.Conn, total int64) { c.Owner().(*Flow).clientData(c, total) }

//multinet:hotpath
func mpServerData(c *mptcp.Conn, total int64) { c.Owner().(*Flow).serverData(total) }

// end is either transport's connection, as a flow's hooks drive it.
type end interface {
	Send(n int)
	Close()
}

// clientEstablished: the handshake is done, and the request goes out.
//
//multinet:hotpath
func (f *Flow) clientEstablished(c end) {
	f.Established = f.fs.Sim.Now()
	if f.Request > 0 {
		c.Send(f.Request)
		if f.Response == 0 && f.ClientCloses {
			c.Close()
		}
	}
}

// clientData: the flow is done once the whole response has arrived.
//
//multinet:hotpath
func (f *Flow) clientData(c end, total int64) {
	if f.Response > 0 && total >= int64(f.Response) {
		f.finish()
		if f.ClientCloses {
			c.Close()
		}
	}
}

// serverData: once the whole request is in, a flow with no response is
// done, and any other is answered after its think time.
//
//multinet:hotpath
func (f *Flow) serverData(total int64) {
	if f.Request == 0 || total < int64(f.Request) {
		return
	}
	if f.Response == 0 {
		f.finish()
		return
	}
	f.fs.Sim.AfterArg(f.Think, respondFlow, f)
}

func respondFlow(a any) { a.(*Flow).respond() }

//multinet:hotpath
func (f *Flow) respond() {
	f.server.Send(f.Response)
	f.server.Close()
}

//multinet:hotpath
func (f *Flow) finish() {
	if f.Done != 0 {
		return
	}
	f.Done = f.fs.Sim.Now()
	if f.OnDone != nil {
		f.OnDone(f.fs, f)
	}
}
