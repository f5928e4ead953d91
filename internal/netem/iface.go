package netem

import (
	"errors"
	"fmt"
	"time"

	"multinet/internal/simnet"
)

// Tap observes packets as they are sent into a link (before queueing and
// drops). The Section 3.6 transfers (Figure 15's packet rasters, Figure
// 16's energy meters) observe their interfaces through taps.
type Tap func(p *Packet)

// Iface is one duplex network attachment of the multi-homed client: an
// uplink (client→server) and a downlink (server→client) pair of links,
// e.g. the WiFi path or the LTE path of paper Fig. 5.
type Iface struct {
	Name string

	sim      *simnet.Sim
	pkts     *simnet.FreeList[Packet]
	up, down Link

	clientRecv func(*Packet)
	serverRecv func(*Packet)
	sendTaps   []Tap
	recvTaps   []Tap

	adminDown bool
	blackhole bool
	downSubs  []downSub // a piece of the Sim's slab

	// Radio wake-up (RRC promotion) state: the first uplink packet
	// after promIdle of silence waits promDelay before entering the
	// link, modelling the LTE IDLE→CONNECTED transition.
	promDelay    time.Duration
	promIdle     time.Duration
	lastActivity time.Duration
	wakeUntil    time.Duration
	waking       int // packets held for the promotion, not yet sent
}

// NewIface wires a duplex interface from two one-way links.
func NewIface(sim *simnet.Sim, name string, uplink, downlink Link) *Iface {
	i := &Iface{Name: name, sim: sim, pkts: simnet.FreeListOf[Packet](sim),
		up: uplink, down: downlink, lastActivity: -1}
	uplink.SetReceiver(func(p *Packet) {
		i.lastActivity = sim.Now()
		for _, t := range i.recvTaps {
			t(p)
		}
		if i.serverRecv != nil {
			i.serverRecv(p)
		}
	})
	downlink.SetReceiver(func(p *Packet) {
		i.lastActivity = sim.Now()
		for _, t := range i.recvTaps {
			t(p)
		}
		if i.clientRecv != nil {
			i.clientRecv(p)
		}
	})
	return i
}

// SetPromotion configures radio wake-up latency: the first uplink
// packet after idleAfter of radio silence is held for delay before it
// enters the link (and packets sent during the wake-up queue behind
// it). This models cellular RRC promotion — one reason the paper's
// traces show slow connection setup on LTE (e.g. its Fig. 9
// discussion). Pass delay 0 to disable.
func (i *Iface) SetPromotion(delay, idleAfter time.Duration) {
	i.promDelay = delay
	i.promIdle = idleAfter
}

// OnClientRecv installs the client-side delivery callback (packets
// travelling Down arrive here).
func (i *Iface) OnClientRecv(fn func(*Packet)) { i.clientRecv = fn }

// OnServerRecv installs the server-side delivery callback (packets
// travelling Up arrive here).
func (i *Iface) OnServerRecv(fn func(*Packet)) { i.serverRecv = fn }

// AddSendTap registers a tap on packets entering either link.
func (i *Iface) AddSendTap(t Tap) { i.sendTaps = append(i.sendTaps, t) }

// AddRecvTap registers a tap on packets delivered from either link.
func (i *Iface) AddRecvTap(t Tap) { i.recvTaps = append(i.recvTaps, t) }

// newPacket builds a recycled packet for this interface, carrying a copy
// of seg, or a zero header when seg is nil.
func (i *Iface) newPacket(dir Direction, size int, seg *Segment) *Packet {
	p := takePacket(i.pkts)
	p.Dir = dir
	p.Size = size
	if seg != nil {
		p.Seg = *seg
	}
	return p
}

// holdForPromotion sends p once the radio is awake, at wakeUntil, which
// is the radio's last activity until then.
func (i *Iface) holdForPromotion(p *Packet) {
	i.lastActivity = i.wakeUntil
	p.promo = i
	i.waking++
	i.sim.ScheduleArg(i.wakeUntil, sendPromoted, p)
}

// sendPromoted runs when a packet's radio-promotion wait elapses.
func sendPromoted(a any) {
	p := a.(*Packet)
	i := p.promo
	p.promo = nil
	i.waking--
	i.up.Send(p)
}

// SendUp transmits a packet of size bytes client→server on this
// interface, paying radio promotion latency if the radio was idle. The
// packet carries a copy of *seg, so the caller may reuse seg at once; a
// nil seg sends a raw packet.
func (i *Iface) SendUp(size int, seg *Segment) {
	p := i.newPacket(Up, size, seg)
	for _, t := range i.sendTaps {
		t(p)
	}
	now := i.sim.Now()
	if i.promDelay > 0 {
		switch {
		case now < i.wakeUntil:
			// Radio still waking: queue behind the promotion (FIFO is
			// preserved by the event heap's scheduling order).
			i.holdForPromotion(p)
			return
		case i.lastActivity < 0 || now-i.lastActivity > i.promIdle:
			i.wakeUntil = now + i.promDelay
			i.holdForPromotion(p)
			return
		}
	}
	i.lastActivity = now
	i.up.Send(p)
}

// SendDown transmits a packet server→client on this interface. The
// server side never pays promotion: our flows are client-initiated, so
// the radio is already connected when responses arrive. seg is copied as
// by SendUp.
func (i *Iface) SendDown(size int, seg *Segment) {
	p := i.newPacket(Down, size, seg)
	for _, t := range i.sendTaps {
		t(p)
	}
	i.down.Send(p)
}

// SetDown administratively changes the interface state in both
// directions and, unlike Blackhole, notifies subscribers — this is the
// `iproute multipath off` semantics of paper Section 3.6: protocol
// stacks learn about the change immediately.
func (i *Iface) SetDown(down bool) {
	if i.adminDown == down {
		return
	}
	i.adminDown = down
	i.up.SetDown(down)
	i.down.SetDown(down)
	for _, sub := range i.downSubs {
		sub.fn(sub.arg, down)
	}
}

// SetBlackhole silently kills (or restores) the path in both directions
// with no notification — the "physically unplug the phone" semantics of
// paper Fig. 15g/h: traffic vanishes but no stack is told.
func (i *Iface) SetBlackhole(bh bool) {
	if i.blackhole == bh {
		return
	}
	i.blackhole = bh
	i.up.SetBlackhole(bh)
	i.down.SetBlackhole(bh)
}

// SetLossProb changes the random-loss probability in both directions —
// the fault layer's loss-burst episode.
func (i *Iface) SetLossProb(p float64) {
	i.up.SetLossProb(p)
	i.down.SetLossProb(p)
}

// AdminDown reports whether the interface is administratively down.
func (i *Iface) AdminDown() bool { return i.adminDown }

// downSub is one SubscribeDown registration.
type downSub struct {
	fn  func(arg any, down bool)
	arg any
}

// SubscribeDown registers fn(arg, down) to be called on administrative
// state changes (down = went down). Blackholes do NOT trigger it. Like
// simnet's ScheduleArg it takes the callee's state as an argument, so a
// subscriber per connection is a package-level function and a pointer,
// not a closure.
func (i *Iface) SubscribeDown(fn func(arg any, down bool), arg any) {
	if len(i.downSubs) == cap(i.downSubs) {
		i.downSubs = simnet.SlabOf[downSub](i.sim).Grow(i.downSubs, len(i.downSubs)+1)
	}
	i.downSubs = append(i.downSubs, downSub{fn, arg})
}

// UpLink returns the client→server link.
func (i *Iface) UpLink() Link { return i.up }

// DownLink returns the server→client link.
func (i *Iface) DownLink() Link { return i.down }

// String identifies the interface.
func (i *Iface) String() string { return fmt.Sprintf("iface(%s)", i.Name) }

// Host is a multi-homed client endpoint: a set of named interfaces, all
// terminating at the same single-homed server (as in the paper's setup:
// a laptop tethered to a WiFi phone and an LTE phone, talking to a
// server at MIT).
type Host struct {
	Name   string
	ifaces []*Iface // in attachment order; a host has a handful
}

// NewHost creates an empty host.
func NewHost(name string) *Host {
	return &Host{Name: name}
}

// Attach adds an interface; attaching a duplicate name panics.
func (h *Host) Attach(i *Iface) {
	if h.Iface(i.Name) != nil {
		panic("netem: duplicate interface " + i.Name)
	}
	h.ifaces = append(h.ifaces, i)
}

// Iface returns the named interface or nil.
func (h *Host) Iface(name string) *Iface {
	for _, i := range h.ifaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// Ifaces returns the interfaces in attachment order. The list is the
// host's own, handed out at full capacity so that an append copies it:
// every connection walks it when it joins its subflows.
func (h *Host) Ifaces() []*Iface { return h.ifaces[:len(h.ifaces):len(h.ifaces)] }

// Audit checks two rules, which hold between any two events, and
// returns an error naming each broken one, nil (allocating nothing) when
// both hold: link-conservation, Sent == Delivered + LostInFlight +
// on-wire on each of the host's links (which must be this package's),
// and packet-leak, every packet out of the world's free list on a link
// or waiting for its radio's promotion.
func (h *Host) Audit() error {
	var errs []error
	live, held := 0, 0
	for _, i := range h.ifaces {
		live, held = i.pkts.Live(), held+i.waking // one list per world
		for dir, l := range [...]Link{i.up, i.down} {
			st, wire := l.Stats(), l.(interface{ onWire() int }).onWire()
			if st.Sent != st.Delivered+st.LostInFlight+wire {
				errs = append(errs, fmt.Errorf("link-conservation: %s/%v: sent=%d delivered=%d lost-in-flight=%d on-wire=%d",
					i.Name, Direction(dir), st.Sent, st.Delivered, st.LostInFlight, wire))
			}
			held += wire
		}
	}
	if n := live - held; n != 0 {
		errs = append(errs, fmt.Errorf("packet-leak: %d pooled packets unaccounted for", n))
	}
	return errors.Join(errs...)
}

// IfaceNames returns the interface names in attachment order.
func (h *Host) IfaceNames() []string {
	out := make([]string, len(h.ifaces))
	for k, i := range h.ifaces {
		out[k] = i.Name
	}
	return out
}
