package netem

import (
	"fmt"
	"math/rand"
	"time"

	"multinet/internal/simnet"
)

// Tap observes packets as they are sent into a link (before queueing and
// drops). The capture package installs taps to build tcpdump-like traces.
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

// newPacket builds a recycled packet for this interface.
func (i *Iface) newPacket(dir Direction, size int, payload any) *Packet {
	p := takePacket(i.pkts)
	p.Iface = i.Name
	p.Dir = dir
	p.Size = size
	p.Payload = payload
	return p
}

// sendPromoted runs when a packet's radio-promotion wait elapses.
func sendPromoted(a any) {
	p := a.(*Packet)
	l := p.promo
	p.promo = nil
	l.Send(p)
}

// SendUp transmits a packet client→server on this interface, paying
// radio promotion latency if the radio was idle.
func (i *Iface) SendUp(size int, payload any) {
	p := i.newPacket(Up, size, payload)
	for _, t := range i.sendTaps {
		t(p)
	}
	now := i.sim.Now()
	if i.promDelay > 0 {
		switch {
		case now < i.wakeUntil:
			// Radio still waking: queue behind the promotion (FIFO is
			// preserved by the event heap's scheduling order).
			i.lastActivity = i.wakeUntil
			p.promo = i.up
			i.sim.ScheduleArg(i.wakeUntil, sendPromoted, p)
			return
		case i.lastActivity < 0 || now-i.lastActivity > i.promIdle:
			i.wakeUntil = now + i.promDelay
			i.lastActivity = i.wakeUntil
			p.promo = i.up
			i.sim.ScheduleArg(i.wakeUntil, sendPromoted, p)
			return
		}
	}
	i.lastActivity = now
	i.up.Send(p)
}

// SendDown transmits a packet server→client on this interface. The
// server side never pays promotion: our flows are client-initiated, so
// the radio is already connected when responses arrive.
func (i *Iface) SendDown(size int, payload any) {
	p := i.newPacket(Down, size, payload)
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
// the fault layer's loss-burst episode. rng seeds links built without a
// loss stream; pass nil to keep existing streams.
func (i *Iface) SetLossProb(p float64, rng *rand.Rand) {
	i.up.SetLossProb(p, rng)
	i.down.SetLossProb(p, rng)
}

// AdminDown reports whether the interface is administratively down.
func (i *Iface) AdminDown() bool { return i.adminDown }

// Blackholed reports whether the interface is silently discarding.
func (i *Iface) Blackholed() bool { return i.blackhole }

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

// IfaceNames returns the interface names in attachment order.
func (h *Host) IfaceNames() []string {
	out := make([]string, len(h.ifaces))
	for k, i := range h.ifaces {
		out[k] = i.Name
	}
	return out
}
