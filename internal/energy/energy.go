// Package energy models smartphone radio power draw, substituting for
// the paper's Monsoon power monitor (Section 3.6). Each radio is a
// three-state machine — idle, active, tail — whose parameters come
// from the paper's own Fig. 16 traces: with a 1 W device baseline, the
// LTE radio draws about 3.2 W while transferring and holds a 2 W "tail"
// for 15 seconds after the last packet; WiFi draws less and has a
// negligible tail. The tail is what makes MPTCP Backup mode save so
// little energy for short flows: even lone SYN/FIN packets pay it.
package energy

import (
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// BaseWatts is the non-radio device draw (screen, CPU) visible in all
// of the paper's Fig. 16 panels.
const BaseWatts = 1.0

// Model describes one radio's power states. Watt values are the draw
// ABOVE the device baseline.
type Model struct {
	// Name labels traces ("lte", "wifi").
	Name string
	// ActiveWatts is the extra draw while the radio is in the
	// high-power (RRC_CONNECTED / awake) state moving packets.
	ActiveWatts float64
	// TailWatts is the extra draw during the post-activity tail
	// (paper refs [3,7]: "Tail Energy").
	TailWatts float64
	// ActiveHold is how long the radio stays in the active state after
	// the last packet before demoting to the tail.
	ActiveHold time.Duration
	// TailDuration is the tail length; fast dormancy would shorten it.
	TailDuration time.Duration
}

// LTE reproduces the paper's Fig. 16a/c: ~3.2 W total active, 2 W
// total tail for 15 s.
var LTE = Model{
	Name:         "lte",
	ActiveWatts:  2.2,
	TailWatts:    1.0,
	ActiveHold:   100 * time.Millisecond,
	TailDuration: 15 * time.Second,
}

// WiFi reproduces Fig. 16b/d: much lower active draw and a negligible
// tail.
var WiFi = Model{
	Name:         "wifi",
	ActiveWatts:  0.8,
	TailWatts:    0.2,
	ActiveHold:   100 * time.Millisecond,
	TailDuration: 200 * time.Millisecond,
}

// State is the radio power state.
type State int

// Radio states.
const (
	Idle State = iota
	Active
	Tail
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Tail:
		return "tail"
	}
	return "idle"
}

// Sample is one step of a power trace: the radio drew Watts (above
// base) from T until the next sample.
type Sample struct {
	T     time.Duration
	State State
	Watts float64
}

// Meter integrates one radio's energy and records its power trace.
type Meter struct {
	sim   *simnet.Sim
	model Model

	state      State
	stateStart time.Duration
	joules     float64 // radio energy above base, integrated to stateStart
	trace      []Sample
	timer      simnet.Timer

	packets int
}

// NewMeter creates a meter; attach it to an interface with Attach.
func NewMeter(sim *simnet.Sim, model Model) *Meter {
	m := &Meter{sim: sim, model: model}
	m.trace = append(m.trace, Sample{T: 0, State: Idle, Watts: 0})
	return m
}

// Attach makes every packet sent or received on the interface count as
// radio activity.
func (m *Meter) Attach(iface *netem.Iface) {
	iface.AddSendTap(func(p *netem.Packet) { m.OnPacket() })
	iface.AddRecvTap(func(p *netem.Packet) { m.OnPacket() })
}

func meterDemoteToTail(a any) { a.(*Meter).demoteToTail() }
func meterDemoteToIdle(a any) { a.(*Meter).demoteToIdle() }

// OnPacket registers radio activity at the current instant.
func (m *Meter) OnPacket() {
	m.packets++
	m.transition(Active)
	m.timer = m.sim.RearmArg(m.timer, m.sim.Now()+m.model.ActiveHold, meterDemoteToTail, m)
}

func (m *Meter) demoteToTail() {
	if m.state != Active {
		return
	}
	m.transition(Tail)
	m.timer = m.sim.AfterArg(m.model.TailDuration, meterDemoteToIdle, m)
}

func (m *Meter) demoteToIdle() {
	if m.state != Tail {
		return
	}
	m.transition(Idle)
}

func (m *Meter) watts(s State) float64 {
	switch s {
	case Active:
		return m.model.ActiveWatts
	case Tail:
		return m.model.TailWatts
	}
	return 0
}

func (m *Meter) transition(to State) {
	now := m.sim.Now()
	if to == m.state {
		return
	}
	m.joules += m.watts(m.state) * (now - m.stateStart).Seconds()
	m.state = to
	m.stateStart = now
	m.trace = append(m.trace, Sample{T: now, State: to, Watts: m.watts(to)})
}

// State returns the current radio state.
func (m *Meter) State() State { return m.state }

// Packets returns the number of activity events observed.
func (m *Meter) Packets() int { return m.packets }

// RadioJoules returns the radio energy (above base) integrated up to
// the current simulation time.
func (m *Meter) RadioJoules() float64 {
	return m.joules + m.watts(m.state)*(m.sim.Now()-m.stateStart).Seconds()
}

// TotalJoules returns radio energy plus device baseline over [0, now].
func (m *Meter) TotalJoules() float64 {
	return m.RadioJoules() + BaseWatts*m.sim.Now().Seconds()
}

// Trace returns the power-step trace (radio watts above base).
func (m *Meter) Trace() []Sample { return m.trace }

// PowerAt returns the total draw (base + radio) at time t.
func (m *Meter) PowerAt(t time.Duration) float64 {
	w := 0.0
	for _, s := range m.trace {
		if s.T > t {
			break
		}
		w = s.Watts
	}
	return BaseWatts + w
}

// TraceString renders the power trace as an ASCII strip over [0,until]:
// '#' active, '~' tail, '.' idle — the textual analogue of Fig. 16.
func (m *Meter) TraceString(until time.Duration, cols int) string {
	if cols <= 0 || until <= 0 {
		return ""
	}
	buf := make([]byte, cols)
	for i := range buf {
		t := time.Duration(float64(until) * (float64(i) + 0.5) / float64(cols))
		switch p := m.PowerAt(t); {
		case p >= BaseWatts+m.model.ActiveWatts-1e-9:
			buf[i] = '#'
		case p > BaseWatts+1e-9:
			buf[i] = '~'
		default:
			buf[i] = '.'
		}
	}
	return string(buf)
}
