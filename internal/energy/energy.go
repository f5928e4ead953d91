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
	"fmt"
	"time"
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

// Meter integrates one radio's energy and records its power trace. It
// watches the radio from outside, like the paper's power monitor: time
// is what the caller passes in, the instant of every packet the radio
// sends or receives and the instant of every reading. The demotions
// (active to tail after ActiveHold, tail to idle after TailDuration)
// follow from the last packet's instant, so they are applied when a
// later packet or reading passes them.
//
// Instants must not decrease across packets and readings. A reading at
// an instant applies every demotion due at or before it; a packet
// exactly at a demotion instant not yet read keeps the radio in its
// state.
type Meter struct {
	model Model

	state      State
	stateStart time.Duration
	joules     float64 // radio energy above base, integrated to stateStart
	trace      []Sample

	last time.Duration // the last packet's instant
	now  time.Duration // the latest instant passed in
}

// NewMeter creates an idle meter.
func NewMeter(model Model) *Meter {
	m := &Meter{model: model}
	m.trace = append(m.trace, Sample{T: 0, State: Idle, Watts: 0})
	return m
}

// OnPacket registers radio activity at instant t.
func (m *Meter) OnPacket(t time.Duration) {
	m.advance(t)
	m.settle(t - 1) // a packet at a demotion instant comes first
	m.transition(Active, t)
	m.last = t
}

// advance moves the meter's clock to t, refusing to go back.
func (m *Meter) advance(t time.Duration) {
	if t < m.now {
		panic(fmt.Sprintf("energy: instant %v before %v", t, m.now))
	}
	m.now = t
}

// settle applies the demotions due at or before t.
func (m *Meter) settle(t time.Duration) {
	toTail := m.last + m.model.ActiveHold
	if m.state == Active && toTail <= t {
		m.transition(Tail, toTail)
	}
	if toIdle := toTail + m.model.TailDuration; m.state == Tail && toIdle <= t {
		m.transition(Idle, toIdle)
	}
}

// read is a reading at until: the meter's clock moves there and every
// demotion due by then is applied.
func (m *Meter) read(until time.Duration) {
	m.advance(until)
	m.settle(until)
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

func (m *Meter) transition(to State, now time.Duration) {
	if to == m.state {
		return
	}
	m.joules += m.watts(m.state) * (now - m.stateStart).Seconds()
	m.state = to
	m.stateStart = now
	m.trace = append(m.trace, Sample{T: now, State: to, Watts: m.watts(to)})
}

// RadioJoules returns the radio energy (above base) integrated over
// [0, until].
func (m *Meter) RadioJoules(until time.Duration) float64 {
	m.read(until)
	return m.joules + m.watts(m.state)*(until-m.stateStart).Seconds()
}

// Trace returns the power-step trace (radio watts above base) up to
// until.
func (m *Meter) Trace(until time.Duration) []Sample {
	m.read(until)
	return m.trace
}

func (m *Meter) powerAt(t time.Duration) float64 {
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
	m.read(until)
	buf := make([]byte, cols)
	for i := range buf {
		t := time.Duration(float64(until) * (float64(i) + 0.5) / float64(cols))
		switch p := m.powerAt(t); {
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
