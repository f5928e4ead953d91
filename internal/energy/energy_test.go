package energy

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"multinet/internal/simnet"
)

// train returns packet instants every p over [0, flow].
func train(p, flow time.Duration) []time.Duration {
	var ts []time.Duration
	for t := time.Duration(0); t <= flow; t += p {
		ts = append(ts, t)
	}
	return ts
}

// feed returns a meter that saw a packet at each instant.
func feed(model Model, instants ...time.Duration) *Meter {
	m := NewMeter(model)
	for _, t := range instants {
		m.OnPacket(t)
	}
	return m
}

// stateAt reads the meter at t and returns the radio state its trace
// holds there.
func stateAt(m *Meter, t time.Duration) State {
	s := Idle
	for _, x := range m.Trace(t) {
		if x.T <= t {
			s = x.State
		}
	}
	return s
}

func TestStateProgression(t *testing.T) {
	m := NewMeter(LTE)
	if s := stateAt(m, 0); s != Idle {
		t.Fatalf("meter starts %v, want idle", s)
	}
	m.OnPacket(0)
	if s := stateAt(m, 0); s != Active {
		t.Fatalf("state after a packet = %v, want active", s)
	}
	// After ActiveHold the radio demotes to tail; after TailDuration to
	// idle.
	if s := stateAt(m, 200*time.Millisecond); s != Tail {
		t.Fatalf("state at 200ms = %v, want tail", s)
	}
	if s := stateAt(m, 16*time.Second); s != Idle {
		t.Fatalf("state at 16s = %v, want idle", s)
	}
}

func TestActivityExtendsActive(t *testing.T) {
	// A packet every 50 ms keeps the radio active (hold is 100 ms).
	m := feed(LTE, train(50*time.Millisecond, time.Second)...)
	if s := stateAt(m, time.Second); s != Active {
		t.Fatalf("state = %v, want active under continuous traffic", s)
	}
	if n := len(m.Trace(time.Second)); n != 2 {
		t.Fatalf("trace has %d steps, want 2 (idle, active)", n)
	}
}

func TestLTETailEnergyDominatesShortTransfer(t *testing.T) {
	// A short burst: tail energy (15 s x 1 W) dwarfs active energy —
	// the paper's Section 3.6 core observation.
	m := feed(LTE, train(10*time.Millisecond, 90*time.Millisecond)...)
	j := m.RadioJoules(20 * time.Second)
	// Active: ~0.19 s x 2.2 W ~ 0.42 J. Tail: 15 s x 1 W = 15 J.
	if j < 14 || j > 17 {
		t.Fatalf("radio energy %.2f J, want ~15.4 (tail-dominated)", j)
	}
}

func TestWiFiTailNegligible(t *testing.T) {
	m := feed(WiFi, 0)
	j := m.RadioJoules(20 * time.Second)
	// Active 0.1 s x 0.8 + tail 0.2 s x 0.2 = 0.12 J.
	if j > 0.5 {
		t.Fatalf("WiFi radio energy %.3f J, want < 0.5 (no meaningful tail)", j)
	}
}

func TestPowerAtMatchesPaperLevels(t *testing.T) {
	m := feed(LTE, 0)
	if p := m.PowerAt(20 * time.Millisecond); math.Abs(p-3.2) > 1e-9 {
		t.Fatalf("active LTE power = %.2f W, want 3.2 (paper Fig. 16a)", p)
	}
	if p := m.PowerAt(2 * time.Second); math.Abs(p-2.0) > 1e-9 {
		t.Fatalf("tail LTE power = %.2f W, want 2.0", p)
	}
	if p := m.PowerAt(29 * time.Second); math.Abs(p-1.0) > 1e-9 {
		t.Fatalf("idle power = %.2f W, want 1.0 (base)", p)
	}
}

func TestEnergyIntegralManual(t *testing.T) {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	a, w, hold, tail := LTE.ActiveWatts, LTE.TailWatts, LTE.ActiveHold, LTE.TailDuration
	noTail := LTE
	noTail.TailDuration = 0
	// A train every p < ActiveHold over [0, F], read at H, is active
	// for F+ActiveHold and then in the tail until H or the tail's end.
	trainJoules := func(m Model, flow, until time.Duration) float64 {
		return m.ActiveWatts*sec(flow+m.ActiveHold) +
			m.TailWatts*sec(min(m.TailDuration, until-flow-m.ActiveHold))
	}
	cases := []struct {
		name    string
		model   Model
		packets []time.Duration
		until   time.Duration
		want    float64
	}{
		// One packet at t=0: active for 0.1 s (2.2 W), tail 15 s (1 W),
		// then idle. At t=20 s: 0.22 + 15 = 15.22 J.
		{"single packet", LTE, []time.Duration{0}, 20 * time.Second,
			a*sec(hold) + w*sec(tail)},
		{"single packet, read in the tail", LTE, []time.Duration{time.Second}, 3 * time.Second,
			a*sec(hold) + w*sec(2*time.Second-hold)},
		{"train, read in the tail", LTE, train(20*time.Millisecond, 2*time.Second), 10 * time.Second,
			trainJoules(LTE, 2*time.Second, 10*time.Second)},
		{"train, read after the tail", LTE, train(20*time.Millisecond, 2*time.Second), 30 * time.Second,
			trainJoules(LTE, 2*time.Second, 30*time.Second)},
		{"wifi train", WiFi, train(50*time.Millisecond, 5*time.Second), 6 * time.Second,
			trainJoules(WiFi, 5*time.Second, 6*time.Second)},
		// SYN and FIN 10 s apart: the SYN's tail bridges into the FIN.
		{"SYN/FIN inside the tail", LTE, []time.Duration{0, 10 * time.Second}, 26 * time.Second,
			a*sec(hold) + w*sec(10*time.Second-hold) + a*sec(hold) + w*sec(tail)},
		{"SYN/FIN past the tail", LTE, []time.Duration{0, 20 * time.Second}, 40 * time.Second,
			2 * (a*sec(hold) + w*sec(tail))},
		{"zero tail", noTail, []time.Duration{0}, 5 * time.Second, a * sec(hold)},
		{"zero tail train", noTail, train(20*time.Millisecond, time.Second), 5 * time.Second,
			trainJoules(noTail, time.Second, 5*time.Second)},
	}
	for _, c := range cases {
		got := feed(c.model, c.packets...).RadioJoules(c.until)
		if math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s: radio energy %.12f J, want %.12f", c.name, got, c.want)
		}
	}
}

func TestTraceStringShape(t *testing.T) {
	m := feed(LTE, 0)
	// 300 columns over 30 s: the first bucket midpoint (50 ms) falls in
	// the 100 ms active period.
	s := m.TraceString(30*time.Second, 300)
	if !strings.HasPrefix(s, "#") {
		t.Fatalf("trace should start active, got %q...", s[:10])
	}
	if !strings.Contains(s, "~") {
		t.Fatal("trace should contain a tail")
	}
	if !strings.HasSuffix(s, ".") {
		t.Fatal("trace should end idle")
	}
}

func TestMultipleBurstsSeparateTails(t *testing.T) {
	m := feed(WiFi, 0)
	if s := stateAt(m, 5*time.Second); s != Idle {
		t.Fatalf("state between bursts = %v, want idle", s)
	}
	m.OnPacket(5 * time.Second)
	if s := stateAt(m, 5050*time.Millisecond); s != Active {
		t.Fatalf("second burst left the radio %v, want active", s)
	}
	// Trace: idle->active->tail->idle->active...
	if tr := m.Trace(5050 * time.Millisecond); len(tr) < 5 {
		t.Fatalf("trace has %d steps, want >= 5", len(tr))
	}
}

func TestInstantsMustNotDecrease(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("packet before packet", func() { feed(LTE, time.Second, 0) })
	mustPanic("packet before reading", func() {
		m := feed(LTE, 0)
		m.RadioJoules(time.Second)
		m.OnPacket(time.Second - 1)
	})
	mustPanic("reading before reading", func() {
		m := feed(LTE, 0)
		m.Trace(time.Second)
		m.PowerAt(time.Second - 1)
	})
	m := feed(LTE, 0)
	m.RadioJoules(time.Second)
	m.OnPacket(time.Second) // at the instant read: allowed
}

func TestBackupModeEnergyParadox(t *testing.T) {
	// The paper's Section 3.6 punchline, in miniature: an LTE radio
	// that carries ONLY a SYN at t=0 and a FIN at t=flowEnd still burns
	// nearly as much energy as one actively transferring, for flows
	// shorter than the 15 s tail.
	flowDur := 10 * time.Second
	horizon := flowDur + 16*time.Second

	backup := feed(LTE, 0, flowDur)
	active := feed(LTE, train(20*time.Millisecond, flowDur)...)

	eBackup, eActive := backup.RadioJoules(horizon), active.RadioJoules(horizon)
	if eBackup >= eActive {
		t.Fatalf("backup %.1f J >= active %.1f J", eBackup, eActive)
	}
	saving := 1 - eBackup/eActive
	// For a 10 s flow the saving must be small (< 40%), because the
	// SYN tail bridges into the FIN tail.
	if saving > 0.4 {
		t.Fatalf("backup saving %.0f%%, want < 40%% for sub-15s flows", saving*100)
	}
}

// timerMeter is the meter as a simulator process, with its demotions
// on simulator timers: the reference FuzzMeterMatchesTimers holds
// Meter to.
type timerMeter struct {
	sim   *simnet.Sim
	model Model

	state      State
	stateStart time.Duration
	joules     float64
	trace      []Sample
	timer      simnet.Timer
}

func newTimerMeter(sim *simnet.Sim, model Model) *timerMeter {
	return &timerMeter{sim: sim, model: model, trace: []Sample{{T: 0, State: Idle, Watts: 0}}}
}

func timerDemoteToTail(a any) { a.(*timerMeter).demoteToTail() }
func timerDemoteToIdle(a any) { a.(*timerMeter).demoteToIdle() }

func (m *timerMeter) onPacket() {
	m.transition(Active)
	m.timer = m.sim.RearmArg(m.timer, m.sim.Now()+m.model.ActiveHold, timerDemoteToTail, m)
}

func (m *timerMeter) demoteToTail() {
	if m.state != Active {
		return
	}
	m.transition(Tail)
	m.timer = m.sim.AfterArg(m.model.TailDuration, timerDemoteToIdle, m)
}

func (m *timerMeter) demoteToIdle() {
	if m.state != Tail {
		return
	}
	m.transition(Idle)
}

func (m *timerMeter) watts(s State) float64 {
	switch s {
	case Active:
		return m.model.ActiveWatts
	case Tail:
		return m.model.TailWatts
	}
	return 0
}

func (m *timerMeter) transition(to State) {
	now := m.sim.Now()
	if to == m.state {
		return
	}
	m.joules += m.watts(m.state) * (now - m.stateStart).Seconds()
	m.state = to
	m.stateStart = now
	m.trace = append(m.trace, Sample{T: now, State: to, Watts: m.watts(to)})
}

func (m *timerMeter) radioJoules() float64 {
	return m.joules + m.watts(m.state)*(m.sim.Now()-m.stateStart).Seconds()
}

// decodeInstants turns fuzz bytes into a radio model, a non-decreasing
// packet train and a final reading instant. Byte 0 picks the model (LTE,
// WiFi, or LTE with ablation-tail's zero tail) and whether the meter is
// also read between packets; each later byte is one gap: 0, exactly
// ActiveHold, exactly ActiveHold+TailDuration, or an arbitrary gap taken
// from the next four bytes in 5 ns steps (up to 21.5 s). The last gap
// leads from the last packet to the final reading.
func decodeInstants(data []byte) (model Model, midReads bool, packets []time.Duration, until time.Duration) {
	if len(data) == 0 {
		return LTE, false, nil, 0
	}
	noTail := LTE
	noTail.TailDuration = 0
	model = []Model{LTE, WiFi, noTail}[data[0]%3]
	midReads = data[0]/3%2 == 1
	var t time.Duration
	var instants []time.Duration
	for rest := data[1:]; len(rest) > 0 && len(instants) < 64; {
		kind := rest[0] % 4
		rest = rest[1:]
		switch kind {
		case 1:
			t += model.ActiveHold
		case 2:
			t += model.ActiveHold + model.TailDuration
		case 3:
			var b [4]byte
			n := copy(b[:], rest)
			rest = rest[n:]
			t += time.Duration(binary.LittleEndian.Uint32(b[:])) * 5
		}
		instants = append(instants, t)
	}
	if len(instants) == 0 {
		return model, midReads, nil, 0
	}
	return model, midReads, instants[:len(instants)-1], instants[len(instants)-1]
}

// FuzzMeterMatchesTimers holds the instant-driven Meter to the timer
// meter it replaced: every packet event is scheduled up front, so at an
// equal instant a packet precedes a demotion, and the traces and
// energies must be equal, not merely close.
func FuzzMeterMatchesTimers(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 1}) // LTE: gaps of 0, exactly a hold, exactly hold+tail
	f.Add([]byte{1, 1, 2, 1, 2, 2})       // WiFi
	f.Add([]byte{2, 1, 1, 2, 0, 2, 1})    // zero tail: both demotions at one instant
	f.Add([]byte{3, 2, 1, 0, 2, 1, 2})    // LTE, read between packets
	f.Add([]byte{5, 1, 2, 1, 1, 0, 2, 2}) // zero tail, read between packets
	// LTE: arbitrary gaps of 25 ms and 1,275 ns.
	f.Add([]byte{0, 3, 0x40, 0x4b, 0x4c, 0, 1, 3, 0xff, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		model, midReads, packets, until := decodeInstants(data)
		sim := simnet.New(1)
		defer sim.Release()
		ref := newTimerMeter(sim, model)
		for _, at := range packets {
			sim.Schedule(at, ref.onPacket)
		}
		m := NewMeter(model)
		check := func(at time.Duration) {
			t.Helper()
			sim.RunUntil(at)
			if got, want := m.RadioJoules(at), ref.radioJoules(); got != want {
				t.Fatalf("RadioJoules(%v) = %v, timer meter %v", at, got, want)
			}
			if got := m.Trace(at); !slices.Equal(got, ref.trace) {
				t.Fatalf("Trace(%v) =\n%v\ntimer meter\n%v", at, got, ref.trace)
			}
		}
		for i, at := range packets {
			m.OnPacket(at)
			if midReads && i+1 < len(packets) && packets[i+1] > at {
				check(at)
				check(at + (packets[i+1]-at-1)/2)
			}
		}
		check(until)
	})
}
