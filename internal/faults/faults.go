// Package faults is the deterministic fault-injection layer: a
// Schedule of typed episodes (administrative down/up, silent blackhole,
// flap trains, loss bursts, rate collapse) compiled onto simnet timers
// against the netem interfaces of a host. Everything is seed-driven —
// the same schedule attached to the same simulation produces the same
// event sequence bit for bit, at any worker count, because episodes
// become ordinary simulator events with the usual deterministic
// tie-breaking. The invariants a faulted world must still keep are
// checked by the world's own audit when it closes (core.World.Close).
package faults

import (
	"fmt"
	"strings"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// Kind identifies an episode type.
type Kind int

// Episode kinds.
const (
	// AdminDown takes the interface administratively down for Duration
	// and brings it back — the `iproute multipath off/on` semantics:
	// protocol stacks are notified on both edges.
	AdminDown Kind = iota
	// Blackhole silently discards all traffic for Duration with no
	// notification — the "unplug the phone" case of paper Fig. 15g/h.
	Blackhole
	// FlapTrain is Cycles repetitions of (down for Duration, up for the
	// rest of Period): rapid administrative flapping.
	FlapTrain
	// LossBurst raises the i.i.d. loss probability to LossProb for
	// Duration, then restores the link's baseline.
	LossBurst
	// RateCollapse multiplies the link rate by RateFactor for Duration,
	// then restores it. Only fixed-rate links support it; on
	// trace-driven links the episode is a no-op.
	RateCollapse
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case AdminDown:
		return "admin-down"
	case Blackhole:
		return "blackhole"
	case FlapTrain:
		return "flap"
	case LossBurst:
		return "loss-burst"
	case RateCollapse:
		return "rate-collapse"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Episode is one fault on one interface. Start is relative to the
// moment the schedule is attached.
type Episode struct {
	Kind  Kind
	Iface string
	Start time.Duration
	// Duration is the fault's length (per cycle for FlapTrain).
	Duration time.Duration
	// Cycles is the number of down/up repetitions (FlapTrain only).
	Cycles int
	// Period is the cycle interval for FlapTrain; must exceed Duration.
	Period time.Duration
	// LossProb is the burst drop probability (LossBurst only).
	LossProb float64
	// RateFactor scales the link rate during the episode (RateCollapse
	// only); must be in (0, 1].
	RateFactor float64
}

// String renders the episode in a stable, human-readable form (the
// differential fuzz target compares schedule renderings across runs).
func (e Episode) String() string {
	switch e.Kind {
	case FlapTrain:
		return fmt.Sprintf("%s %s @%v dur=%v cycles=%d period=%v",
			e.Kind, e.Iface, e.Start, e.Duration, e.Cycles, e.Period)
	case LossBurst:
		return fmt.Sprintf("%s %s @%v dur=%v p=%.3f",
			e.Kind, e.Iface, e.Start, e.Duration, e.LossProb)
	case RateCollapse:
		return fmt.Sprintf("%s %s @%v dur=%v factor=%.3f",
			e.Kind, e.Iface, e.Start, e.Duration, e.RateFactor)
	}
	return fmt.Sprintf("%s %s @%v dur=%v", e.Kind, e.Iface, e.Start, e.Duration)
}

// Schedule is an ordered list of episodes. Order matters only for
// same-instant ties: episodes are compiled in slice order, so earlier
// episodes' effects fire first at equal timestamps.
type Schedule struct {
	Episodes []Episode
}

// String renders the schedule one episode per line.
func (s Schedule) String() string {
	var b strings.Builder
	for i, e := range s.Episodes {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Validate checks structural soundness of every episode.
func (s Schedule) Validate() error {
	for i, e := range s.Episodes {
		if e.Iface == "" {
			return fmt.Errorf("faults: episode %d: empty interface", i)
		}
		if e.Start < 0 {
			return fmt.Errorf("faults: episode %d: negative start %v", i, e.Start)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("faults: episode %d: non-positive duration %v", i, e.Duration)
		}
		switch e.Kind {
		case AdminDown, Blackhole:
		case FlapTrain:
			if e.Cycles < 1 {
				return fmt.Errorf("faults: episode %d: flap needs cycles >= 1", i)
			}
			if e.Period <= e.Duration {
				return fmt.Errorf("faults: episode %d: flap period %v must exceed duration %v",
					i, e.Period, e.Duration)
			}
		case LossBurst:
			if e.LossProb <= 0 || e.LossProb >= 1 {
				return fmt.Errorf("faults: episode %d: loss prob %v outside (0,1)", i, e.LossProb)
			}
		case RateCollapse:
			if e.RateFactor <= 0 || e.RateFactor > 1 {
				return fmt.Errorf("faults: episode %d: rate factor %v outside (0,1]", i, e.RateFactor)
			}
		default:
			return fmt.Errorf("faults: episode %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// step opcodes: each scheduled simulator event applies one.
const (
	opDown = iota
	opUp
	opBlackholeOn
	opBlackholeOff
	opLossOn
	opLossOff
	opRateOn
	opRateOff
)

// restore carries per-episode baseline state captured when the fault
// starts, so the restoring edge puts back what was actually there.
type restore struct {
	upProb, downProb float64
	upRate, downRate float64
}

// step is one compiled fault edge. Steps are scheduled with
// simnet.ScheduleArg and a package-level function — no per-event
// closures, per the engine's allocation discipline.
type step struct {
	iface  *netem.Iface
	op     int
	prob   float64
	factor float64
	saved  *restore
}

// lossLink is implemented by links exposing their current baseline loss
// probability (baseLink does).
type lossLink interface{ LossProb() float64 }

// rateLink is implemented by fixed-rate links (netem.FixedLink).
type rateLink interface {
	RateMbps() float64
	SetRateMbps(float64)
}

// runStep applies one fault edge.
func runStep(a any) {
	st := a.(*step)
	i := st.iface
	switch st.op {
	case opDown:
		i.SetDown(true)
	case opUp:
		i.SetDown(false)
	case opBlackholeOn:
		i.SetBlackhole(true)
	case opBlackholeOff:
		i.SetBlackhole(false)
	case opLossOn:
		if l, ok := i.UpLink().(lossLink); ok {
			st.saved.upProb = l.LossProb()
		}
		if l, ok := i.DownLink().(lossLink); ok {
			st.saved.downProb = l.LossProb()
		}
		i.SetLossProb(st.prob)
	case opLossOff:
		i.UpLink().SetLossProb(st.saved.upProb)
		i.DownLink().SetLossProb(st.saved.downProb)
	case opRateOn:
		if l, ok := i.UpLink().(rateLink); ok {
			st.saved.upRate = l.RateMbps()
			l.SetRateMbps(st.saved.upRate * st.factor)
		}
		if l, ok := i.DownLink().(rateLink); ok {
			st.saved.downRate = l.RateMbps()
			l.SetRateMbps(st.saved.downRate * st.factor)
		}
	case opRateOff:
		if l, ok := i.UpLink().(rateLink); ok {
			l.SetRateMbps(st.saved.upRate)
		}
		if l, ok := i.DownLink().(rateLink); ok {
			l.SetRateMbps(st.saved.downRate)
		}
	}
}

// Attach validates the schedule, compiles it against host's interfaces
// and arms every fault edge on the simulator's event heap, relative to
// sim.Now(). A loss burst draws from each link's own loss stream, so
// runs are bit-identical regardless of host parallelism.
func (s Schedule) Attach(sim *simnet.Sim, host *netem.Host) error {
	if err := s.Validate(); err != nil {
		return err
	}
	base := sim.Now()
	arm := func(at time.Duration, st *step) {
		sim.ScheduleArg(base+at, runStep, st)
	}
	for i, e := range s.Episodes {
		ifc := host.Iface(e.Iface)
		if ifc == nil {
			return fmt.Errorf("faults: episode %d: unknown interface %q", i, e.Iface)
		}
		switch e.Kind {
		case AdminDown:
			arm(e.Start, &step{iface: ifc, op: opDown})
			arm(e.Start+e.Duration, &step{iface: ifc, op: opUp})
		case Blackhole:
			arm(e.Start, &step{iface: ifc, op: opBlackholeOn})
			arm(e.Start+e.Duration, &step{iface: ifc, op: opBlackholeOff})
		case FlapTrain:
			for c := 0; c < e.Cycles; c++ {
				at := e.Start + time.Duration(c)*e.Period
				arm(at, &step{iface: ifc, op: opDown})
				arm(at+e.Duration, &step{iface: ifc, op: opUp})
			}
		case LossBurst:
			sv := &restore{}
			arm(e.Start, &step{iface: ifc, op: opLossOn, prob: e.LossProb, saved: sv})
			arm(e.Start+e.Duration, &step{iface: ifc, op: opLossOff, saved: sv})
		case RateCollapse:
			sv := &restore{}
			arm(e.Start, &step{iface: ifc, op: opRateOn, factor: e.RateFactor, saved: sv})
			arm(e.Start+e.Duration, &step{iface: ifc, op: opRateOff, saved: sv})
		}
	}
	return nil
}
