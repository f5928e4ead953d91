package mptcp

import (
	"sort"
	"sync"
	"time"
)

// Scheduler decides which subflows carry which bytes — the policy the
// paper shows makes or breaks MPTCP on disparate paths (Figs. 15-21).
// A Scheduler instance is private to one Conn, so implementations may
// keep per-connection state (e.g. a rotation counter).
//
// The connection consults the scheduler at two points:
//
//   - Rank orders the mode-eligible subflows for data offering; wake
//     notifies them in this order, so earlier subflows pull first and
//     the first with window space wins the next mapping.
//   - Admit gates fresh (never-sent) data per subflow: returning false
//     skips sf for new mappings while still letting it carry
//     retransmission-pool and duplicate mappings. HoL-aware policies
//     use it to keep a slow subflow from stalling the connection-level
//     receive buffer.
//
// Reinjected mappings (rtxPool) bypass Admit: recovery data may go
// anywhere, or a dead path's bytes could be stranded.
type Scheduler interface {
	// Name returns the scheduler's registry name.
	Name() string
	// Rank orders the mode-eligible subflows for data offering. It may
	// reorder sfs in place and must return a permutation of it.
	Rank(c *Conn, sfs []*Subflow) []*Subflow
	// Admit reports whether fresh connection-level data may be mapped
	// onto sf right now.
	Admit(c *Conn, sf *Subflow) bool
}

// duplicator is implemented by schedulers that copy fresh mappings
// onto additional subflows (the Redundant policy).
type duplicator interface {
	// onFreshMapping is called after a fresh mapping m was pulled by
	// src; the implementation may enqueue duplicates on other subflows.
	onFreshMapping(c *Conn, src *Subflow, m mapping)
}

// Scheduler registry names.
const (
	// SchedMinSRTT is the Linux default: lowest-SRTT subflow first.
	SchedMinSRTT = "minsrtt"
	// SchedRoundRobin rotates over eligible subflows (ablation).
	SchedRoundRobin = "roundrobin"
	// SchedRedundant duplicates every fresh mapping on all eligible
	// non-backup subflows (latency protection for short flows).
	SchedRedundant = "redundant"
	// SchedHoLAware is a BLEST/ECF-style policy that skips a slow
	// subflow when the fast one can deliver the backlog sooner.
	SchedHoLAware = "holaware"
)

var (
	schedMu  sync.Mutex
	schedReg = map[string]func() Scheduler{}
)

// RegisterScheduler adds a scheduler constructor under a unique name
// (mirrors phy.RegisterRadioModel). It panics on an empty name, nil
// constructor, or duplicate — programmer errors caught at init.
func RegisterScheduler(name string, mk func() Scheduler) {
	schedMu.Lock()
	defer schedMu.Unlock()
	if name == "" {
		panic("mptcp: RegisterScheduler with empty name")
	}
	if mk == nil {
		panic("mptcp: RegisterScheduler with nil constructor: " + name)
	}
	if _, dup := schedReg[name]; dup {
		panic("mptcp: duplicate scheduler name: " + name)
	}
	schedReg[name] = mk
}

// NewScheduler builds a fresh instance of the named scheduler; it
// panics on an unknown name (configuration error).
func NewScheduler(name string) Scheduler {
	schedMu.Lock()
	mk, ok := schedReg[name]
	schedMu.Unlock()
	if !ok {
		panic("mptcp: unknown scheduler " + name)
	}
	return mk()
}

// SchedulerNames returns the registered scheduler names, sorted.
func SchedulerNames() []string {
	schedMu.Lock()
	defer schedMu.Unlock()
	out := make([]string, 0, len(schedReg))
	for n := range schedReg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterScheduler(SchedMinSRTT, func() Scheduler { return &minSRTT{} })
	RegisterScheduler(SchedRoundRobin, func() Scheduler { return &roundRobin{} })
	RegisterScheduler(SchedRedundant, func() Scheduler { return &redundant{} })
	RegisterScheduler(SchedHoLAware, func() Scheduler { return &holAware{} })
}

// schedulerFor resolves the configured scheduler, honouring the legacy
// RoundRobin ablation flag.
func schedulerFor(cfg Config) Scheduler {
	switch {
	case cfg.Scheduler != "":
		return NewScheduler(cfg.Scheduler)
	case cfg.RoundRobin:
		return NewScheduler(SchedRoundRobin)
	default:
		return NewScheduler(SchedMinSRTT)
	}
}

// sfSRTT is the scheduling view of a subflow's RTT: subflows without
// an estimate sort last.
func sfSRTT(sf *Subflow) time.Duration {
	if r := sf.TCP.SRTT(); r > 0 {
		return r
	}
	return time.Hour
}

// rankBySRTT is the shared min-SRTT ordering (stable, so attachment
// order breaks ties exactly as the pre-refactor scheduler did). It is
// a hand-rolled insertion sort: subflow counts are tiny (2-4), it is
// stable like sort.SliceStable, and unlike the closure-based sort it
// runs without allocating on every wake.
//
//multinet:hotpath
func rankBySRTT(sfs []*Subflow) []*Subflow {
	for i := 1; i < len(sfs); i++ {
		for j := i; j > 0 && sfSRTT(sfs[j]) < sfSRTT(sfs[j-1]); j-- {
			sfs[j], sfs[j-1] = sfs[j-1], sfs[j]
		}
	}
	return sfs
}

// minSRTT is the Linux default scheduler: offer data to the
// lowest-SRTT subflow first, no per-subflow gating.
type minSRTT struct{}

func (*minSRTT) Name() string                            { return SchedMinSRTT }
func (*minSRTT) Rank(c *Conn, sfs []*Subflow) []*Subflow { return rankBySRTT(sfs) }
func (*minSRTT) Admit(c *Conn, sf *Subflow) bool         { return true }

// roundRobin rotates the offering order one position per wake — the
// ablation that shows why Linux prefers the fastest path.
type roundRobin struct {
	counter int
	// order is the rotated copy Rank returns. Rotating within sfs would
	// write into the caller's slice beyond its length when it had spare
	// capacity, and allocate on every wake when it had none.
	order []*Subflow
}

func (*roundRobin) Name() string { return SchedRoundRobin }

func (s *roundRobin) Rank(c *Conn, sfs []*Subflow) []*Subflow {
	if n := len(sfs); n > 1 {
		s.counter++
		k := s.counter % n
		s.order = append(append(s.order[:0], sfs[k:]...), sfs[:k]...)
		return s.order
	}
	return sfs
}

func (*roundRobin) Admit(c *Conn, sf *Subflow) bool { return true }

// redundant offers like min-SRTT but duplicates every fresh mapping on
// all other eligible subflows, trading capacity for latency: a short
// flow completes as soon as the fastest copy lands, so one slow or
// lossy path can never add head-of-line delay. Backup-priority
// subflows never receive duplicates — redundancy must not defeat
// Backup-mode semantics (paper Fig. 15g).
type redundant struct{}

func (*redundant) Name() string                            { return SchedRedundant }
func (*redundant) Rank(c *Conn, sfs []*Subflow) []*Subflow { return rankBySRTT(sfs) }
func (*redundant) Admit(c *Conn, sf *Subflow) bool         { return true }

// notifySubflow is the deferred NotifyData trampoline shared by every
// duplicate enqueue (no per-mapping closure).
func notifySubflow(a any) { a.(*Subflow).TCP.NotifyData() }

func (*redundant) onFreshMapping(c *Conn, src *Subflow, m mapping) {
	// Iterate the subflows directly: this runs nested inside wake's
	// iteration of the modeEligible scratch slice, which a fresh
	// modeEligible call here would clobber.
	for _, sf := range c.subflows {
		if sf == src || sf.Backup || !c.eligible(sf) {
			continue
		}
		sf.dupQueue.push(c.sim, m)
		// Defer the notify: pull runs inside src's TCP send loop, and
		// the duplicate target must start its own send from a clean
		// stack frame at the same virtual instant.
		c.sim.AfterArg(0, notifySubflow, sf)
	}
}

// holAware is a BLEST/ECF-style scheduler: before admitting fresh data
// on a subflow it checks whether the fastest subflow could deliver the
// whole backlog within the slow subflow's RTT. If so, mapping bytes on
// the slow subflow would only park them behind a long RTT and stall
// connection-level reassembly against the receive buffer
// (DefaultRecvBuf), so the slow subflow is skipped and the data waits
// for the fast path's window — the mitigation BLEST (Ferlin et al.)
// and ECF (Lim et al.) apply to the paper's Figs. 15-21 pathology.
type holAware struct{}

func (*holAware) Name() string                            { return SchedHoLAware }
func (*holAware) Rank(c *Conn, sfs []*Subflow) []*Subflow { return rankBySRTT(sfs) }

//multinet:hotpath
func (*holAware) Admit(c *Conn, sf *Subflow) bool {
	fast := fastestOther(c, sf)
	if fast == nil {
		return true // alone (or fastest): nothing to stall against
	}
	srttS, srttF := sfSRTT(sf), sfSRTT(fast)
	if srttS <= srttF || srttF <= 0 {
		return true
	}
	// Bytes the fast subflow can move in one slow-subflow RTT, at one
	// cwnd per fast RTT.
	rounds := float64(srttS) / float64(srttF)
	fastCap := float64(fast.TCP.CwndBytes()) * rounds
	// Backlog still to be scheduled (fresh bytes within the receive
	// buffer bound) plus what the fast subflow already has in flight.
	backlog := float64(c.schedulableBacklog()) + float64(fast.TCP.BytesInFlight())
	// If the fast path covers the backlog within the slow RTT, using
	// sf would finish no sooner and risks receive-buffer HoL blocking.
	return backlog > fastCap
}

// fastestOther returns the mode-eligible subflow with the lowest SRTT
// estimate, or nil if sf is it (or nothing else is eligible). It runs
// on every fresh-data admission, so it iterates in place rather than
// building the eligible slice.
func fastestOther(c *Conn, sf *Subflow) *Subflow {
	var best *Subflow
	for _, other := range c.subflows {
		if !other.established || other.dead || !c.allowedByMode(other) {
			continue
		}
		if best == nil || sfSRTT(other) < sfSRTT(best) {
			best = other
		}
	}
	if best == sf {
		return nil
	}
	return best
}

// schedulableBacklog returns the fresh bytes the connection could map
// right now: queued-but-unscheduled data clipped to the receive-buffer
// bound.
func (c *Conn) schedulableBacklog() int {
	if c.dataNxt >= c.sendTotal {
		return 0
	}
	n := c.sendTotal - c.dataNxt
	if lim := c.dataUna + uint64(c.cfg.recvBuf()); c.dataNxt+n > lim {
		if c.dataNxt >= lim {
			return 0
		}
		n = lim - c.dataNxt
	}
	return int(n)
}
