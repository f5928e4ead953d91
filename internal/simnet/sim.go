// Package simnet provides the discrete-event simulation kernel that every
// other subsystem in this repository runs on.
//
// A Sim owns a virtual clock and a hierarchical timing wheel (see
// wheel.go). Events execute in timestamp order (ties broken by
// scheduling order), so a simulation with a fixed seed is
// bit-reproducible across runs and platforms. There are no wall-clock
// sleeps anywhere: simulating 180 days of the paper's crowd-sourced
// measurement campaign takes seconds of real time.
//
// Schedule, cancel, re-arm and fire are all amortised O(1): scheduling
// files the event into a wheel slot, cancelling unlinks it, re-arming to
// a later deadline rewrites it where it sits (RearmArg), and firing
// drains one slot per tick into a due bucket that whole same-tick bursts
// dispatch from. The kernel is also allocation-free in steady state:
// fired and cancelled events return to a free list and are reused by
// later Schedule calls, and the arg-passing variants (ScheduleArg,
// AfterArg, DeferArg) let hot callers avoid per-event closure captures
// entirely. Timer is a small value type; handing one around never
// allocates.
//
// Randomness is handled through named streams (see Sim.RNG) so that
// adding a new consumer of randomness does not perturb the draws seen by
// existing consumers — a property the calibrated experiments rely on.
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator with a virtual clock.
//
// The zero value is not usable; construct with New.
type Sim struct {
	now time.Duration
	// wheel holds pending events beyond the current tick; due is the
	// (at, seq)-sorted batch for the tick being dispatched, consumed
	// from dueHead.
	wheel   wheel
	due     []*event //multinet:owns — events homed in the dispatch batch
	dueHead int
	// dueBuf is due's first backing array: a tick's batch on the
	// experiment workloads is at most 8 events (DESIGN.md), so the bucket
	// of a short-lived Sim never allocates.
	dueBuf  [dueCap]*event //multinet:owns — backing store of due
	free    []*event       //multinet:owns — recycled events awaiting reuse
	seq     uint64
	seed    int64
	rngs    map[string]*rand.Rand
	stopped bool
	// processed counts events executed since construction; exposed for
	// tests and for sanity checks that experiments actually ran.
	processed uint64
	// live counts pending non-cancelled events (Pending is O(1));
	// cancelled counts due-bucket entries whose timer was stopped after
	// their slot drained — they are reclaimed when their position pops,
	// so they never outlive the current tick's batch. (Wheel-resident
	// events are unlinked and recycled by Stop directly.)
	live      int
	cancelled int
}

// New returns a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	s := &Sim{
		seed: seed,
		rngs: make(map[string]*rand.Rand),
	}
	s.due = s.dueBuf[:0]
	return s
}

// Now returns the current virtual time. Time starts at zero.
func (s *Sim) Now() time.Duration { return s.now }

// Seed returns the seed the simulator was constructed with.
func (s *Sim) Seed() int64 { return s.seed }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Timer is a handle to a scheduled event. The zero Timer is inert:
// Stop and Active on it are no-ops. Cancelling a fired or already
// cancelled timer is a no-op. Timers are values; copying one copies the
// handle, and both copies control the same scheduled event.
//
// Fired and cancelled events are recycled for later Schedule calls, and
// RearmArg reuses a pending one in place, so a Timer additionally
// remembers the event's generation (its scheduling sequence number): a
// stale handle whose event has been reused or re-armed is recognised
// and treated as fired.
type Timer struct {
	sim *Sim
	ev  *event
	seq uint64
}

// Stop cancels the timer. It reports whether the event had not yet
// fired. Cancellation is O(1): a wheel-resident event is unlinked from
// its slot and recycled on the spot; an event already drained into the
// due bucket is marked and reclaimed when its position pops.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.fn == nil {
		return false
	}
	ev.fn = nil
	ev.arg = nil
	if s := t.sim; s != nil {
		s.live--
		if ev.prevp != nil {
			s.unlink(ev)
			s.recycle(ev)
		} else {
			s.cancelled++
		}
	}
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.seq == t.seq && t.ev.fn != nil
}

// When returns the virtual time a pending timer fires at, or 0 once it
// has fired or been cancelled (its event may already be reused).
func (t Timer) When() time.Duration {
	if !t.Active() {
		return 0
	}
	return t.ev.at
}

// thunk adapts the closure-based Schedule API onto the arg-based event
// representation without an extra allocation (func values are
// pointer-shaped, so boxing one into the arg interface is free).
func thunk(a any) { a.(func())() }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it always indicates a logic error in a protocol implementation.
func (s *Sim) Schedule(at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("simnet: Schedule with nil fn")
	}
	return s.ScheduleArg(at, thunk, fn)
}

// ScheduleArg runs fn(arg) at absolute virtual time at. It is the
// allocation-free variant of Schedule: with a non-capturing fn and a
// pointer-shaped arg (the idiomatic pattern is a package-level func
// asserting arg back to the caller's receiver type), scheduling reuses
// a recycled event and allocates nothing.
//
//multinet:hotpath
func (s *Sim) ScheduleArg(at time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("simnet: ScheduleArg with nil fn")
	}
	if at < s.now {
		//lint:allow hotpath cold panic path, never taken in a correct run
		panic(fmt.Sprintf("simnet: scheduling into the past: at=%v now=%v", at, s.now))
	}
	ev := s.newEvent(at, fn, arg)
	s.place(ev)
	s.live++
	return Timer{sim: s, ev: ev, seq: ev.seq}
}

// After runs fn after delay d (relative to the current virtual time).
func (s *Sim) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now+d, fn)
}

// RearmArg moves a timer: it is observably identical to
//
//	t.Stop()
//	t = s.ScheduleArg(at, fn, arg)
//
// — the returned handle carries a fresh generation, the old one goes
// stale, the event fires in the same (at, seq) position and Processed,
// Pending and the free list end up exactly as the pair leaves them — but
// when t is still pending in a wheel slot and at is not earlier than its
// current deadline (a retransmission timer pushed out by an ACK, the
// dominant case), the event is rewritten where it sits instead of being
// unlinked, recycled, reallocated and re-filed. Its slot is then stale,
// never late: the wheel re-files the event by its new deadline when it
// reaches that slot (see drainSlot0). A stale or fired handle, an event
// already in the due bucket, or an earlier deadline take the pair.
//
//multinet:hotpath
func (s *Sim) RearmArg(t Timer, at time.Duration, fn func(any), arg any) Timer {
	ev := t.ev
	if fn == nil || t.sim != s || ev == nil || ev.seq != t.seq || ev.fn == nil ||
		ev.prevp == nil || at < ev.at {
		t.Stop()
		return s.ScheduleArg(at, fn, arg)
	}
	// at >= ev.at >= now: no past check needed.
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	ev.arg = arg
	s.seq++
	return Timer{sim: s, ev: ev, seq: ev.seq}
}

// AfterArg runs fn(arg) after delay d; see ScheduleArg.
func (s *Sim) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.ScheduleArg(s.now+d, fn, arg)
}

// Defer runs fn at the current time, after all events already scheduled
// for the current instant. It is the simulation analogue of "post to the
// run loop" and is useful to break call cycles between protocol layers.
func (s *Sim) Defer(fn func()) Timer { return s.Schedule(s.now, fn) }

// DeferArg runs fn(arg) at the current time, after all events already
// scheduled for the current instant; see ScheduleArg.
func (s *Sim) DeferArg(fn func(any), arg any) Timer { return s.ScheduleArg(s.now, fn, arg) }

// newEvent takes an event from the free list (or allocates one) and
// stamps it with a fresh generation number.
//
//multinet:hotpath
func (s *Sim) newEvent(at time.Duration, fn func(any), arg any) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	ev.arg = arg
	s.seq++
	return ev
}

// recycle clears an event and returns it to the free list. Its seq is
// left in place until reuse so stale Timer handles keep failing the
// generation check.
//
//multinet:hotpath
func (s *Sim) recycle(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.next = nil
	ev.prevp = nil
	s.free = append(s.free, ev) //lint:allow hotpath free-list capacity is amortised; steady state never grows
}

// Stop halts Run/RunUntil after the event currently executing returns.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the wheel is empty or Stop is called. It
// returns the number of events executed by this call.
func (s *Sim) Run() int {
	return s.run(-1)
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. It returns the number of events executed by this call.
func (s *Sim) RunUntil(t time.Duration) int {
	if t < s.now {
		panic(fmt.Sprintf("simnet: RunUntil into the past: t=%v now=%v", t, s.now))
	}
	n := s.run(t)
	if !s.stopped && s.now < t {
		s.now = t
	}
	return n
}

// RunFor executes events for the next d of virtual time.
func (s *Sim) RunFor(d time.Duration) int { return s.RunUntil(s.now + d) }

//multinet:hotpath
func (s *Sim) run(until time.Duration) int {
	s.stopped = false
	untilTick := noTick
	if until >= 0 {
		untilTick = int64(until) >> tickShift
	}
	n := 0
	for !s.stopped {
		if s.dueHead == len(s.due) {
			s.due = s.due[:0]
			s.dueHead = 0
			if !s.fillBucket(untilTick) {
				break
			}
		}
		ev := s.due[s.dueHead]
		if until >= 0 && ev.at > until {
			break
		}
		s.dueHead++
		if ev.fn == nil { // cancelled after the slot drained
			s.reclaim(ev)
			continue
		}
		s.now = ev.at
		fn, arg := ev.fn, ev.arg
		// Recycle before running: fn may schedule new events, and reusing
		// this one immediately keeps the free list minimal. Stale Timer
		// handles are protected by the generation check.
		s.live--
		s.recycle(ev)
		fn(arg)
		n++
		s.processed++
	}
	return n
}

// Pending returns the number of live (not cancelled) scheduled events.
func (s *Sim) Pending() int {
	return s.live
}

// held returns the number of event entries the kernel currently holds,
// live and cancelled-but-unreclaimed alike; tests use it to pin the
// cancellation-reclaim bound.
func (s *Sim) held() int {
	return s.live + s.cancelled
}

// RNG returns the deterministic random stream with the given name,
// creating it on first use. Streams with distinct names are independent;
// the same (seed, name) pair always yields the same sequence.
//
// Naming a stream is cheap: the generator state (607 words, ~10 µs to
// seed) is built on the first draw, so consumers may be handed streams
// they will never use — a lossless link's loss stream, say — at the
// cost of one small allocation.
func (s *Sim) RNG(name string) *rand.Rand {
	if r, ok := s.rngs[name]; ok {
		return r
	}
	// One object holds the Rand and its source: a stream that is drawn
	// from allocates exactly what an eagerly seeded one did (this and
	// the generator), a stream that never is allocates only this.
	st := &stream{src: lazySource{seed: streamSeed(s.seed, name)}}
	st.Rand = *rand.New(&st.src)
	s.rngs[name] = &st.Rand
	return &st.Rand
}

// stream is one named random stream: the Rand handed out and, in the
// same allocation, the lazily seeded source it draws from.
type stream struct {
	rand.Rand
	src lazySource
}

// lazySource is a rand.Source64 that builds the stdlib generator for
// its seed on the first draw. Every draw goes through that generator,
// so the stream is draw for draw the one rand.NewSource(seed) yields.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// streamSeed derives a child seed from (seed, name) using an FNV-1a mix.
// It must be stable forever: experiment calibration depends on it.
func streamSeed(seed int64, name string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	// Avoid the degenerate all-zero seed.
	if h == 0 {
		h = offset64
	}
	return int64(h)
}

// event is a single scheduled entry. Pending events live either in a
// wheel slot's intrusive doubly-linked list (next, plus prevp holding
// the address of the pointer that points here, so unlinking is O(1)
// without a full prev node) or in the due bucket (prevp nil). lvl/idx
// remember the slot for occupancy bookkeeping on unlink.
type event struct {
	at    time.Duration
	seq   uint64 // FIFO tiebreak for identical timestamps + Timer generation
	fn    func(any)
	arg   any
	next  *event //multinet:owns — intrusive slot-list link
	prevp **event
	lvl   uint8
	idx   uint8
}
