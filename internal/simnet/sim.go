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
//
// A Sim owns its memory (see arena): the wheel, the event free list, the
// free lists of the objects the layers above recycle (FreeListOf), the
// slabs their rings and lists grow on (SlabOf) and the generators of its
// random streams. Release hands that memory to the
// next New, so a sweep of many short-lived worlds builds each of them
// out of the previous one's parts.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Sim is a discrete-event simulator with a virtual clock.
//
// The zero value is not usable; construct with New.
type Sim struct {
	now     time.Duration
	seed    int64
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
	// The memory the Sim schedules in; nil once Release has given it away,
	// so whatever a released Sim is asked to do next dereferences nil
	// instead of reaching into the world that now owns the arena.
	*arena
}

// arena is everything a Sim allocates that can outlive it: Release
// empties it and parks it for the next New, which then starts with a
// sized wheel, a stocked event free list, warm object free lists, slabs
// already as large as the last world needed and generators to reseed.
// Nothing in a parked arena refers to the world that filled it —
// recycled events, packets and segments are cleared when they are freed,
// the slabs when they are rewound — so a retired world is collected as
// usual.
type arena struct {
	// wheel holds pending events beyond the current tick; due is the
	// (at, seq)-sorted batch for the tick being dispatched, consumed
	// from dueHead.
	wheel   wheel
	due     []*event //multinet:owns — events homed in the dispatch batch
	dueHead int
	// dueBuf is due's first backing array: a tick's batch on the
	// experiment workloads is at most 8 events (DESIGN.md), so the bucket
	// of a short-lived Sim never allocates.
	dueBuf [dueCap]*event  //multinet:owns — backing store of due
	free   FreeList[event] // fired and cancelled events awaiting reuse
	// seq numbers scheduling order and doubles as the Timer generation.
	// It is not reset between the worlds an arena serves: a handle that
	// outlived its Sim can then never match a reused event.
	seq uint64
	// streams are the named random streams in creation order; life counts
	// the worlds this arena has served, and a stream whose life is older
	// belongs to an earlier world until RNG reseeds it for this one.
	streams []*stream
	life    uint64
	// parts holds one *FreeList[T] per recycled type (see FreeListOf) and
	// one *Slab[T] per buffer element type (see SlabOf), found by type.
	// partsBuf is its first backing array, room for what the layers of
	// this repository register, so that a world built from nothing does
	// not pay for growing the list.
	parts    []any
	partsBuf [16]any
}

// retired parks the arenas of released Sims for New. It is the
// simulator's only process-wide mutable state, and it cannot reach a
// result: an arena that comes back from it behaves as a new one does
// (TestRecycledWorldMatchesFresh), whichever worker retired it.
var retired struct {
	sync.Mutex
	arenas []*arena
}

// MaxRetired bounds the parked arenas (a few hundred KB each): more
// Sims than this released while none is being built are left to the
// collector, and after this many New without a Release in between none
// is left parked.
const MaxRetired = 64

// New returns a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	retired.Lock()
	var a *arena
	if n := len(retired.arenas); n > 0 {
		a = retired.arenas[n-1]
		retired.arenas[n-1] = nil
		retired.arenas = retired.arenas[:n-1]
	}
	retired.Unlock()
	if a == nil {
		a = new(arena)
		a.due = a.dueBuf[:0]
		a.parts = a.partsBuf[:0]
		a.wheel.hi = noTick
	}
	return &Sim{seed: seed, arena: a}
}

// Release ends the simulation and gives its memory to the next New:
// pending events are dropped unfired, the slabs are rewound, and they,
// the wheel, the free lists and the random streams' generators are
// parked. Call it when a world's
// results have been read. It is optional — a Sim that is never released
// is simply collected — and final: scheduling on, running, asking for a
// stream of or releasing a released Sim panics, and Timers it handed out
// are inert. Now, Seed, Processed and Pending keep answering.
//
// Objects taken from the Sim's free lists and still in flight are not
// recalled; they are collected with the rest of the world. Slices carved
// from its slabs are recalled: whatever still refers to one after
// Release is looking at the next world's memory.
func (s *Sim) Release() {
	a := s.mem()
	s.arena = nil
	s.live, s.cancelled = 0, 0 // dropped with the arena's pending events
	a.reset()
	retired.Lock()
	if len(retired.arenas) < MaxRetired {
		retired.arenas = append(retired.arenas, a)
	}
	retired.Unlock()
}

// mem returns the arena, refusing a released Sim by name.
func (s *Sim) mem() *arena {
	if s.arena == nil {
		panic("simnet: use of a released Sim")
	}
	return s.arena
}

// reset returns the arena to the state New expects: no pending events,
// the wheel at tick zero, the slabs rewound, and only the streams the
// world that just ended used, marked as belonging to a world gone by.
func (a *arena) reset() {
	a.dropPending()
	for _, p := range a.parts {
		if sl, ok := p.(interface{ rewind() }); ok {
			sl.rewind()
		}
	}
	kept := a.streams[:0]
	for _, st := range a.streams {
		if st.life == a.life {
			kept = append(kept, st)
		}
	}
	clear(a.streams[len(kept):])
	a.streams = kept
	a.life++
}

// FreeList is a stack of recycled *T belonging to one Sim. A simulation
// runs on one goroutine, so Get and Put are a slice pop and push; and
// because the list lives and dies (and is parked) with its Sim, what one
// world frees is what the next one built from the same arena starts
// with. Put does not clear the object: the owner of T knows which fields
// hold references.
type FreeList[T any] struct {
	items []*T //multinet:owns — freed objects awaiting reuse
}

// Get returns a recycled object, or a new zero one when the list is
// empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	p := l.items[n-1]
	l.items[n-1] = nil // a parked list must not pin what it handed out
	l.items = l.items[:n-1]
	return p
}

// Put adds p to the list. The caller must hold the only reference.
func (l *FreeList[T]) Put(p *T) {
	l.items = append(l.items, p)
}

// FreeListOf returns s's free list of T, the same one on every call.
// Callers on a per-packet path look it up once, when they are built.
func FreeListOf[T any](s *Sim) *FreeList[T] { return partOf[FreeList[T]](s) }

// partOf returns s's arena's part of type P, adding a zero one the first
// time it is asked for.
func partOf[P any](s *Sim) *P {
	a := s.mem()
	for _, x := range a.parts {
		if p, ok := x.(*P); ok {
			return p
		}
	}
	p := new(P)
	a.parts = append(a.parts, p)
	return p
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
			a := s.arena
			a.unlink(ev)
			a.recycle(ev)
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
	a := s.mem()
	ev := a.newEvent(at, fn, arg)
	a.place(ev)
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
	// at >= ev.at >= now: no past check needed. (A released s has no
	// pending events, so it never gets here.)
	a := s.arena
	ev.at = at
	ev.seq = a.seq
	ev.fn = fn
	ev.arg = arg
	a.seq++
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
func (a *arena) newEvent(at time.Duration, fn func(any), arg any) *event {
	ev := a.free.Get()
	ev.at = at
	ev.seq = a.seq
	ev.fn = fn
	ev.arg = arg
	a.seq++
	return ev
}

// recycle clears an event and returns it to the free list. Its seq is
// left in place until reuse so stale Timer handles keep failing the
// generation check.
//
//multinet:hotpath
func (a *arena) recycle(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.next = nil
	ev.prevp = nil
	a.free.Put(ev)
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
		// Asked for afresh each turn: an event that releases the Sim must
		// stop the loop here, not leave it running in an arena that has
		// been given away.
		a := s.mem()
		if a.dueHead == len(a.due) {
			a.due = a.due[:0]
			a.dueHead = 0
			if !a.fillBucket(untilTick) {
				break
			}
		}
		ev := a.due[a.dueHead]
		if until >= 0 && ev.at > until {
			break
		}
		a.dueHead++
		if ev.fn == nil { // cancelled after the slot drained
			s.cancelled--
			a.recycle(ev)
			continue
		}
		s.now = ev.at
		fn, arg := ev.fn, ev.arg
		// Recycle before running: fn may schedule new events, and reusing
		// this one immediately keeps the free list minimal. Stale Timer
		// handles are protected by the generation check.
		s.live--
		a.recycle(ev)
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
// Naming a stream is cheap: the generator state (607 words, ~2 µs to
// seed) is built or reseeded on the first draw, so consumers may be
// handed streams they will never use — a lossless link's loss stream,
// say — at the cost of one small allocation, or none when the arena
// already served a world with a stream of that name.
func (s *Sim) RNG(name string) *rand.Rand {
	a := s.mem()
	for _, st := range a.streams {
		if st.name != name {
			continue
		}
		if st.life != a.life {
			// Left by an earlier world: same object, same generator, this
			// world's seed.
			st.life = a.life
			st.Rand.Seed(streamSeed(s.seed, name))
		}
		return &st.Rand
	}
	// One object holds the Rand and its source: a stream that is drawn
	// from allocates exactly what an eagerly seeded one did (this and
	// the generator), a stream that never is allocates only this.
	st := &stream{name: name, life: a.life, src: lazySource{seed: streamSeed(s.seed, name)}}
	st.Rand = *rand.New(&st.src)
	a.streams = append(a.streams, st)
	return &st.Rand
}

// stream is one named random stream: the Rand handed out and, in the
// same allocation, the lazily seeded source it draws from.
type stream struct {
	rand.Rand
	src  lazySource
	name string
	life uint64 // the arena life it was last seeded for
}

// lazySource is a rand.Source64 that seeds its generator (rng.go) on the
// first draw after Seed — building it if this is the first seed, in
// place (4.9 KB kept) otherwise.
type lazySource struct {
	seed   int64
	gen    *generator
	seeded bool // gen holds seed's state
}

func (l *lazySource) source() *generator {
	if !l.seeded {
		if l.gen == nil {
			l.gen = new(generator)
		}
		l.gen.seed(l.seed)
		l.seeded = true
	}
	return l.gen
}

func (l *lazySource) Int63() int64    { return int64(l.source().uint64() &^ (1 << 63)) }
func (l *lazySource) Uint64() uint64  { return l.source().uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.seeded = seed, false }

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
