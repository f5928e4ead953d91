// Package simnet provides the discrete-event simulation kernel that every
// other subsystem in this repository runs on.
//
// A Sim owns a virtual clock, a heap of its pending timers (see
// queue.go) and the lanes its links keep their packets in flight on
// (see lane.go). Run merges the two: timers and arrivals execute in one
// timestamp order (ties broken by scheduling order), so a simulation
// with a fixed seed is bit-reproducible across runs and platforms. There
// are no wall-clock sleeps anywhere: simulating 180 days of the paper's
// crowd-sourced measurement campaign takes seconds of real time.
//
// Scheduling, cancelling and firing a timer cost O(log n) in the timers
// pending in its world, which are a handful; re-arming one to a later
// deadline rewrites it where it sits (RearmArg) and costs O(1). The
// kernel is also allocation-free in steady state:
// fired and cancelled events return to a free list and are reused by
// later Schedule calls, and the arg-passing variants (ScheduleArg,
// AfterArg) let hot callers avoid per-event closure captures
// entirely. Timer is a small value type; handing one around never
// allocates.
//
// Randomness is handled through named streams (see Sim.RNG) so that
// adding a new consumer of randomness does not perturb the draws seen by
// existing consumers — a property the calibrated experiments rely on.
//
// A Sim owns its memory (see arena): the heap, the event free list, the
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
	// live counts pending timers and arrivals (Pending is O(1)).
	live int
	// The memory the Sim schedules in; nil once Release has given it away,
	// so whatever a released Sim is asked to do next dereferences nil
	// instead of reaching into the world that now owns the arena.
	*arena
}

// arena is everything a Sim allocates that can outlive it: Release
// empties it and parks it for the next New, which then starts with a
// sized heap, a stocked event free list, warm object free lists, slabs
// already as large as the last world needed and generators to reseed.
// Nothing in a parked arena refers to the world that filled it —
// recycled events, packets and segments are cleared when they are freed,
// the slabs when they are rewound, the lanes forgotten — so a retired
// world is collected as usual (TestReleasedWorldIsCollectable).
type arena struct {
	// heap holds the pending timers (queue.go); heapBuf is its first
	// backing array, so that the heap of a world built from nothing
	// never grows.
	heap    []entry
	heapBuf [heapCap]entry
	free    FreeList[event] // fired and cancelled events awaiting reuse
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
	// lanes are the world's arrival lanes (AddLane), in registration
	// order; lanesBuf is their first backing array, room for the links of
	// a three-path world. front is the lane whose head comes first (nil
	// when all are empty) unless stale says it must be looked for again.
	lanes    []*Lane //multinet:owns — the world's lanes, forgotten at Release
	lanesBuf [8]*Lane
	front    *Lane
	stale    bool
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
		a.heap = a.heapBuf[:0]
		a.parts = a.partsBuf[:0]
		a.lanes = a.lanesBuf[:0]
	}
	return &Sim{seed: seed, arena: a}
}

// Release ends the simulation and gives its memory to the next New:
// pending events and arrivals are dropped unfired, the lanes are
// forgotten, the slabs are rewound, and they,
// the heap, the free lists and the random streams' generators are
// parked. Call it when a world's
// results have been read. It is optional — a Sim that is never released
// is simply collected — and final: scheduling on, running, asking for a
// stream of or releasing a released Sim panics, and Timers it handed out
// are inert. Now, Processed and Pending keep answering.
//
// What a lane still holds is recalled: each lane with entries left is
// handed to its owner's Drop, so the packets on a link's ring go back to
// their free list. Other objects taken from the Sim's free lists and
// still out are not — a packet waiting out a radio promotion is only a
// timer's argument — and are collected with the rest of the world.
// Slices carved from its slabs are recalled: whatever still refers to
// one after Release is looking at the next world's memory.
func (s *Sim) Release() {
	a := s.mem()
	s.arena = nil
	s.live = 0 // dropped with the arena's pending events
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
// every lane's entries dropped by its owner, the slabs rewound, the free
// lists owning what they hold, and only the streams the world that just
// ended used, marked as belonging to a world gone by.
func (a *arena) reset() {
	a.dropPending()
	for _, l := range a.lanes {
		if l.n > 0 {
			l.owner.Drop()
		}
	}
	clear(a.lanes)
	a.lanes = a.lanes[:0]
	a.front, a.stale = nil, false
	for _, p := range a.parts {
		if r, ok := p.(interface{ rewind() }); ok {
			r.rewind()
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
//
// The list also counts what its world has out (Live), which is how
// netem.Host.Audit's packet-leak rule finds a leak: a packet taken and
// never put back.
type FreeList[T any] struct {
	items []*T //multinet:owns — freed objects awaiting reuse
	// owned counts the objects this world has of the list, held or out:
	// what it held when the world began, plus what Get made.
	owned int
}

// Get returns a recycled object, or a new zero one when the list is
// empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		l.owned++
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

// Live returns how many objects taken from the list in this world are
// not back: zero once a drained world has let go of everything, negative
// if something was put back twice.
func (l *FreeList[T]) Live() int { return l.owned - len(l.items) }

// rewind starts the count over for the next world: it owns what the list
// holds, and whatever was still out at Release is no longer counted.
func (l *FreeList[T]) rewind() { l.owned = len(l.items) }

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
// fired. The event is taken out of the heap where it sits, in O(log n)
// of the world's pending timers, and recycled on the spot.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.fn == nil {
		return false
	}
	s := t.sim
	s.live--
	s.remove(ev.pos)
	s.recycle(ev)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.seq == t.seq && t.ev.fn != nil
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
	a.push(ev)
	s.live++
	return Timer{sim: s, ev: ev, seq: ev.seq}
}

// RearmArg moves a timer: it is observably identical to
//
//	t.Stop()
//	t = s.ScheduleArg(at, fn, arg)
//
// — the returned handle carries a fresh generation, the old one goes
// stale, the event fires in the same (at, seq) position and Processed,
// Pending and the free list end up exactly as the pair leaves them — but
// when t is still pending and at is not earlier than its current
// deadline (a retransmission timer pushed out by an ACK, the dominant
// case), the event is rewritten where it sits instead of being taken
// out, recycled, reallocated and filed again. Its heap entry is then
// stale, never late: Run re-keys it when it reaches the root (see
// arena.due). A stale or fired handle or an earlier deadline take the
// pair.
//
//multinet:hotpath
func (s *Sim) RearmArg(t Timer, at time.Duration, fn func(any), arg any) Timer {
	ev := t.ev
	if fn == nil || t.sim != s || ev == nil || ev.seq != t.seq || ev.fn == nil || at < ev.at {
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
	a.free.Put(ev)
}

// Stop halts Run/RunUntil after the event currently executing returns.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until none is pending or Stop is called. It
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
	n := 0
	for !s.stopped {
		// Asked for afresh each turn: an event that releases the Sim must
		// stop the loop here, not leave it running in an arena that has
		// been given away.
		a := s.mem()
		if a.stale {
			a.front, a.stale = a.earliestLane(), false
		}
		l := a.front
		if ev := a.due(l, until); ev != nil {
			a.remove(0)
			s.now = ev.at
			fn, arg := ev.fn, ev.arg
			// Recycle before running: fn may schedule new events, and
			// reusing this one immediately keeps the free list minimal.
			// Stale Timer handles are protected by the generation check.
			s.live--
			a.recycle(ev)
			fn(arg)
			n++
			s.processed++
			continue
		}
		if l == nil || (until >= 0 && l.at > until) {
			break
		}
		// The earliest arrival fires: its owner drops it and names the
		// lane's next head (Lane.Advance), so the front is looked for
		// again.
		s.now = l.at
		l.n--
		l.at = noTime
		a.stale = true
		s.live--
		l.owner.Fire()
		n++
		s.processed++
	}
	return n
}

// Pending returns the number of live (not cancelled) scheduled events:
// zero once the world is quiescent.
func (s *Sim) Pending() int {
	return s.live
}

// RNG returns the deterministic random stream with the given name,
// creating it on first use. Streams with distinct names are independent;
// the same (seed, name) pair always yields the same sequence.
//
// Naming a stream is cheap: the generator (607 words) is built on the
// first draw, and its seeded state is computed as the draws reach it, so
// consumers may be handed streams they will never use — a lossless
// link's loss stream, say — at the cost of one small allocation, or none
// when the arena already served a world with a stream of that name.
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

// lazySource is a rand.Source64 whose generator (rng.go) is built on the
// first draw — so a stream named and never drawn from costs no 4.9 KB —
// and reseeded in place by Seed. Seeding itself is a few field writes: the
// generator's words are computed during its first lap of draws.
type lazySource struct {
	seed int64
	gen  *generator
}

// source returns the generator, ready for one draw.
func (l *lazySource) source() *generator {
	if l.gen == nil || l.gen.feed == l.gen.ready {
		l.prime()
	}
	return l.gen
}

func (l *lazySource) prime() {
	if l.gen == nil {
		l.gen = new(generator)
		l.gen.seed(l.seed)
	}
	l.gen.fill()
}

func (l *lazySource) Int63() int64   { return int64(l.source().uint64() &^ (1 << 63)) }
func (l *lazySource) Uint64() uint64 { return l.source().uint64() }

func (l *lazySource) Seed(seed int64) {
	l.seed = seed
	if l.gen != nil {
		l.gen.seed(seed)
	}
}

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

// event is a single scheduled timer. While it is pending it sits in the
// heap at slot pos, under a key that may be earlier than (at, seq) after
// a re-arm (queue.go).
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreak for identical timestamps + Timer generation
	fn  func(any)
	arg any
	pos int
}
