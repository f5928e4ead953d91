package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// mustPanic runs fn and fails unless it panics with the released-Sim
// message.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s on a released Sim did not panic", what)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "released Sim") {
			t.Errorf("%s on a released Sim panicked with %q, want the released-Sim message", what, msg)
		}
	}()
	fn()
}

// TestReleasedSimPanics pins the Release contract: everything that would
// touch the memory a released Sim gave away panics by name, the handle's
// own counters keep answering, and Timers it handed out are inert — even
// once their events serve the next world.
func TestReleasedSimPanics(t *testing.T) {
	DropRetired()
	s := New(7)
	fired := 0
	pending := s.AfterArg(time.Second, func(any) { fired++ }, nil)
	done := s.AfterArg(time.Millisecond, func(any) { fired++ }, nil)
	s.RunUntil(10 * time.Millisecond)
	rng := s.RNG("x")
	rng.Int63()
	s.Release()

	if s.Now() != 10*time.Millisecond || s.Seed() != 7 || s.Processed() != 1 {
		t.Errorf("released handle: Now=%v Seed=%d Processed=%d, want 10ms 7 1", s.Now(), s.Seed(), s.Processed())
	}
	nop := func(any) {}
	mustPanic(t, "Schedule", func() { s.Schedule(time.Second, func() {}) })
	mustPanic(t, "ScheduleArg", func() { s.ScheduleArg(time.Second, nop, nil) })
	mustPanic(t, "After", func() { s.After(time.Second, func() {}) })
	mustPanic(t, "AfterArg", func() { s.AfterArg(time.Second, nop, nil) })
	mustPanic(t, "Defer", func() { s.Defer(func() {}) })
	mustPanic(t, "DeferArg", func() { s.DeferArg(nop, nil) })
	mustPanic(t, "RearmArg of a dropped timer", func() { s.RearmArg(pending, 2*time.Second, nop, nil) })
	mustPanic(t, "RearmArg of a fired timer", func() { s.RearmArg(done, 2*time.Second, nop, nil) })
	mustPanic(t, "Run", func() { s.Run() })
	mustPanic(t, "RunUntil", func() { s.RunUntil(time.Minute) })
	mustPanic(t, "RunFor", func() { s.RunFor(time.Second) })
	mustPanic(t, "RNG", func() { s.RNG("x") })
	mustPanic(t, "FreeListOf", func() { FreeListOf[int](s) })
	mustPanic(t, "SlabOf", func() { SlabOf[int](s) })
	mustPanic(t, "Release", func() { s.Release() })

	// The next world takes the arena, and with it the two events. The old
	// handles must not see them, whatever the new world does with them.
	next := New(8)
	if next.arena == nil || Retired() != 0 {
		t.Fatal("New did not take the retired arena")
	}
	a := next.AfterArg(time.Second, nop, nil)
	b := next.AfterArg(2*time.Second, nop, nil)
	if a.ev != pending.ev && a.ev != done.ev && b.ev != pending.ev && b.ev != done.ev {
		t.Fatal("the next world did not reuse the released events; the test no longer tests aliasing")
	}
	for name, tm := range map[string]Timer{"dropped": pending, "fired": done} {
		if tm.Active() || tm.When() != 0 || tm.Stop() {
			t.Errorf("%s timer of the released Sim is not inert", name)
		}
	}
	if !a.Active() || !b.Active() || next.Pending() != 2 {
		t.Error("a stale handle disturbed the next world's timers")
	}
	if fired != 1 {
		t.Errorf("fired = %d: a dropped event ran", fired)
	}
}

// TestReleaseInsideEventStopsRun: an event that releases its own Sim
// ends the run loop on the spot instead of letting it walk an arena
// that may already belong to another world.
func TestReleaseInsideEventStopsRun(t *testing.T) {
	s := New(1)
	s.After(time.Millisecond, func() { s.Release() })
	s.After(2*time.Millisecond, func() { t.Error("event ran after Release") })
	mustPanic(t, "continuing Run", func() { s.Run() })
}

// kernelTrace drives one Sim through a seeded workload of schedules,
// cancellations, re-arms, nested follow-ups, free-list traffic and draws
// from several streams, leaves timers pending at the horizon, and
// returns everything observable about the run.
func kernelTrace(seed int64, shape int) string {
	s := New(seed)
	defer s.Release()
	var sb strings.Builder
	rng := rand.New(rand.NewSource(seed ^ int64(shape)<<32))
	streams := []string{"a", "b", "c", "d", "e"}[:2+shape%4]
	list := FreeListOf[[4]int](s)
	var held []*[4]int
	var timers []Timer
	var fire func(any)
	fire = func(a any) {
		id := a.(int)
		fmt.Fprintf(&sb, "%d@%v ", id, s.Now())
		name := streams[id%len(streams)]
		fmt.Fprintf(&sb, "%s=%d ", name, s.RNG(name).Intn(1000))
		switch rng.Intn(4) {
		case 0:
			timers = append(timers, s.AfterArg(time.Duration(rng.Intn(300_000))*time.Microsecond, fire, id+1000))
		case 1:
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Stop()
			}
		case 2:
			if n := len(timers); n > 0 {
				i := rng.Intn(n)
				timers[i] = s.RearmArg(timers[i], s.Now()+time.Duration(rng.Intn(900))*time.Millisecond, fire, id+2000)
			}
		case 3:
			if n := len(held); n > 0 && rng.Intn(2) == 0 {
				list.Put(held[n-1])
				held = held[:n-1]
			} else {
				held = append(held, list.Get())
			}
		}
	}
	for i := 0; i < 40*(1+shape); i++ {
		at := time.Duration(rng.Intn(3_000_000)) * time.Microsecond
		if i%7 == 0 {
			at += time.Duration(rng.Intn(100)) * time.Hour // the coarse levels too
		}
		timers = append(timers, s.ScheduleArg(at, fire, i))
	}
	s.RunUntil(2 * time.Second)
	fmt.Fprintf(&sb, "| now=%v processed=%d pending=%d", s.Now(), s.Processed(), s.Pending())
	return sb.String()
}

// TestRecycledArenaMatchesFresh is the kernel half of reset ≡ fresh: a
// world built from the arena a differently shaped world released runs
// event for event, draw for draw, as one built from nothing.
func TestRecycledArenaMatchesFresh(t *testing.T) {
	const shapes = 6
	fresh := make([]string, shapes)
	for shape := range fresh {
		DropRetired()
		fresh[shape] = kernelTrace(int64(100+shape), shape)
	}
	DropRetired()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		shape := rng.Intn(shapes)
		if i > 0 && Retired() != 1 {
			t.Fatalf("step %d: %d arenas retired, want the one the last world released", i, Retired())
		}
		if got := kernelTrace(int64(100+shape), shape); got != fresh[shape] {
			t.Fatalf("step %d: shape %d on a recycled arena differs from a fresh run\nfresh:    %s\nrecycled: %s", i, shape, fresh[shape], got)
		}
	}
}

// TestReleaseKeepsOnlyLiveStreams: an arena carries the generators of
// the world that just ended, not of every world it ever served.
func TestReleaseKeepsOnlyLiveStreams(t *testing.T) {
	DropRetired()
	s := New(1)
	s.RNG("a").Int63()
	s.RNG("b").Int63()
	s.Release()
	s = New(2)
	s.RNG("b").Int63()
	s.RNG("c").Int63()
	if n := len(s.streams); n != 3 {
		t.Fatalf("second world sees %d streams, want a (idle), b, c", n)
	}
	s.Release()
	s = New(3)
	var names []string
	for _, st := range s.streams {
		names = append(names, st.name)
	}
	if got := strings.Join(names, ","); got != "b,c" {
		t.Fatalf("arena kept streams %q after a world that used b and c", got)
	}
	if allocs := testing.AllocsPerRun(1, func() { s.RNG("b").Int63(); s.RNG("c").Int63() }); allocs != 0 {
		t.Fatalf("reseeding two kept streams allocated %v objects", allocs)
	}
}

// TestNextHigherCacheForgetsEmptiedSlot is the targeted form of the
// audit the differential tests run: cancelling the only event of the
// earliest coarse slot must not leave its start tick cached.
func TestNextHigherCacheForgetsEmptiedSlot(t *testing.T) {
	s := New(1)
	far := s.AfterArg(time.Hour, func(any) {}, nil)
	near := s.AfterArg(time.Minute, func(any) {}, nil)
	if got, want := s.nextHigher(), s.scanHigher(); got != want || got == noTick {
		t.Fatalf("nextHigher = %d, scan = %d", got, want)
	}
	near.Stop()
	if got, want := s.nextHigher(), s.scanHigher(); got != want {
		t.Fatalf("after cancelling the earliest coarse event: nextHigher = %d, scan = %d", got, want)
	}
	far.Stop()
	if got := s.nextHigher(); got != noTick {
		t.Fatalf("empty wheel: nextHigher = %d, want noTick", got)
	}
}

// TestRetiredArenasAcrossGoroutines hands arenas between workers the way
// a parallel sweep does — each goroutine builds, runs and releases
// worlds of its own, taking whatever arena another one retired — and
// checks every world against its fresh trace. Run under -race it is the
// test of the one lock in the simulator.
func TestRetiredArenasAcrossGoroutines(t *testing.T) {
	const shapes, workers, rounds = 4, 4, 25
	fresh := make([]string, shapes)
	for shape := range fresh {
		DropRetired()
		fresh[shape] = kernelTrace(int64(200+shape), shape)
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < rounds; i++ {
				shape := (w + i) % shapes
				if got := kernelTrace(int64(200+shape), shape); got != fresh[shape] {
					errs <- fmt.Errorf("worker %d round %d: shape %d differs from its fresh trace", w, i, shape)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := Retired(); n < 1 || n > workers+1 {
		t.Errorf("%d arenas retired after %d workers finished, want between 1 and %d", n, workers, workers+1)
	}
}
