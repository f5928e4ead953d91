package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTiebreak(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events out of scheduling order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.After(1500*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != 1500*time.Millisecond {
		t.Fatalf("Now inside event = %v, want 1.5s", at)
	}
	if s.Now() != 1500*time.Millisecond {
		t.Fatalf("final Now = %v, want 1.5s", s.Now())
	}
}

func TestRunUntilSetsClock(t *testing.T) {
	s := New(1)
	fired := false
	s.After(5*time.Second, func() { fired = true })
	s.RunUntil(2 * time.Second)
	if fired {
		t.Fatal("event at 5s fired during RunUntil(2s)")
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
	s.RunUntil(10 * time.Second)
	if !fired {
		t.Fatal("event at 5s did not fire by 10s")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.RunUntil(2 * time.Second)
	if !fired {
		t.Fatal("event exactly at the RunUntil boundary must fire")
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatal("cancelled timer still active")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(time.Second, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var order []string
	s.After(time.Second, func() {
		order = append(order, "a")
		s.After(time.Second, func() { order = append(order, "c") })
		s.Defer(func() { order = append(order, "b") })
	})
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 100; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 10 {
				s.Stop()
			}
		})
	}
	n := s.Run()
	if n != 10 || count != 10 {
		t.Fatalf("executed %d events (count=%d), want 10", n, count)
	}
	// A subsequent Run resumes with the remaining events.
	n = s.Run()
	if n != 90 {
		t.Fatalf("resume executed %d, want 90", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past should panic")
		}
	}()
	s.Schedule(500*time.Millisecond, func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("After with negative delay should fire immediately")
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := New(42)
	seqA := drawn(a.RNG("link/wifi"), 8)

	// Same seed, but interleave draws from a different stream first: the
	// "link/wifi" stream must be unaffected.
	b := New(42)
	_ = drawn(b.RNG("link/lte"), 100)
	seqB := drawn(b.RNG("link/wifi"), 8)

	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("stream draws differ at %d: %v vs %v", i, seqA, seqB)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := drawn(New(1).RNG("x"), 4)
	b := drawn(New(2).RNG("x"), 4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func drawn(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		s := New(7)
		var times []time.Duration
		var step func()
		step = func() {
			times = append(times, s.Now())
			if len(times) < 50 {
				d := time.Duration(s.RNG("steps").Intn(1000)) * time.Microsecond
				s.After(d, step)
			}
		}
		s.After(0, step)
		s.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(3)
		var fireTimes []time.Duration
		for _, d := range delays {
			s.After(time.Duration(d)*time.Microsecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pending reflects live (non-cancelled) events.
func TestPropertyPendingCount(t *testing.T) {
	f := func(n uint8, cancel uint8) bool {
		s := New(5)
		total := int(n%50) + 1
		toCancel := int(cancel) % total
		timers := make([]Timer, total)
		for i := 0; i < total; i++ {
			timers[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
		}
		for i := 0; i < toCancel; i++ {
			timers[i].Stop()
		}
		return s.Pending() == total-toCancel
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSeedStable(t *testing.T) {
	// Guard against accidental changes to the seed-derivation function:
	// experiment calibration depends on these exact values.
	if got := streamSeed(0, ""); got == 0 {
		t.Fatal("streamSeed must never return 0")
	}
	a := streamSeed(42, "link/wifi")
	b := streamSeed(42, "link/wifi")
	c := streamSeed(42, "link/lte")
	if a != b {
		t.Fatal("streamSeed not deterministic")
	}
	if a == c {
		t.Fatal("distinct names must yield distinct seeds")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		s.Run()
	}
}

func TestCancelledTimerReclaim(t *testing.T) {
	s := New(1)
	const n = 1024
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	for _, tm := range timers[:n-1] {
		tm.Stop()
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	// Cancelled entries may not accumulate: Stop unlinks wheel-resident
	// events on the spot, so the kernel holds the live timer plus at
	// most a due-bucket's worth of marked entries.
	if got := s.held(); got > 2 {
		t.Fatalf("kernel holds %d entries after cancelling %d of %d timers", got, n-1, n)
	}
	if got := s.Run(); got != 1 {
		t.Fatalf("Run executed %d events, want 1", got)
	}
}

func TestTimerChurnKeepsKernelBounded(t *testing.T) {
	// A workload that schedules and cancels timers forever (per-packet
	// retransmission timers) must not grow the kernel without bound.
	s := New(1)
	s.After(time.Hour, func() {})
	for i := 0; i < 100000; i++ {
		s.After(time.Minute, func() {}).Stop()
		if got := s.held(); got > 4 {
			t.Fatalf("iteration %d: kernel grew to %d entries", i, got)
		}
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestCancellationPreservesOrderAndHandles(t *testing.T) {
	s := New(1)
	var fired []int
	const n = 200
	timers := make([]Timer, n)
	for i := range timers {
		i := i
		// Deadlines decrease with i so execution order differs from
		// scheduling order.
		timers[i] = s.After(time.Duration(n-i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	// Cancelling three quarters of the timers exercises unlink across
	// slots at several levels.
	for i := 0; i < len(timers); i++ {
		if i%4 != 3 {
			timers[i].Stop()
		}
	}
	if got := s.held(); got != n/4 {
		t.Fatalf("kernel holds %d entries after cancellation, want %d live", got, n/4)
	}
	for i, tm := range timers {
		if got := tm.Active(); got != (i%4 == 3) {
			t.Fatalf("timer %d Active = %v after compaction", i, got)
		}
	}
	if timers[2].Stop() {
		t.Fatal("Stop on an already-cancelled timer should report false")
	}
	s.Run()
	if len(fired) != n/4 {
		t.Fatalf("fired %d timers, want %d", len(fired), n/4)
	}
	for k, i := range fired {
		if want := n - 1 - 4*k; i != want {
			t.Fatalf("fired[%d] = %d, want %d", k, i, want)
		}
	}
}

// TestRNGLazySeedingMatchesStdlib pins that deferring the generator's
// seeding to the first draw changes nothing about the stream: every
// kind of draw the simulator layers make equals, draw for draw, what
// rand.New(rand.NewSource(seed)) yields — and naming a stream without
// drawing from it never builds the generator.
func TestRNGLazySeedingMatchesStdlib(t *testing.T) {
	s := New(77)
	for _, name := range []string{"phy/loss/wifi/up", "phy/rate/lte/down", "faults"} {
		lazy := s.RNG(name)
		if s.RNG(name) != lazy {
			t.Fatalf("stream %q not cached", name)
		}
		ref := rand.New(rand.NewSource(streamSeed(77, name)))
		for i := 0; i < 2000; i++ {
			switch i % 6 {
			case 0:
				if a, b := lazy.Float64(), ref.Float64(); a != b {
					t.Fatalf("%s draw %d: Float64 %v != %v", name, i, a, b)
				}
			case 1:
				if a, b := lazy.NormFloat64(), ref.NormFloat64(); a != b {
					t.Fatalf("%s draw %d: NormFloat64 %v != %v", name, i, a, b)
				}
			case 2:
				if a, b := lazy.Intn(1000), ref.Intn(1000); a != b {
					t.Fatalf("%s draw %d: Intn %v != %v", name, i, a, b)
				}
			case 3:
				if a, b := lazy.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("%s draw %d: Uint64 %v != %v", name, i, a, b)
				}
			case 4:
				if a, b := lazy.Int63n(1<<40), ref.Int63n(1<<40); a != b {
					t.Fatalf("%s draw %d: Int63n %v != %v", name, i, a, b)
				}
			case 5:
				if a, b := lazy.ExpFloat64(), ref.ExpFloat64(); a != b {
					t.Fatalf("%s draw %d: ExpFloat64 %v != %v", name, i, a, b)
				}
			}
		}
	}

	src := &lazySource{seed: 5}
	_ = rand.New(src)
	if src.gen != nil {
		t.Fatal("wrapping a lazy source must not seed it")
	}
	src.Int63()
	if src.gen == nil {
		t.Fatal("the first draw must seed the source")
	}
	first := rand.NewSource(5).Int63()
	gen := src.gen
	src.Seed(5)
	if gen.ready != gen.feed || src.Int63() != first {
		t.Fatal("Seed must restart the stream lazily")
	}
	if src.gen != gen {
		t.Fatal("Seed must reseed the generator it has, not build another")
	}
}
