package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// ---- reference model -------------------------------------------------
//
// refQueue is the executable specification the timing wheel is tested
// against: the binary heap the kernel used before, popping in strict
// (at, seq) order, with the same Timer semantics (Stop reports pending,
// Active, When, generation-guarded staleness).

type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	cancelled bool
}

type refQueue struct {
	events []*refEvent
	seq    uint64
}

func (q *refQueue) schedule(at time.Duration, id int) *refEvent {
	ev := &refEvent{at: at, seq: q.seq, id: id}
	q.seq++
	q.events = append(q.events, ev)
	return ev
}

// popLE removes and returns the earliest live event with at <= limit.
func (q *refQueue) popLE(limit time.Duration) *refEvent {
	best := -1
	for i, ev := range q.events {
		if ev.cancelled || ev.at > limit {
			continue
		}
		if best < 0 || ev.at < q.events[best].at ||
			(ev.at == q.events[best].at && ev.seq < q.events[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	ev := q.events[best]
	q.events = append(q.events[:best], q.events[best+1:]...)
	return ev
}

func (q *refQueue) pending() int {
	n := 0
	for _, ev := range q.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// ---- differential driver ---------------------------------------------

// firing records one observed execution.
type firing struct {
	at time.Duration
	id int
}

// TestWheelDifferential drives the wheel and the reference heap with
// the same randomized Schedule/After/Defer/Stop/Rearm/RunUntil workload
// (the reference re-arms by cancelling and scheduling afresh) and
// asserts identical firing order and identical Timer.Stop/Active/When
// results at every step. This is the executable proof that swapping the
// heap for the wheel changed nothing the goldens can observe.
func TestWheelDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		s.wheel.audit = true // every cached nextHigher is checked against a rescan
		ref := &refQueue{}

		type pair struct {
			tm Timer
			re *refEvent
		}
		var handles []pair
		var gotFired, wantFired []firing
		nextID := 0

		// fire is installed on every scheduled event; events may
		// themselves schedule follow-ups (nested scheduling is the
		// protocol stack's dominant pattern).
		var fire func(any)
		fire = func(a any) {
			id := a.(int)
			gotFired = append(gotFired, firing{at: s.Now(), id: id})
			if rng.Intn(4) == 0 && nextID < 4096 {
				// Schedule a follow-up relative to now; mirror in the model.
				d := time.Duration(rng.Intn(5000)) * 37 * time.Microsecond
				if rng.Intn(3) == 0 {
					d = 0 // Defer: same-instant follow-up
				}
				id2 := nextID
				nextID++
				tm := s.AfterArg(d, fire, id2)
				re := ref.schedule(s.Now()+d, id2)
				handles = append(handles, pair{tm, re})
			}
		}

		const steps = 400
		for step := 0; step < steps; step++ {
			switch rng.Intn(12) {
			case 10, 11: // re-arm a random handle, earlier or later, live or not
				if len(handles) == 0 {
					continue
				}
				p := handles[rng.Intn(len(handles))]
				var d time.Duration
				switch rng.Intn(3) {
				case 0:
					d = time.Duration(rng.Intn(3000)) * time.Microsecond
				case 1:
					d = time.Duration(rng.Intn(1000)) * time.Millisecond
				default:
					d = time.Duration(rng.Intn(300)) * time.Second
				}
				id := nextID
				nextID++
				p.re.cancelled = true
				tm := s.RearmArg(p.tm, s.Now()+d, fire, id)
				re := ref.schedule(s.Now()+d, id)
				// The old pair stays in the list as a stale handle.
				handles = append(handles, pair{tm, re})
			case 0, 1, 2, 3, 4: // schedule at a random future offset
				// Offsets span from sub-tick to multiple wheel levels so
				// cascades, far slots and same-tick buckets all occur.
				var d time.Duration
				switch rng.Intn(4) {
				case 0:
					d = time.Duration(rng.Intn(100)) * time.Microsecond
				case 1:
					d = time.Duration(rng.Intn(1000)) * time.Millisecond
				case 2:
					d = time.Duration(rng.Intn(300)) * time.Second
				default:
					d = time.Duration(rng.Intn(72)) * time.Hour
				}
				id := nextID
				nextID++
				tm := s.AfterArg(d, fire, id)
				re := ref.schedule(s.Now()+d, id)
				handles = append(handles, pair{tm, re})
			case 5: // stop a random handle
				if len(handles) == 0 {
					continue
				}
				p := handles[rng.Intn(len(handles))]
				wantStopped := !p.re.cancelled && stillQueued(ref, p.re)
				if p.re != nil {
					p.re.cancelled = true
				}
				if got := p.tm.Stop(); got != wantStopped {
					t.Fatalf("seed %d step %d: Stop = %v, want %v", seed, step, got, wantStopped)
				}
			case 6: // check Active/When on a random handle
				if len(handles) == 0 {
					continue
				}
				p := handles[rng.Intn(len(handles))]
				wantActive := !p.re.cancelled && stillQueued(ref, p.re)
				if got := p.tm.Active(); got != wantActive {
					t.Fatalf("seed %d step %d: Active = %v, want %v", seed, step, got, wantActive)
				}
				wantWhen := time.Duration(0)
				if wantActive {
					wantWhen = p.re.at
				}
				if got := p.tm.When(); got != wantWhen {
					t.Fatalf("seed %d step %d: When = %v, want %v", seed, step, got, wantWhen)
				}
			case 7, 8: // run a bounded slice of virtual time
				limit := s.Now() + time.Duration(rng.Intn(2000))*437*time.Microsecond
				s.RunUntil(limit)
				for {
					ev := ref.popLE(limit)
					if ev == nil {
						break
					}
					wantFired = append(wantFired, firing{at: ev.at, id: ev.id})
				}
			case 9: // drain everything
				s.Run()
				for {
					ev := ref.popLE(1 << 62)
					if ev == nil {
						break
					}
					wantFired = append(wantFired, firing{at: ev.at, id: ev.id})
				}
			}
			if got, want := s.Pending(), ref.pending(); got != want {
				t.Fatalf("seed %d step %d: Pending = %d, want %d", seed, step, got, want)
			}
			if len(gotFired) != len(wantFired) {
				t.Fatalf("seed %d step %d: fired %d events, reference fired %d",
					seed, step, len(gotFired), len(wantFired))
			}
			for i := range gotFired {
				if gotFired[i] != wantFired[i] {
					t.Fatalf("seed %d step %d: firing %d = %+v, reference %+v",
						seed, step, i, gotFired[i], wantFired[i])
				}
			}
		}
	}
}

// stillQueued reports whether re has not yet been popped by the model.
func stillQueued(q *refQueue, re *refEvent) bool {
	for _, ev := range q.events {
		if ev == re {
			return true
		}
	}
	return false
}

// ---- targeted wheel-mechanics tests ----------------------------------

// TestWheelCascadeFarFuture exercises placements that start several
// levels up and must cascade down as the clock approaches them.
func TestWheelCascadeFarFuture(t *testing.T) {
	s := New(1)
	var got []time.Duration
	record := func(any) { got = append(got, s.Now()) }
	// One event per wheel level, plus two in the same far tick to check
	// the (at, seq) sort after a multi-level cascade.
	ats := []time.Duration{
		10 * time.Microsecond, // level 0
		50 * time.Millisecond, // level 1
		30 * time.Second,      // level 2
		2 * time.Hour,         // level 3
		100 * time.Hour,       // level 4
		100*time.Hour + 10*time.Nanosecond,
	}
	for _, at := range ats {
		s.ScheduleArg(at, record, nil)
	}
	s.Run()
	if len(got) != len(ats) {
		t.Fatalf("fired %d events, want %d", len(got), len(ats))
	}
	for i, at := range ats {
		if got[i] != at {
			t.Fatalf("firing %d at %v, want %v", i, got[i], at)
		}
	}
}

// TestWheelRunUntilMidTick stops inside a tick that still holds a later
// event, then schedules between the two — the leftover due-bucket path.
func TestWheelRunUntilMidTick(t *testing.T) {
	s := New(1)
	var got []int
	rec := func(a any) { got = append(got, a.(int)) }
	// Two events 2 µs apart share one tick.
	s.ScheduleArg(time.Second+1*time.Microsecond, rec, 1)
	s.ScheduleArg(time.Second+3*time.Microsecond, rec, 3)
	s.RunUntil(time.Second + 2*time.Microsecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after RunUntil: got %v, want [1]", got)
	}
	// Now schedule into the same tick, between the leftover and a fresh
	// later event; order must be by (at, seq).
	s.ScheduleArg(time.Second+3*time.Microsecond, rec, 30) // ties leftover's at, later seq
	s.ScheduleArg(time.Second+2500*time.Nanosecond, rec, 2)
	s.Run()
	want := []int{1, 2, 3, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestWheelSameStartMultiLevel schedules so that slots at two different
// levels share a start tick; both must cascade before anything fires.
func TestWheelSameStartMultiLevel(t *testing.T) {
	s := New(1)
	var got []time.Duration
	record := func(any) { got = append(got, s.Now()) }
	// A level-2 block boundary is 1<<(2*levelBits) ticks.
	base := time.Duration(1) << (tickShift + 2*levelBits) // exactly on a level-2 (and level-1) block start
	s.ScheduleArg(base, record, nil)
	s.ScheduleArg(base+time.Duration(200)<<tickShift, record, nil) // level 1 territory after cascade
	s.ScheduleArg(base+1, record, nil)
	s.Run()
	want := []time.Duration{base, base + 1, base + time.Duration(200)<<tickShift}
	if len(got) != 3 {
		t.Fatalf("fired %d events, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// ---- re-arm ----------------------------------------------------------

// TestRearmMatchesStopSchedule runs one randomized timer workload on
// two kernels — one re-arming with RearmArg, one with the Stop +
// ScheduleArg pair it stands for — and requires everything observable
// to agree after every step: Processed, Pending, held, the firing
// order, and Stop/Active/When on every handle ever issued, stale ones
// included.
func TestRearmMatchesStopSchedule(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(seed), New(seed) // a re-arms in place, b uses the pair
		var firedA, firedB []firing
		fireA := func(x any) { firedA = append(firedA, firing{a.Now(), x.(int)}) }
		fireB := func(x any) { firedB = append(firedB, firing{b.Now(), x.(int)}) }
		var ha, hb []Timer
		for step := 0; step < 600; step++ {
			var d time.Duration
			switch rng.Intn(4) {
			case 0:
				d = time.Duration(rng.Intn(400)) * time.Microsecond
			case 1:
				d = time.Duration(rng.Intn(300)) * time.Millisecond
			case 2:
				d = time.Duration(rng.Intn(100)) * time.Second
			default:
				d = time.Duration(rng.Intn(30)) * time.Hour
			}
			switch op := rng.Intn(10); {
			case op < 2 || len(ha) == 0:
				ha = append(ha, a.AfterArg(d, fireA, step))
				hb = append(hb, b.AfterArg(d, fireB, step))
			case op < 7:
				i := rng.Intn(len(ha))
				ha = append(ha, a.RearmArg(ha[i], a.Now()+d, fireA, step))
				hb[i].Stop()
				hb = append(hb, b.ScheduleArg(b.Now()+d, fireB, step))
			case op < 8:
				i := rng.Intn(len(ha))
				if ga, gb := ha[i].Stop(), hb[i].Stop(); ga != gb {
					t.Fatalf("seed %d step %d: Stop = %v, pair %v", seed, step, ga, gb)
				}
			default:
				limit := a.Now() + d/4
				a.RunUntil(limit)
				b.RunUntil(limit)
			}
			if a.Processed() != b.Processed() || a.Pending() != b.Pending() || a.held() != b.held() {
				t.Fatalf("seed %d step %d: processed/pending/held = %d/%d/%d, pair %d/%d/%d", seed, step,
					a.Processed(), a.Pending(), a.held(), b.Processed(), b.Pending(), b.held())
			}
			for i := range ha {
				if ha[i].Active() != hb[i].Active() || ha[i].When() != hb[i].When() {
					t.Fatalf("seed %d step %d handle %d: Active/When = %v/%v, pair %v/%v", seed, step, i,
						ha[i].Active(), ha[i].When(), hb[i].Active(), hb[i].When())
				}
			}
		}
		a.Run()
		b.Run()
		if len(firedA) != len(firedB) {
			t.Fatalf("seed %d: fired %d events, pair fired %d", seed, len(firedA), len(firedB))
		}
		for i := range firedA {
			if firedA[i] != firedB[i] {
				t.Fatalf("seed %d: firing %d = %+v, pair %+v", seed, i, firedA[i], firedB[i])
			}
		}
	}
}

// TestRearmRunUntilBetweenSlotAndDeadline stops the clock after the
// wheel has passed a re-armed event's stale slot but before its
// deadline, at level 0 and at a cascading level: the event must have
// been re-filed (not fired, not lost), and events scheduled from the
// new clock position must still order correctly around it.
func TestRearmRunUntilBetweenSlotAndDeadline(t *testing.T) {
	for _, unit := range []time.Duration{time.Millisecond, time.Second, time.Hour} {
		s := New(1)
		var got []int
		rec := func(a any) { got = append(got, a.(int)) }
		tm := s.ScheduleArg(10*unit, rec, 1)
		tm = s.RearmArg(tm, 50*unit, rec, 2)
		if n := s.RunUntil(30 * unit); n != 0 || len(got) != 0 {
			t.Fatalf("unit %v: RunUntil fired %d events (%v) before the new deadline", unit, n, got)
		}
		if s.Now() != 30*unit || s.Pending() != 1 || !tm.Active() || tm.When() != 50*unit {
			t.Fatalf("unit %v: now %v pending %d active %v when %v", unit, s.Now(), s.Pending(), tm.Active(), tm.When())
		}
		s.ScheduleArg(40*unit, rec, 3)
		s.ScheduleArg(50*unit, rec, 4) // ties the re-armed deadline, later seq
		s.ScheduleArg(60*unit, rec, 5)
		s.Run()
		want := []int{3, 2, 4, 5}
		if len(got) != len(want) {
			t.Fatalf("unit %v: fired %v, want %v", unit, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("unit %v: fired %v, want %v", unit, got, want)
			}
		}
	}
}

// TestRearmZeroAlloc pins the re-arm cost: neither the in-place rewrite
// (later deadline) nor the fallback pair (earlier deadline, or a handle
// whose event already fired) allocates in steady state.
func TestRearmZeroAlloc(t *testing.T) {
	s := New(1)
	s.AfterArg(time.Hour, nopEvent, nil)
	tm := s.AfterArg(200*time.Millisecond, nopEvent, nil)
	later := s.Now() + 200*time.Millisecond
	if n := testing.AllocsPerRun(1000, func() {
		later += 10 * time.Microsecond
		tm = s.RearmArg(tm, later, nopEvent, nil)
	}); n != 0 {
		t.Fatalf("in-place re-arm allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tm = s.RearmArg(tm, later+time.Second, nopEvent, nil)
		tm = s.RearmArg(tm, later, nopEvent, nil) // earlier: Stop + ScheduleArg
	}); n != 0 {
		t.Fatalf("fallback re-arm allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.RunFor(2 * time.Second) // fires tm
		tm = s.RearmArg(tm, s.Now()+time.Second, nopEvent, nil)
	}); n != 0 {
		t.Fatalf("re-arming a fired handle allocates %v per op", n)
	}
}
