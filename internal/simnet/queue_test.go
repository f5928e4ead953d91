package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// ---- reference model -------------------------------------------------
//
// refQueue is the executable specification the timer queue is tested
// against: a plain list scanned for the earliest live event, popping in
// strict (at, seq) order, with the same Timer semantics (Stop reports
// pending, Active, When, generation-guarded staleness).

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

// refLane owns a Lane the way a netem link does — it keeps its entries
// in push order and names the next head when one fires — and mirrors
// every entry into the reference heap as an ordinary event, which is all
// an arrival is to the order the kernel promises.
type refLane struct {
	sim     *Sim
	lane    Lane
	entries []laneEntry
	fired   *[]firing
	// then, when set, runs after every firing (follow-up pushes and
	// schedules, the way a delivered packet makes its receiver send).
	then func()
}

type laneEntry struct {
	at time.Duration
	id int
	re *refEvent
	// seq is the kernel's stamp, kept to name the head with.
	seq uint64
}

func newRefLanes(s *Sim, n int, fired *[]firing) []*refLane {
	lanes := make([]*refLane, n)
	for i := range lanes {
		l := &refLane{sim: s, fired: fired}
		s.AddLane(&l.lane, l)
		lanes[i] = l
	}
	return lanes
}

func (l *refLane) Fire() {
	e := l.entries[0]
	l.entries = l.entries[1:]
	if len(l.entries) > 0 {
		h := l.entries[0]
		l.lane.Advance(h.at, h.seq)
	}
	*l.fired = append(*l.fired, firing{at: l.sim.Now(), id: e.id})
	if l.then != nil {
		l.then()
	}
}

// floor is the earliest instant the lane's next entry may carry.
func (l *refLane) floor() time.Duration {
	if n := len(l.entries); n > 0 {
		return max(l.entries[n-1].at, l.sim.Now())
	}
	return l.sim.Now()
}

func (l *refLane) push(ref *refQueue, at time.Duration, id int) {
	seq := l.sim.Push(&l.lane, at)
	l.entries = append(l.entries, laneEntry{at: at, id: id, re: ref.schedule(at, id), seq: seq})
}

// truncate drops the k newest entries; the reference cancels them.
func (l *refLane) truncate(k int) {
	l.sim.Truncate(&l.lane, k)
	keep := len(l.entries) - k
	for _, e := range l.entries[keep:] {
		e.re.cancelled = true
	}
	l.entries = l.entries[:keep]
}

// restamp moves the k newest entries to new instants, in order: gaps[i]
// after the previous entry (or the floor), each keeping its id.
func (l *refLane) restamp(ref *refQueue, gaps []time.Duration) {
	k := len(gaps)
	moved := append([]laneEntry(nil), l.entries[len(l.entries)-k:]...)
	l.truncate(k)
	for i, e := range moved {
		l.push(ref, l.floor()+gaps[i], e.id)
	}
}

// head returns the lane's head instant, or false when it is empty.
func (l *refLane) head() (time.Duration, bool) {
	if len(l.entries) == 0 {
		return 0, false
	}
	return l.entries[0].at, true
}

// ---- differential driver ---------------------------------------------

// firing records one observed execution.
type firing struct {
	at time.Duration
	id int
}

// TestTimerQueueDifferential drives the timer queue and the reference
// with the same randomized Schedule/After/Stop/Rearm/RunUntil workload
// (the reference re-arms by cancelling and scheduling afresh) and
// asserts identical firing order and identical Timer.Stop/Active/When
// results at every step: the kernel's queue, stale re-armed keys and
// all, fires nothing the goldens could tell from the plain (at, seq)
// order.
//
// Three lanes ride along: pushes at instants that tie exactly with
// timers and with other lanes' entries, tail truncations, in-order
// re-stamps and RunUntil bounds at a head's exact instant. To the
// reference every lane entry is one more event, so the merge of lanes
// and heap must fire them in the same (at, seq) order and agree on
// Pending and Processed after every operation.
func TestTimerQueueDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		ref := &refQueue{}

		type pair struct {
			tm Timer
			re *refEvent
		}
		var handles []pair
		var gotFired, wantFired []firing
		nextID := 0
		lanes := newRefLanes(s, 3, &gotFired)

		// tieAt returns an instant at or after floor, often exactly a
		// pending timer's or another lane's tail.
		tieAt := func(floor time.Duration) time.Duration {
			switch rng.Intn(4) {
			case 0:
				if len(handles) > 0 {
					if at := handles[rng.Intn(len(handles))].re.at; at >= floor {
						return at
					}
				}
			case 1:
				if at := lanes[rng.Intn(len(lanes))].floor(); at >= floor {
					return at
				}
			case 2:
				return floor
			}
			return floor + time.Duration(rng.Intn(3000))*time.Microsecond
		}
		push := func() {
			l := lanes[rng.Intn(len(lanes))]
			l.push(ref, tieAt(l.floor()), nextID)
			nextID++
		}
		for _, l := range lanes {
			l.then = func() {
				if rng.Intn(3) == 0 && nextID < 4096 {
					push() // a delivery that sends on some link, this one included
				}
			}
		}

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
					d = 0 // same-instant follow-up
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
			switch rng.Intn(18) {
			case 12, 13, 14: // push onto a lane
				push()
			case 15: // truncate a lane's tail
				l := lanes[rng.Intn(len(lanes))]
				l.truncate(rng.Intn(len(l.entries) + 1))
			case 16: // re-stamp a lane's tail in order
				l := lanes[rng.Intn(len(lanes))]
				gaps := make([]time.Duration, rng.Intn(len(l.entries)+1))
				for i := range gaps {
					gaps[i] = time.Duration(rng.Intn(4)) * 250 * time.Microsecond
				}
				l.restamp(ref, gaps)
			case 17: // run up to a lane head's exact instant
				at, ok := lanes[rng.Intn(len(lanes))].head()
				if !ok {
					continue
				}
				s.RunUntil(at)
				for {
					ev := ref.popLE(at)
					if ev == nil {
						break
					}
					wantFired = append(wantFired, firing{at: ev.at, id: ev.id})
				}
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
				// Offsets span microseconds to days, so that near and far
				// timers interleave in the heap.
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
			if got, want := s.Processed(), uint64(len(wantFired)); got != want {
				t.Fatalf("seed %d step %d: Processed = %d, reference fired %d", seed, step, got, want)
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

// ---- targeted ordering cases ----------------------------------------

// TestWheelCascadeFarFuture schedules timers from microseconds to days
// ahead, the last two 10 ns apart, and requires them to fire in time
// order at their exact instants.
func TestWheelCascadeFarFuture(t *testing.T) {
	s := New(1)
	var got []time.Duration
	record := func(any) { got = append(got, s.Now()) }
	ats := []time.Duration{
		10 * time.Microsecond,
		50 * time.Millisecond,
		30 * time.Second,
		2 * time.Hour,
		100 * time.Hour,
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

// TestWheelRunUntilMidTick stops the clock between two timers 2 µs
// apart, then schedules between them and onto the later one's instant.
func TestWheelRunUntilMidTick(t *testing.T) {
	s := New(1)
	var got []int
	rec := func(a any) { got = append(got, a.(int)) }
	s.ScheduleArg(time.Second+1*time.Microsecond, rec, 1)
	s.ScheduleArg(time.Second+3*time.Microsecond, rec, 3)
	s.RunUntil(time.Second + 2*time.Microsecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after RunUntil: got %v, want [1]", got)
	}
	// Now schedule between the two, and onto the leftover's instant;
	// order must be by (at, seq).
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

// TestWheelSameStartMultiLevel schedules a far timer, one 105 ms after
// it, then one 1 ns after the first, and requires time order, not
// scheduling order.
func TestWheelSameStartMultiLevel(t *testing.T) {
	s := New(1)
	var got []time.Duration
	record := func(any) { got = append(got, s.Now()) }
	const base = 34359738368 * time.Nanosecond
	s.ScheduleArg(base, record, nil)
	s.ScheduleArg(base+104857600, record, nil)
	s.ScheduleArg(base+1, record, nil)
	s.Run()
	want := []time.Duration{base, base + 1, base + 104857600}
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

// rearmPair runs one workload on two kernels — a re-arms with RearmArg,
// b with the Stop + ScheduleArg pair it stands for — each with one
// lane, and checks that they cannot be told apart.
type rearmPair struct {
	t              *testing.T
	name           string
	a, b           *Sim
	firedA, firedB []firing
	ha, hb         []Timer
	la, lb         *refLane
}

func newRearmPair(t *testing.T, name string, seed int64) *rearmPair {
	p := &rearmPair{t: t, name: name, a: New(seed), b: New(seed)}
	p.la = newRefLanes(p.a, 1, &p.firedA)[0]
	p.lb = newRefLanes(p.b, 1, &p.firedB)[0]
	return p
}

func (p *rearmPair) fireA(x any) { p.firedA = append(p.firedA, firing{p.a.Now(), x.(int)}) }
func (p *rearmPair) fireB(x any) { p.firedB = append(p.firedB, firing{p.b.Now(), x.(int)}) }

// at schedules timer id at instant at; its handle is the next index.
func (p *rearmPair) at(at time.Duration, id int) {
	p.ha = append(p.ha, p.a.ScheduleArg(at, p.fireA, id))
	p.hb = append(p.hb, p.b.ScheduleArg(at, p.fireB, id))
}

// rearm moves handle i to instant at as timer id; the new handle is the
// next index.
func (p *rearmPair) rearm(i int, at time.Duration, id int) {
	p.ha = append(p.ha, p.a.RearmArg(p.ha[i], at, p.fireA, id))
	p.hb[i].Stop()
	p.hb = append(p.hb, p.b.ScheduleArg(at, p.fireB, id))
}

func (p *rearmPair) stop(i int) {
	if ga, gb := p.ha[i].Stop(), p.hb[i].Stop(); ga != gb {
		p.t.Fatalf("%s: Stop of handle %d = %v, pair %v", p.name, i, ga, gb)
	}
}

// push puts arrival id on both lanes at instant at.
func (p *rearmPair) push(at time.Duration, id int) {
	p.la.push(&refQueue{}, at, id)
	p.lb.push(&refQueue{}, at, id)
}

func (p *rearmPair) runUntil(limit time.Duration) {
	p.a.RunUntil(limit)
	p.b.RunUntil(limit)
}

// check compares Processed, Pending, held and Active/When on every
// handle ever issued, stale ones included.
func (p *rearmPair) check(step int) {
	a, b := p.a, p.b
	if a.Processed() != b.Processed() || a.Pending() != b.Pending() || a.held() != b.held() {
		p.t.Fatalf("%s step %d: processed/pending/held = %d/%d/%d, pair %d/%d/%d", p.name, step,
			a.Processed(), a.Pending(), a.held(), b.Processed(), b.Pending(), b.held())
	}
	for i := range p.ha {
		ha, hb := p.ha[i], p.hb[i]
		if ha.Active() != hb.Active() || ha.When() != hb.When() {
			p.t.Fatalf("%s step %d handle %d: Active/When = %v/%v, pair %v/%v", p.name, step, i,
				ha.Active(), ha.When(), hb.Active(), hb.When())
		}
	}
}

// finish drains both kernels, compares their firings and returns the
// ids in firing order.
func (p *rearmPair) finish() []int {
	p.a.Run()
	p.b.Run()
	p.check(-1)
	if len(p.firedA) != len(p.firedB) {
		p.t.Fatalf("%s: fired %d events, pair fired %d", p.name, len(p.firedA), len(p.firedB))
	}
	ids := make([]int, len(p.firedA))
	for i := range p.firedA {
		if p.firedA[i] != p.firedB[i] {
			p.t.Fatalf("%s: firing %d = %+v, pair %+v", p.name, i, p.firedA[i], p.firedB[i])
		}
		ids[i] = p.firedA[i].id
	}
	return ids
}

// TestRearmMatchesStopSchedule runs timer workloads through a rearmPair
// and requires everything observable to agree after every step:
// Processed, Pending, held, the firing order, and Stop/Active/When on
// every handle ever issued. Three scripted cases pin the traps a stale
// heap key sets, each with the firing order it must produce; then come
// randomized workloads.
func TestRearmMatchesStopSchedule(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name   string
		script func(p *rearmPair)
		want   []int
	}{{
		// Timer 0 re-armed to its own instant after timer 1 was
		// scheduled there: its new seq puts it behind timer 1, which a
		// key of at alone would miss.
		"rearm to its own instant", func(p *rearmPair) {
			p.at(10*ms, 0)
			p.at(10*ms, 1)
			p.rearm(0, 10*ms, 2)
		}, []int{1, 2},
	}, {
		// Re-arms that tie with the lane's head: timer 1 was re-armed
		// after arrival 2 was pushed and fires after it, timer 4 before
		// arrival 5 was pushed and fires before it.
		"rearm ties the lane head", func(p *rearmPair) {
			p.at(5*ms, 0)
			p.push(10*ms, 2)
			p.rearm(0, 10*ms, 1)
			p.at(15*ms, 3)
			p.rearm(2, 20*ms, 4)
			p.push(20*ms, 5)
		}, []int{2, 1, 4, 5},
	}, {
		// Stop on a stale entry below the root: the heap's last entry
		// (timer 6) takes the stopped one's slot and must sift up past
		// timer 1, or timer 1 fires first once later timers keep timer
		// 6 away from the end of the heap.
		"stop a stale entry below the root", func(p *rearmPair) {
			for i, at := range []time.Duration{1, 10, 2, 11, 12, 3, 4} {
				p.at(at*ms, i)
			}
			p.rearm(3, 50*ms, 7)
			p.stop(7)
			for i := 8; i < 14; i++ {
				p.at(time.Duration(i+12)*ms, i)
			}
		}, []int{0, 2, 5, 6, 1, 4, 8, 9, 10, 11, 12, 13},
	}} {
		p := newRearmPair(t, c.name, 1)
		c.script(p)
		p.check(0)
		got := p.finish()
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: fired %v, want %v", c.name, got, c.want)
		}
	}

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newRearmPair(t, fmt.Sprintf("seed %d", seed), seed)
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
			case op < 2 || len(p.ha) == 0:
				p.at(p.a.Now()+d, step)
			case op < 7:
				p.rearm(rng.Intn(len(p.ha)), p.a.Now()+d, step)
			case op < 8:
				p.stop(rng.Intn(len(p.ha)))
			default:
				p.runUntil(p.a.Now() + d/4)
			}
			p.check(step)
		}
		p.finish()
	}
}

// TestRearmRunUntilBetweenSlotAndDeadline stops the clock after a
// re-armed event's stale key but before its deadline, at three time
// scales: the event must have been re-keyed (not fired, not lost), and
// events scheduled from the new clock position must still order
// correctly around it.
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

// nopEvent is an event body that does nothing.
func nopEvent(any) {}

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
