package simnet

import (
	"testing"
	"time"
)

// FuzzTimerQueueScheduleStop is the fuzz-shaped sibling of
// TestTimerQueueDifferential: the input bytes are decoded into a
// schedule/stop/run workload that drives the timer queue and the
// reference in lockstep, asserting identical Stop results, identical
// Pending counts, and an identical firing order. The seed corpus
// encodes the patterns the differential test reaches through its RNG —
// near bursts, far-future timers, stop then schedule again, re-arm past
// a RunUntil that lands beyond the stale key — and the three traps of a
// stale key that TestRearmMatchesStopSchedule scripts. Opcodes 6–9
// drive three lanes the way TestTimerQueueDifferential does: pushes
// that tie with timers and other lanes, tail truncation, in-order
// re-stamp and a RunUntil to a head's exact instant.
func FuzzTimerQueueScheduleStop(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x10}) // one near event, implicit drain
	f.Add([]byte{                         // three timers within 2 µs, then a bounded run
		0x00, 0x00, 0x00, 0x01,
		0x01, 0x00, 0x00, 0x01,
		0x00, 0x00, 0x00, 0x02,
		0x03, 0x00, 0x01,
	})
	f.Add([]byte{ // timers a minute to two days out, then drain
		0x00, 0x02, 0x01, 0x00,
		0x01, 0x03, 0x30,
		0x00, 0x01, 0xff, 0xff,
		0x04,
	})
	f.Add([]byte{ // schedule, stop it, schedule again, drain
		0x00, 0x00, 0x00, 0x40,
		0x02, 0x00, 0x00,
		0x01, 0x00, 0x00, 0x41,
		0x04,
	})
	f.Add([]byte{ // schedule at 16 ms, re-arm to 64 ms, stop the clock between, re-arm earlier, drain
		0x00, 0x01, 0x00, 0x10,
		0x05, 0x00, 0x00, 0x01, 0x00, 0x40,
		0x03, 0x00, 0x50,
		0x05, 0x00, 0x01, 0x01, 0x00, 0x01,
		0x04,
	})
	f.Add([]byte{ // a timer, two lanes' arrivals tied with it and with each other, run to the head, drain
		0x00, 0x00, 0x00, 0x10,
		0x06, 0x00, 0x00, 0x00, 0x00,
		0x06, 0x01, 0x01, 0x00,
		0x06, 0x02, 0x02,
		0x09, 0x01,
		0x04,
	})
	f.Add([]byte{ // push three onto one lane, re-stamp two, truncate one, drain
		0x06, 0x00, 0x03, 0x00, 0x20,
		0x06, 0x00, 0x02,
		0x06, 0x00, 0x03, 0x01, 0x00,
		0x08, 0x00, 0x02, 0x01, 0x00,
		0x07, 0x00, 0x01,
		0x04,
	})
	f.Add([]byte{ // two timers at 10 ms, the first re-armed to its own instant, drain
		0x00, 0x01, 0x00, 0x0a,
		0x00, 0x01, 0x00, 0x0a,
		0x05, 0x00, 0x00, 0x01, 0x00, 0x0a,
		0x04,
	})
	f.Add([]byte{ // a timer at 5 ms, an arrival at 10 ms, the timer re-armed to tie it, run to the head, drain
		0x00, 0x01, 0x00, 0x05,
		0x06, 0x00, 0x03, 0x27, 0x10,
		0x05, 0x00, 0x00, 0x01, 0x00, 0x0a,
		0x09, 0x00,
		0x04,
	})
	f.Add([]byte{ // timers at 1, 10, 2, 11, 12, 3, 4 ms, the 11 ms one re-armed to 50 ms and stopped, six at 20–25 ms, drain
		0x00, 0x01, 0x00, 0x01,
		0x00, 0x01, 0x00, 0x0a,
		0x00, 0x01, 0x00, 0x02,
		0x00, 0x01, 0x00, 0x0b,
		0x00, 0x01, 0x00, 0x0c,
		0x00, 0x01, 0x00, 0x03,
		0x00, 0x01, 0x00, 0x04,
		0x05, 0x00, 0x03, 0x01, 0x00, 0x32,
		0x02, 0x00, 0x07,
		0x00, 0x01, 0x00, 0x14,
		0x00, 0x01, 0x00, 0x15,
		0x00, 0x01, 0x00, 0x16,
		0x00, 0x01, 0x00, 0x17,
		0x00, 0x01, 0x00, 0x18,
		0x00, 0x01, 0x00, 0x19,
		0x04,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(1)
		ref := &refQueue{}
		type pair struct {
			tm Timer
			re *refEvent
		}
		var handles []pair
		var gotFired, wantFired []firing
		nextID := 0
		rec := func(a any) { gotFired = append(gotFired, firing{at: s.Now(), id: a.(int)}) }
		lanes := newRefLanes(s, 3, &gotFired)

		pop := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		u16 := func() int { return int(pop())<<8 | int(pop()) }
		syncRef := func(limit time.Duration) {
			for {
				ev := ref.popLE(limit)
				if ev == nil {
					return
				}
				wantFired = append(wantFired, firing{at: ev.at, id: ev.id})
			}
		}

		// offset decodes a delay of microseconds to days.
		offset := func() time.Duration {
			switch pop() % 4 {
			case 0:
				return time.Duration(u16()) * time.Microsecond
			case 1:
				return time.Duration(u16()) * time.Millisecond
			case 2:
				return time.Duration(u16()) * time.Second
			default:
				return time.Duration(pop()) * time.Hour
			}
		}

		// tieAt decodes an instant at or after floor: a pending timer's,
		// another lane's tail, floor itself, or a gap past it.
		tieAt := func(floor time.Duration) time.Duration {
			switch pop() % 4 {
			case 0:
				if len(handles) > 0 {
					if at := handles[u16()%len(handles)].re.at; at >= floor {
						return at
					}
				}
			case 1:
				if at := lanes[int(pop())%len(lanes)].floor(); at >= floor {
					return at
				}
			case 2:
				return floor
			default:
				return floor + time.Duration(u16())*time.Microsecond
			}
			return floor
		}

		for len(data) > 0 && nextID < 4096 {
			switch pop() % 10 {
			case 6: // push onto a lane
				l := lanes[int(pop())%len(lanes)]
				l.push(ref, tieAt(l.floor()), nextID)
				nextID++
			case 7: // truncate a lane's tail
				l := lanes[int(pop())%len(lanes)]
				l.truncate(int(pop()) % (len(l.entries) + 1))
			case 8: // re-stamp a lane's tail in order
				l := lanes[int(pop())%len(lanes)]
				gaps := make([]time.Duration, int(pop())%(len(l.entries)+1))
				for i := range gaps {
					gaps[i] = time.Duration(pop()) * 100 * time.Microsecond
				}
				l.restamp(ref, gaps)
			case 9: // run up to a lane head's exact instant
				if at, ok := lanes[int(pop())%len(lanes)].head(); ok {
					s.RunUntil(at)
					syncRef(at)
				}
			case 0, 1: // schedule
				d := offset()
				id := nextID
				nextID++
				tm := s.AfterArg(d, rec, id)
				re := ref.schedule(s.Now()+d, id)
				handles = append(handles, pair{tm, re})
			case 5: // re-arm a handle (live, fired, stopped or already re-armed)
				if len(handles) == 0 {
					continue
				}
				p := handles[u16()%len(handles)]
				d := offset()
				id := nextID
				nextID++
				p.re.cancelled = true
				tm := s.RearmArg(p.tm, s.Now()+d, rec, id)
				re := ref.schedule(s.Now()+d, id)
				handles = append(handles, pair{tm, re})
			case 2: // stop a handle (possibly already fired or stopped)
				if len(handles) == 0 {
					continue
				}
				p := handles[u16()%len(handles)]
				want := !p.re.cancelled && stillQueued(ref, p.re)
				p.re.cancelled = true
				if got := p.tm.Stop(); got != want {
					t.Fatalf("Stop = %v, want %v", got, want)
				}
			case 3: // run a bounded slice of virtual time
				limit := s.Now() + time.Duration(u16())*431*time.Microsecond
				s.RunUntil(limit)
				syncRef(limit)
			case 4: // drain everything
				s.Run()
				syncRef(1 << 62)
			}
			if got, want := s.Pending(), ref.pending(); got != want {
				t.Fatalf("Pending = %d, reference %d", got, want)
			}
			if got, want := s.Processed(), uint64(len(wantFired)); got != want {
				t.Fatalf("Processed = %d, reference fired %d", got, want)
			}
		}
		s.Run()
		syncRef(1 << 62)

		if len(gotFired) != len(wantFired) {
			t.Fatalf("fired %d events, reference fired %d", len(gotFired), len(wantFired))
		}
		for i := range gotFired {
			if gotFired[i] != wantFired[i] {
				t.Fatalf("firing %d = %+v, reference %+v", i, gotFired[i], wantFired[i])
			}
		}
	})
}
