package simnet

import (
	"testing"
	"time"
)

// The scheduler micro-benchmarks below hammer the three access patterns
// every experiment sweep is made of, without any protocol machinery on
// top, so a kernel regression is visible directly in ns/op:
//
//   - fire churn: the ACK-clocked steady state — every fired event
//     schedules its successor a little later (one pending event per
//     "flow", many flows in flight).
//   - cancel churn: per-packet RTO timers — schedule far out, cancel
//     almost immediately, forever.
//   - re-arm churn: the same timers moved the way the transports now
//     move them — RearmArg pushing a pending deadline out in place.
//   - deep pending: scheduling while tens of thousands of unrelated
//     timers are pending (sweep-scale fan-in), where per-op cost of a
//     comparison-based queue degrades as O(log n).
//
// cmd/bench mirrors these four as sched/* entries of the benchmark
// trajectory, so the committed baseline gates them too.

func nopEvent(any) {}

// BenchmarkFireChurn measures the schedule+fire cycle with 64 event
// chains in flight: each fired event schedules the next occurrence of
// its chain. b.N counts fired events.
func BenchmarkFireChurn(b *testing.B) {
	s := New(1)
	const chains = 64
	fired := 0
	var step func(any)
	step = func(any) {
		fired++
		if fired < b.N {
			s.AfterArg(731*time.Microsecond, step, nil)
		}
	}
	for i := 0; i < chains && i < b.N; i++ {
		s.AfterArg(time.Duration(i+1)*time.Microsecond, step, nil)
	}
	b.ResetTimer()
	s.Run()
	if fired < b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkCancelChurn measures the schedule+cancel cycle of a
// retransmission-timer workload: every op arms a timer ~200 ms out and
// stops it again, with a small set of live timers pending throughout.
func BenchmarkCancelChurn(b *testing.B) {
	s := New(1)
	for i := 0; i < 16; i++ {
		s.AfterArg(time.Duration(i+1)*time.Hour, nopEvent, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(200*time.Millisecond, nopEvent, nil).Stop()
	}
}

// BenchmarkRearmChurn is BenchmarkCancelChurn's workload on RearmArg:
// every op pushes one pending timer's deadline out, and the clock
// follows in 100 ms strides so the wheel also re-files the event's
// stale slot now and then.
func BenchmarkRearmChurn(b *testing.B) {
	s := New(1)
	for i := 0; i < 16; i++ {
		s.AfterArg(time.Duration(i+1)*time.Hour, nopEvent, nil)
	}
	tm := s.AfterArg(200*time.Millisecond, nopEvent, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			s.RunFor(100 * time.Millisecond)
		}
		tm = s.RearmArg(tm, s.Now()+200*time.Millisecond+time.Duration(i%1024)*100*time.Microsecond, nopEvent, nil)
	}
}

// BenchmarkDeepPending measures schedule/fire cost with a deep pending
// set: 64k long-lived timers are pending while the measured chain
// schedules and fires through them.
func BenchmarkDeepPending(b *testing.B) {
	s := New(1)
	// The deep set sits past any reachable horizon: the chain fires one
	// event per 5 µs, so even go-test's 1e9 iteration cap stays under
	// 84 min of virtual time, clear of the 2 h floor.
	const deep = 64 << 10
	for i := 0; i < deep; i++ {
		s.AfterArg(2*time.Hour+time.Duration(i)*time.Millisecond, nopEvent, nil)
	}
	fired := 0
	var step func(any)
	step = func(any) {
		fired++
		if fired < b.N {
			s.AfterArg(5*time.Microsecond, step, nil)
		}
	}
	s.AfterArg(time.Microsecond, step, nil)
	b.ResetTimer()
	s.RunUntil(time.Microsecond + time.Duration(b.N)*5*time.Microsecond)
	if fired < b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}
