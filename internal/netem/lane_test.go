package netem

import (
	"fmt"
	"testing"
	"time"

	"multinet/internal/simnet"
)

// TestCrossLinkTieFiresInLaunchOrder puts two links' arrivals and two
// timers on one instant. The kernel orders them by (at, seq), so they
// fire in the order they were scheduled or launched — whatever order the
// links were built in, and whichever of a timer and an arrival came
// first. A merge that compared instants alone would fire the links in
// registration order, or every arrival before or after every timer. A
// third link's earlier arrival makes the kernel look for the earliest
// head again while the two tie.
func TestCrossLinkTieFiresInLaunchOrder(t *testing.T) {
	s := simnet.New(1)
	cfg := LinkConfig{PropDelay: 10 * time.Millisecond}
	slot := &PeriodicOpportunities{Interval: time.Millisecond}
	a := NewVarLink(s, slot, cfg) // registered first, launched second
	b := NewVarLink(s, slot, cfg)
	c := NewVarLink(s, slot, LinkConfig{PropDelay: 5 * time.Millisecond})
	const at = 11 * time.Millisecond // first opportunity, plus propagation

	var got []string
	var when []time.Duration
	note := func(name string) {
		got = append(got, name)
		when = append(when, s.Now())
	}
	a.SetReceiver(func(p *Packet) { note("a") })
	b.SetReceiver(func(p *Packet) { note("b") })
	c.SetReceiver(func(p *Packet) { note("c") })
	s.Schedule(at, func() { note("timer1") })
	b.Send(&Packet{Size: 100})
	a.Send(&Packet{Size: 100})
	c.Send(&Packet{Size: 100})
	s.Schedule(at, func() { note("timer2") })
	if n := s.Pending(); n != 5 {
		t.Fatalf("Pending = %d before the run, want 5", n)
	}
	if n := s.Run(); n != 5 {
		t.Fatalf("Run fired %d, want 5", n)
	}

	if want := "[c timer1 b a timer2]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	for i, w := range when[1:] {
		if w != at {
			t.Fatalf("%s fired at %v, want %v", got[i+1], w, at)
		}
	}
}

// TestPendingCountsPacketsInFlight holds the kernel's pending count to
// the packets a link holds: queued, in service and on the wire alike.
// Harnesses drain worlds with `for sim.Pending() > 0` (the chaos test,
// faults' DSS test); if arrivals stopped counting, those loops would end
// with packets still on the wire and pass without checking them.
func TestPendingCountsPacketsInFlight(t *testing.T) {
	s := simnet.New(1)
	// 12 Mbit/s, 10 ms propagation: one 1500 B packet departs every ms
	// and arrives 10 ms later.
	l := NewFixedLink(s, 12, LinkConfig{PropDelay: 10 * time.Millisecond})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	for i := 0; i < 8; i++ {
		l.Send(&Packet{Size: 1500})
	}
	s.Schedule(5*time.Millisecond, func() {})
	if n := s.Pending(); n != 9 {
		t.Fatalf("Pending = %d with 8 packets queued and a timer, want 9", n)
	}

	// At 4.5 ms four packets are on the wire, one in service and three
	// queued; none has arrived, and all eight are pending.
	s.RunUntil(4500 * time.Microsecond)
	if n, q := s.Pending(), l.QueueLen(); n != 9 || q != 4 {
		t.Fatalf("at 4.5 ms: Pending = %d, QueueLen = %d; want 9 and 4", n, q)
	}
	// The purge drops the four not yet departed: the four on the wire
	// still count until they arrive, and the link is back up by then.
	l.SetDown(true)
	if n := s.Pending(); n != 5 {
		t.Fatalf("after the purge: Pending = %d, want the 4 on the wire and the timer", n)
	}
	l.SetDown(false)
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1500})
	}

	steps := 0
	for s.Pending() > 0 {
		s.RunFor(time.Millisecond)
		steps++
	}
	st := l.Stats()
	if delivered != 7 || st.Delivered != 7 || st.LostInFlight != 4 || st.Sent != st.Delivered+st.LostInFlight {
		t.Fatalf("drained after %d steps: delivered %d, stats %+v; want 7 delivered, 4 lost", steps, delivered, st)
	}
	if s.Processed() != 7+1 {
		t.Fatalf("Processed = %d, want 7 arrivals and the timer", s.Processed())
	}
}

// TestReleaseRecallsPacketsOnTheWire: a world released with packets on
// its links — departed and on the wire, or still queued — hands them
// back to the arena's free list, so the next world built from the same
// arena sends those very packets, zeroed, and allocates none.
func TestReleaseRecallsPacketsOnTheWire(t *testing.T) {
	const n = 20
	// 1 Mbps serialises an MTU in 12 ms and the wire takes 100 ms: at
	// 50 ms a few packets are on the wire, the rest queued, none arrived.
	world := func() (*simnet.Sim, *Iface) {
		s := simnet.New(1)
		cfg := LinkConfig{PropDelay: 100 * time.Millisecond, QueueLimit: n}
		return s, NewIface(s, "wifi", NewFixedLink(s, 1, cfg), NewFixedLink(s, 1, cfg))
	}
	s, i := world()
	sent := map[*Packet]bool{}
	i.AddSendTap(func(p *Packet) { sent[p] = true })
	for k := 0; k < n; k++ {
		i.SendDown(MTU, nil)
	}
	s.RunUntil(50 * time.Millisecond)
	st, queued := i.DownLink().Stats(), i.DownLink().QueueLen()
	if onWire := st.Sent - st.Delivered - queued; st.Sent != n || st.Delivered != 0 || onWire == 0 || queued == 0 {
		t.Fatalf("released with %d sent, %d delivered, %d on the wire, %d queued: want all sent, none delivered, some of each",
			st.Sent, st.Delivered, onWire, queued)
	}
	pkts := simnet.FreeListOf[Packet](s)
	s.Release()

	s, i = world()
	if simnet.FreeListOf[Packet](s) != pkts {
		t.Fatal("the next world was not built from the released one's arena")
	}
	i.AddSendTap(func(p *Packet) {
		if !sent[p] {
			t.Errorf("a send in the next world allocated a packet")
		}
		if p.SendTime != 0 || p.doneAt != 0 {
			t.Errorf("a recalled packet kept its old world's schedule: %+v", *p)
		}
		delete(sent, p)
	})
	for k := 0; k < n; k++ {
		i.SendDown(MTU, nil)
	}
	s.Release()
}
