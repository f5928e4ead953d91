//go:build !race

// The testing.AllocsPerRun pin in this file measures the production
// allocator behavior; race-detector instrumentation adds bookkeeping
// allocations, so it only holds in non-race builds (CI runs both).

package mptcp

import (
	"testing"
	"time"
)

// TestMPTCPSteadyStateZeroAlloc pins the whole MPTCP data path on
// recycled memory: once a two-subflow bulk transfer has been through a
// few loss cycles — windows, scoreboards, mapping queues and reassembly
// buffers at their peak, free lists stocked — moving data allocates
// nothing: not a packet, not a segment, not an event and, since each
// mapping's DSS is recycled by holder count, not a DSS either.
func TestMPTCPSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(31, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	r.srv.OnConn = func(c *Conn) { c.Send(1 << 30) }
	Dial(r.sim, r.client, r.host, Config{ConnID: "bulk", Primary: "wifi"}, Callbacks{})
	r.sim.RunUntil(30 * time.Second)
	srv := r.srv.Conn("bulk")
	if srv == nil || len(srv.Subflows()) != 2 || srv.DataAcked() < 30<<20 {
		t.Fatalf("warm-up did not reach a two-subflow steady state: %v", srv)
	}
	before := srv.DataAcked()
	if avg := testing.AllocsPerRun(100, func() { r.sim.RunFor(50 * time.Millisecond) }); avg != 0 {
		t.Fatalf("steady-state MPTCP transfer allocates %v per 50 ms of traffic, want 0", avg)
	}
	if moved := srv.DataAcked() - before; moved < 5<<20 {
		t.Fatalf("only %d bytes moved while measuring", moved)
	}
}

// TestSchedulersRankZeroAlloc: wake ranks the eligible subflows on every
// data and ack event, so no registered scheduler may allocate there.
func TestSchedulersRankZeroAlloc(t *testing.T) {
	for _, name := range SchedulerNames() {
		r := newRig(32, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
		c := Dial(r.sim, r.client, r.host, Config{ConnID: "rank", Primary: "wifi", Scheduler: name}, Callbacks{})
		r.sim.RunUntil(time.Second)
		if n := len(c.modeEligible()); n != 2 {
			t.Fatalf("%s: %d eligible subflows after a second, want 2", name, n)
		}
		if avg := testing.AllocsPerRun(100, func() { c.sched.Rank(c, c.modeEligible()) }); avg != 0 {
			t.Errorf("%s: Rank allocates %v per call, want 0", name, avg)
		}
	}
}

// TestSubflowWiringZeroAlloc: in a world built from a released one,
// joining a subflow to an established connection allocates the flow's
// name and nothing else — the Subflow, its tcp.Conn, its place in the
// subflow list and its MP_JOIN option are the slab's, as the rings are,
// and there is no hook closure, no source adapter, no congestion-control
// closure and no interface subscription closure.
func TestSubflowWiringZeroAlloc(t *testing.T) {
	const conns = 9 // one per AllocsPerRun call, warm-up included
	var cs []*Conn
	var r *rig
	world := func() {
		r = newRig(33, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{CC: Coupled})
		cs = cs[:0]
		for i := 0; i < conns; i++ {
			cs = append(cs, Dial(r.sim, r.client, r.host, Config{ConnID: string(rune('a' + i)), Primary: "wifi", CC: Coupled, NoJoin: true}, Callbacks{}))
		}
		r.sim.RunUntil(time.Second)
	}
	// The measured world is the second one built on this arena (New takes
	// the arena released last): its slabs already hold what the joins will
	// carve.
	world()
	for _, c := range cs {
		c.addSubflow(r.lte, false, false)
	}
	r.sim.RunUntil(2 * time.Second)
	r.sim.Release()
	world()
	for _, c := range cs {
		if !c.Primary().Established() {
			t.Fatalf("%s not established after a second", c.ConnID())
		}
	}
	next := 0
	avg := testing.AllocsPerRun(conns-1, func() {
		cs[next].addSubflow(r.lte, false, false)
		next++
	})
	if avg != 1 {
		t.Errorf("joining a subflow allocates %v objects, want 1 (the flow name)", avg)
	}
	r.sim.RunUntil(2 * time.Second)
	for _, c := range cs {
		if len(c.subflows) != 2 || !c.subflows[1].Established() {
			t.Fatalf("%s: the measured join did not establish", c.ConnID())
		}
	}
}
