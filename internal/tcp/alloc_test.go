//go:build !race

// The testing.AllocsPerRun pins in this file measure the production
// allocator behavior; race-detector instrumentation adds bookkeeping
// allocations, so the pins only hold in non-race builds (CI runs both
// a race job and a non-race job, so the pins are still enforced).

package tcp

import (
	"testing"
	"time"
)

// TestSegmentCycleZeroAlloc pins the pooled segment hand-off: a pure
// ACK built by the sender travels the wire as a pooled packet, is
// dispatched by the receiving stack, and both the packet and the
// segment return to their pools — all without heap allocation once the
// pools are warm.
func TestSegmentCycleZeroAlloc(t *testing.T) {
	n := newTestNet(t, 1, 50, 5*time.Millisecond, 0)
	var cli *Conn
	n.server.Accept = func(c *Conn) {}
	cli = n.client.Dial(n.iface, "f", Config{})
	n.sim.Run()
	if cli.State() != StateEstablished {
		t.Fatalf("state = %v, want established", cli.State())
	}

	cycle := func() {
		cli.SendWindowUpdate() // pure ACK: segment + packet + events
		n.sim.Run()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("segment send-deliver-release cycle allocates %v per run, want 0", avg)
	}
}

// TestSteadyStateAckClockZeroAlloc pins the full ACK-clocking loop: a
// steady-state established connection moving one MSS per cycle — data
// segment out, cumulative ACK back, scoreboard advance, RTO/probe
// re-arm — must run entirely on recycled memory. This is the inner
// loop of every experiment sweep; an allocation here multiplies by
// millions of simulated segments.
func TestSteadyStateAckClockZeroAlloc(t *testing.T) {
	n := newTestNet(t, 1, 50, 5*time.Millisecond, 0)
	var srv *Conn
	n.server.Accept = func(c *Conn) { srv = c }
	n.client.Dial(n.iface, "f", Config{})
	n.sim.Run()
	if srv == nil || srv.State() != StateEstablished {
		t.Fatal("server conn not established")
	}

	step := func() {
		srv.Send(MSS) // one segment of fresh data + the ACK it clocks out
		n.sim.Run()
	}
	for i := 0; i < 64; i++ {
		step() // grow scoreboard/scratch capacity, warm pools
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state ACK clocking allocates %v per run, want 0", avg)
	}
}
