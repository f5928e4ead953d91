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
