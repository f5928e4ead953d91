//go:build !race

// The testing.AllocsPerRun pin in this file measures the production
// allocator behavior; race-detector instrumentation adds bookkeeping
// allocations, so it only holds in non-race builds (CI runs both).

package core

import (
	"testing"
	"time"
)

// TestAuditAllocatesNothing pins that Close costs no more allocations
// than the Release it wraps: auditing a passing world allocates
// nothing, with a TCP and an MPTCP transfer in flight at a horizon and
// once the world has drained, where the rules that presuppose
// quiescence run too.
func TestAuditAllocatesNothing(t *testing.T) {
	fs := NewFlows(NewWorld(3, cleanCond(10, 6)))
	defer fs.Close()
	fs.Open(2)
	*fs.Flow(0) = Flow{Name: "tcp", Config: Config{Transport: TCP, Iface: "wifi"}, Response: 1 << 20, ClientCloses: true}
	*fs.Flow(1) = Flow{Name: "mptcp", Config: Config{Transport: MPTCP, Primary: "lte"}, Response: 1 << 20, ClientCloses: true}
	fs.Start(fs.Flow(0))
	fs.Start(fs.Flow(1))
	for _, end := range []struct {
		name    string
		run     func()
		pending bool
	}{
		{"horizon-ended", func() { fs.Sim.RunUntil(300 * time.Millisecond) }, true},
		{"drained", func() { fs.Sim.Run() }, false},
	} {
		end.run()
		if got := fs.Sim.Pending() > 0; got != end.pending {
			t.Fatalf("%s: events pending = %v", end.name, got)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := fs.Audit(); err != nil {
				t.Fatalf("%s: %v", end.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Audit allocates %v times, want 0", end.name, allocs)
		}
	}
	if fs.Flow(0).Done == 0 || fs.Flow(1).Done == 0 {
		t.Fatal("a transfer did not finish")
	}
}
