package mptcp

import (
	"testing"
	"time"

	"multinet/internal/tcp"
)

// TestDSSHolderCount drives the holder count of recycled DSS through
// everything that shares one: random loss (retransmitted copies beside
// the scoreboard entry), paths of disparate delay (copies read long
// after their entry was acknowledged, and the other way round), a
// blackhole long enough for repeated RTOs and reinjection (the same
// mapping under several DSS on several subflows) and, in the second
// run, an administrative flap that aborts a subflow with entries and
// copies outstanding. The live count must never go negative — a holder
// let go twice — and must be back at zero once the simulation drains:
// every DSS was returned by its last holder or written off at an abort.
func TestDSSHolderCount(t *testing.T) {
	defer SetLeakTracking(false)
	for _, tc := range []struct {
		name     string
		teardown bool
	}{
		{"loss+reordering+rto+reinjection", false},
		{"and a subflow torn down mid-flight", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			SetLeakTracking(true)
			const size = 2 << 20
			r := newRig(21,
				pathSpec{mbps: 8, owd: 10 * time.Millisecond, loss: 0.02},
				pathSpec{mbps: 6, owd: 70 * time.Millisecond, loss: 0.01},
				ServerConfig{})
			var done time.Duration
			r.srv.OnConn = func(c *Conn) { c.Send(size); c.Close() }
			cli := Dial(r.sim, r.client, r.host, Config{ConnID: "dss", Primary: "wifi"}, Callbacks{
				OnData: func(c *Conn, total int64) {
					if total >= size && done == 0 {
						done = r.sim.Now()
						c.Close()
					}
				},
			})
			r.blackholeAt(400*time.Millisecond, r.lte, true)
			r.blackholeAt(5*time.Second, r.lte, false)
			if tc.teardown {
				r.adminAt(900*time.Millisecond, r.wifi, true)
				r.adminAt(1500*time.Millisecond, r.wifi, false)
			}
			peak := int64(0)
			for r.sim.Pending() > 0 {
				r.sim.RunFor(5 * time.Millisecond)
				live := LiveDSS()
				if live < 0 {
					t.Fatalf("at %v: live DSS count %d: a holder let go twice", r.sim.Now(), live)
				}
				peak = max(peak, live)
			}
			if done == 0 {
				t.Fatal("transfer did not complete")
			}
			srv := r.srv.Conn("dss")
			rtx := 0
			for _, sf := range srv.Subflows() {
				rtx += sf.TCP.Retransmits
			}
			// Reinjection happens on a subflow's second consecutive RTO, so
			// a reinjection also proves the timeouts.
			if rtx == 0 || srv.Reinjections == 0 || peak < 10 {
				t.Fatalf("run too tame to test sharing: %d retransmits, %d reinjections, peak %d live DSS",
					rtx, srv.Reinjections, peak)
			}
			if tc.teardown {
				aborted := false
				for _, c := range []*Conn{cli, srv} {
					for _, sf := range c.Subflows() {
						aborted = aborted || sf.rejoinAttempts > 0 || sf.TCP.State() == tcp.StateDone
					}
				}
				if !aborted {
					t.Fatal("no subflow was torn down")
				}
			}
			if live := LiveDSS(); live != 0 {
				t.Fatalf("%d DSS still held at quiescence (peak %d)", live, peak)
			}
		})
	}
}

// TestDSSReuseWaitsForLastHolder pins the order at the one place a
// holder's release and a nested send meet: the scoreboard entry lets go
// after the OnAckedOpt callbacks, so a DSS those callbacks are reading
// cannot be the one a send they trigger takes from the free list.
func TestDSSReuseWaitsForLastHolder(t *testing.T) {
	r := newRig(22, symmetric(10, 5*time.Millisecond), symmetric(10, 5*time.Millisecond), ServerConfig{})
	c := newConn(r.sim, r.client, r.host, tcp.ClientSide, Config{ConnID: "x"}, Callbacks{})
	d := c.newDSS(100, 50)
	d.RetainOpt() // scoreboard entry
	d.RecycleOpt()
	if d.Len != 50 || d.holders != 1 {
		t.Fatalf("DSS reset with a holder left: %+v", d)
	}
	if other := c.newDSS(0, 1); other == d {
		t.Fatal("free list handed out a DSS that is still held")
	}
	d.RecycleOpt()
	if d.Len != 0 || d.home != nil {
		t.Fatalf("last holder let go but the DSS was not reset: %+v", d)
	}
	if again := c.newDSS(7, 7); again != d {
		t.Fatal("a fully released DSS was not the next one reused")
	}
	// An abandoned DSS stays readable and never comes back.
	d.RetainOpt()
	d.AbandonOpt()
	d.RecycleOpt()
	d.RecycleOpt()
	if d.DataSeq != 7 || d.Len != 7 {
		t.Fatalf("abandoned DSS was reset: %+v", d)
	}
	if again := c.newDSS(8, 8); again == d {
		t.Fatal("an abandoned DSS was reused")
	}
}
