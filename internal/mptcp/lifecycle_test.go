package mptcp

import (
	"testing"
	"time"

	"multinet/internal/netem"
)

// ifaceEdge is a scheduled administrative or blackhole transition used
// by the lifecycle tests.
type ifaceEdge struct {
	ifc  *netem.Iface
	down bool
	bh   bool
	isBh bool
}

func applyEdge(a any) {
	e := a.(*ifaceEdge)
	if e.isBh {
		e.ifc.SetBlackhole(e.bh)
	} else {
		e.ifc.SetDown(e.down)
	}
}

func (r *rig) adminAt(at time.Duration, ifc *netem.Iface, down bool) {
	r.sim.ScheduleArg(at, applyEdge, &ifaceEdge{ifc: ifc, down: down})
}

func (r *rig) blackholeAt(at time.Duration, ifc *netem.Iface, bh bool) {
	r.sim.ScheduleArg(at, applyEdge, &ifaceEdge{ifc: ifc, bh: bh, isBh: true})
}

// TestRejoinAfterAdminDown pins the recovery half of the subflow
// lifecycle: an interface that goes administratively down mid-flow and
// comes back is re-joined (fresh SYN carrying MP_JOIN after a backoff)
// and the transfer completes over both paths with nothing stranded.
func TestRejoinAfterAdminDown(t *testing.T) {
	r := newRig(1, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	var srvConn *Conn
	r.srv.OnConn = func(c *Conn) {
		srvConn = c
		c.Send(1 << 20)
		c.Close()
	}
	c := Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{})
	r.adminAt(80*time.Millisecond, r.lte, true)
	r.adminAt(400*time.Millisecond, r.lte, false)
	r.sim.Run()

	if c.RecvTotal() != 1<<20 {
		t.Fatalf("received %d, want %d", c.RecvTotal(), 1<<20)
	}
	var lte *Subflow
	for _, sf := range c.Subflows() {
		if sf.Iface.Name == "lte" {
			lte = sf
		}
	}
	if lte == nil {
		t.Fatal("no lte subflow")
	}
	if lte.dead || !lte.established {
		t.Fatalf("lte subflow not re-established: dead=%v est=%v", lte.dead, lte.established)
	}
	if u := srvConn.UncoveredBytes(); u != 0 {
		t.Fatalf("server stranded %d scheduled bytes", u)
	}
	if !srvConn.closed || srvConn.aborted {
		t.Fatalf("server conn closed=%v aborted=%v, want graceful close", srvConn.closed, srvConn.aborted)
	}
}

// TestSubflowKilledMidRejoinNoStrandedMappings is the regression the
// issue names: a subflow killed again while its re-join handshake is in
// flight must not strand outstanding mapping records — the data must
// finish over the surviving path and a later recovery must still work.
func TestSubflowKilledMidRejoinNoStrandedMappings(t *testing.T) {
	r := newRig(3, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	var srvConn *Conn
	r.srv.OnConn = func(c *Conn) {
		srvConn = c
		c.Send(2 << 20)
		c.Close()
	}
	c := Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{})
	// Kill lte mid-flow; revive; the re-join fires after the 200 ms
	// backoff, and we kill the interface again while that handshake is
	// still in flight (lte owd 30 ms, so it needs ~60 ms). Then revive
	// once more and let the doubled backoff complete the re-join.
	r.adminAt(80*time.Millisecond, r.lte, true)
	r.adminAt(300*time.Millisecond, r.lte, false)
	r.adminAt(510*time.Millisecond, r.lte, true)
	r.adminAt(700*time.Millisecond, r.lte, false)
	r.sim.Run()

	if c.RecvTotal() != 2<<20 {
		t.Fatalf("received %d, want %d", c.RecvTotal(), 2<<20)
	}
	if u := srvConn.UncoveredBytes(); u != 0 {
		t.Fatalf("server stranded %d scheduled bytes after mid-rejoin kill", u)
	}
	if !srvConn.closed || srvConn.aborted {
		t.Fatalf("server conn closed=%v aborted=%v, want graceful close", srvConn.closed, srvConn.aborted)
	}
	if len(c.Subflows()) != 2 {
		t.Fatalf("client grew %d subflows, want 2 (re-join reuses the slot)", len(c.Subflows()))
	}
}

// TestWatchdogAbortsStuckConn pins the stuck-flow watchdog: when every
// path is silently blackholed forever, the connection records stall
// events and aborts instead of hanging the event loop.
func TestWatchdogAbortsStuckConn(t *testing.T) {
	r := newRig(5, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
		ServerConfig{WatchdogRTOs: 2})
	var srvConn *Conn
	r.srv.OnConn = func(c *Conn) {
		srvConn = c
		c.Send(8 << 20)
		c.Close()
	}
	Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{})
	r.blackholeAt(100*time.Millisecond, r.wifi, true)
	r.blackholeAt(100*time.Millisecond, r.lte, true)
	r.sim.Run() // must drain — the watchdog guarantees termination

	if srvConn == nil {
		t.Fatal("no server conn")
	}
	if !srvConn.aborted {
		t.Fatal("stuck connection did not abort")
	}
	if srvConn.StallCount != DefaultWatchdogMaxStalls {
		t.Fatalf("stall events: %d, want %d", srvConn.StallCount, DefaultWatchdogMaxStalls)
	}
}

// TestWatchdogQuietOnHealthyTransfer pins that an armed watchdog on a
// fault-free run records nothing and changes nothing.
func TestWatchdogQuietOnHealthyTransfer(t *testing.T) {
	r := newRig(5, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
		ServerConfig{WatchdogRTOs: 3})
	var srvConn *Conn
	r.srv.OnConn = func(c *Conn) {
		srvConn = c
		c.Send(1 << 20)
		c.Close()
	}
	c := Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{})
	r.sim.Run()
	if c.RecvTotal() != 1<<20 {
		t.Fatalf("received %d, want %d", c.RecvTotal(), 1<<20)
	}
	if srvConn.StallCount != 0 || srvConn.aborted {
		t.Fatalf("healthy transfer recorded stalls=%d aborted=%v", srvConn.StallCount, srvConn.aborted)
	}
}
