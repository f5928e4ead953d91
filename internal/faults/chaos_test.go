package faults_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// world is the paper's Fig. 5 topology — a wifi+lte client against a
// single-homed server — sized small enough that a chaos run with a
// 128 KB transfer finishes in milliseconds of wall time. A variable
// world carries the same mean rates and delays on delivery-opportunity
// links (netem.VarLink over phy's AR(1) rate process), the link model
// of every paper condition.
type world struct {
	sim    *simnet.Sim
	host   *netem.Host
	wifi   *netem.Iface
	lte    *netem.Iface
	client *tcp.Stack
	server *tcp.Stack
	srv    *mptcp.Server
}

func newWorld(seed int64, scfg mptcp.ServerConfig, variable bool) *world {
	sim := simnet.New(seed)
	mk := func(name string, mbps float64, owd time.Duration) *netem.Iface {
		if variable {
			return phy.BuildIface(sim, name, phy.PathProfile{
				DownMbps: mbps, UpMbps: mbps, RTTms: 2 * float64(owd.Milliseconds()),
				Variability: 0.4, QueuePkts: 150,
			})
		}
		cfg := netem.LinkConfig{PropDelay: owd, QueueLimit: 150}
		up := netem.NewFixedLink(sim, mbps, cfg)
		down := netem.NewFixedLink(sim, mbps, cfg)
		return netem.NewIface(sim, name, up, down)
	}
	w := &world{sim: sim}
	w.wifi = mk("wifi", 10, 15*time.Millisecond)
	w.lte = mk("lte", 8, 30*time.Millisecond)
	w.host = netem.NewHost("client")
	w.host.Attach(w.wifi)
	w.host.Attach(w.lte)
	w.client = tcp.NewStack(sim, tcp.ClientSide)
	w.server = tcp.NewStack(sim, tcp.ServerSide)
	for _, i := range []*netem.Iface{w.wifi, w.lte} {
		w.client.Bind(i)
		w.server.Bind(i)
	}
	w.srv = mptcp.NewServer(sim, w.server, scfg)
	return w
}

// chaosResult is one run's outcome: the invariant violations plus a
// deterministic fingerprint used by the differential fuzz target.
type chaosResult struct {
	violations []faults.Violation
	stalls     int
	signature  string
}

// runChaos builds a world of the given link kind, attaches the
// schedule, moves size bytes in the given direction (download:
// server→client) with the stuck-flow watchdog armed, drains the
// simulation and checks every invariant.
func runChaos(t *testing.T, seed int64, sched faults.Schedule, variable, download bool, size int) chaosResult {
	t.Helper()
	netem.SetLeakTracking(true)
	tcp.SetLeakTracking(true)
	mptcp.SetLeakTracking(true)

	const watchdogRTOs = 4
	w := newWorld(seed, mptcp.ServerConfig{WatchdogRTOs: watchdogRTOs}, variable)

	// A re-join that restarts with MP_CAPABLE (primary died before the
	// first handshake completed) makes the server build a fresh Conn, so
	// a run can see several server-side conns; stall accounting and the
	// invariant pairing must cover all of them.
	var serverConns []*mptcp.Conn
	stallEvents := 0
	var clientConn *mptcp.Conn
	ck := &faults.Checker{Leaks: true}
	ck.AddHost(w.host)
	w.srv.OnConn = func(c *mptcp.Conn) {
		// The latest server conn is the live peer; superseded conns
		// (from an MP_CAPABLE restart) were aborted or stranded and are
		// still invariant-checked for stranded mappings and stalls.
		ck.AddPair(fmt.Sprintf("chaos[%d]", len(serverConns)), clientConn, c)
		serverConns = append(serverConns, c)
		c.SetCallbacks(mptcp.Callbacks{
			OnStall: func(c *mptcp.Conn, total int) { stallEvents++ },
		})
		if download {
			c.Send(size)
			c.Close()
		}
	}
	cb := mptcp.Callbacks{
		OnStall: func(c *mptcp.Conn, total int) { stallEvents++ },
	}
	if !download {
		cb.OnEstablished = func(c *mptcp.Conn) {
			c.Send(size)
			c.Close()
		}
	}
	clientConn = mptcp.Dial(w.sim, w.client, w.host, mptcp.Config{
		ConnID:       "chaos",
		Primary:      "wifi",
		WatchdogRTOs: watchdogRTOs,
	}, cb)

	if _, err := sched.Attach(w.sim, w.host); err != nil {
		t.Fatalf("attach: %v", err)
	}
	// Step the run instead of draining it in one call: the scoreboard
	// rule holds between any two events, and stepping audits the senders
	// in the middle of the loss episodes the schedule provokes. (Stepping
	// adds no events; it only rounds the final clock up to a step.)
	var violations []faults.Violation
	for w.sim.Pending() > 0 {
		w.sim.RunFor(25 * time.Millisecond)
		if len(violations) == 0 {
			violations = ck.CheckScoreboards()
		}
	}
	violations = append(violations, ck.Check()...)

	// A watchdog stall must never pass silently: every recorded stall
	// fired the OnStall callback.
	recorded := clientConn.StallCount
	for _, sc := range serverConns {
		recorded += sc.StallCount
	}
	if recorded != stallEvents {
		violations = append(violations, faults.Violation{
			Rule:   "stall-event",
			Detail: fmt.Sprintf("%d stalls recorded, %d events fired", recorded, stallEvents),
		})
	}

	var sig strings.Builder
	fmt.Fprintf(&sig, "end=%v client.rcv=%d client.stalls=%d conns=%d", w.sim.Now(), clientConn.RecvTotal(), clientConn.StallCount, len(serverConns))
	for _, sc := range serverConns {
		fmt.Fprintf(&sig, " server.rcv=%d server.stalls=%d aborted=%v/%v",
			sc.RecvTotal(), sc.StallCount, clientConn.Aborted(), sc.Aborted())
	}
	for _, ifc := range w.host.Ifaces() {
		for _, d := range []struct {
			dir string
			l   netem.Link
		}{{"up", ifc.UpLink()}, {"down", ifc.DownLink()}} {
			st := d.l.Stats()
			fmt.Fprintf(&sig, " %s/%s=%d/%d/%d", ifc.Name, d.dir, st.Sent, st.Delivered, st.LostInFlight)
		}
	}
	return chaosResult{violations: violations, stalls: stallEvents, signature: sig.String()}
}

// TestChaosSweep runs 500 randomized fault schedules against live MPTCP
// transfers in both directions, over constant-rate and delivery-
// opportunity links in turn, and asserts zero invariant violations:
// every byte delivered exactly once (or the connection visibly
// aborted), no stranded mapping records, no silent stalls, no
// pooled-object leaks, and exact packet conservation on every link.
func TestChaosSweep(t *testing.T) {
	defer netem.SetLeakTracking(false)
	defer tcp.SetLeakTracking(false)
	defer mptcp.SetLeakTracking(false)
	runs := 500
	if testing.Short() {
		runs = 50
	}
	for i := 0; i < runs; i++ {
		seed := int64(9000 + i)
		rng := rand.New(rand.NewSource(seed))
		sched := faults.GenSchedule(rng, []string{"wifi", "lte"}, 5*time.Second)
		res := runChaos(t, seed, sched, i%4 >= 2, i%2 == 0, 128<<10)
		for _, v := range res.violations {
			t.Errorf("seed %d: %s\nschedule:\n%s", seed, v, sched)
		}
		if t.Failed() {
			return
		}
	}
}

// TestChaosDeterministic pins that the same seed and schedule reproduce
// the same run bit for bit (the fuzz target widens this across random
// schedules).
func TestChaosDeterministic(t *testing.T) {
	defer netem.SetLeakTracking(false)
	defer tcp.SetLeakTracking(false)
	defer mptcp.SetLeakTracking(false)
	rng := rand.New(rand.NewSource(42))
	sched := faults.GenSchedule(rng, []string{"wifi", "lte"}, 5*time.Second)
	for _, variable := range []bool{false, true} {
		a := runChaos(t, 42, sched, variable, true, 128<<10)
		b := runChaos(t, 42, sched, variable, true, 128<<10)
		if a.signature != b.signature {
			t.Fatalf("non-deterministic chaos run (variable links: %v):\n%s\n%s", variable, a.signature, b.signature)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []faults.Schedule{
		{Episodes: []faults.Episode{{Kind: faults.AdminDown, Iface: "", Duration: time.Second}}},
		{Episodes: []faults.Episode{{Kind: faults.AdminDown, Iface: "wifi", Start: -1, Duration: time.Second}}},
		{Episodes: []faults.Episode{{Kind: faults.AdminDown, Iface: "wifi"}}},
		{Episodes: []faults.Episode{{Kind: faults.FlapTrain, Iface: "wifi", Duration: time.Second, Cycles: 0, Period: 2 * time.Second}}},
		{Episodes: []faults.Episode{{Kind: faults.FlapTrain, Iface: "wifi", Duration: time.Second, Cycles: 2, Period: time.Second}}},
		{Episodes: []faults.Episode{{Kind: faults.LossBurst, Iface: "wifi", Duration: time.Second, LossProb: 1.5}}},
		{Episodes: []faults.Episode{{Kind: faults.RateCollapse, Iface: "wifi", Duration: time.Second, RateFactor: 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: want validation error, got nil", i)
		}
	}
	good := faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.Blackhole, Iface: "wifi", Start: time.Second, Duration: 500 * time.Millisecond},
		{Kind: faults.FlapTrain, Iface: "lte", Duration: 100 * time.Millisecond, Cycles: 3, Period: 300 * time.Millisecond},
		{Kind: faults.LossBurst, Iface: "wifi", Duration: time.Second, LossProb: 0.2},
		{Kind: faults.RateCollapse, Iface: "lte", Duration: time.Second, RateFactor: 0.25},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestAttachUnknownIface(t *testing.T) {
	w := newWorld(1, mptcp.ServerConfig{}, false)
	s := faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.AdminDown, Iface: "satellite", Duration: time.Second},
	}}
	if _, err := s.Attach(w.sim, w.host); err == nil {
		t.Fatal("want error for unknown interface")
	}
}

// TestInjectorFiresAllSteps pins the step accounting and the
// restore-to-baseline semantics of loss bursts and rate collapses.
func TestInjectorFiresAllSteps(t *testing.T) {
	w := newWorld(1, mptcp.ServerConfig{}, false)
	s := faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.LossBurst, Iface: "wifi", Start: 10 * time.Millisecond, Duration: 50 * time.Millisecond, LossProb: 0.5},
		{Kind: faults.RateCollapse, Iface: "lte", Start: 10 * time.Millisecond, Duration: 50 * time.Millisecond, RateFactor: 0.1},
		{Kind: faults.FlapTrain, Iface: "wifi", Start: 100 * time.Millisecond, Duration: 20 * time.Millisecond, Cycles: 2, Period: 50 * time.Millisecond},
	}}
	inj, err := s.Attach(w.sim, w.host)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Steps() != 2+2+4 {
		t.Fatalf("steps = %d, want 8", inj.Steps())
	}
	w.sim.Run()
	if inj.Fired() != inj.Steps() {
		t.Fatalf("fired %d of %d steps", inj.Fired(), inj.Steps())
	}
	if w.wifi.AdminDown() {
		t.Fatal("wifi left down after flap train")
	}
	lte := w.lte.UpLink().(*netem.FixedLink)
	if got := lte.RateMbps(); got != 8 {
		t.Fatalf("lte rate not restored: %v Mbps", got)
	}
}
