package faults_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"multinet/internal/core"
	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/tcp"
)

// world is the paper's Fig. 5 topology — a wifi+lte client against a
// single-homed server — sized small enough that a chaos run with a
// 128 KB transfer finishes in milliseconds of wall time. A variable
// world carries the same mean rates and delays on delivery-opportunity
// links (netem.VarLink over phy's AR(1) rate process), the link model
// of every paper condition.
type world struct {
	core.World
	srv *mptcp.Server
}

func newWorld(seed int64, scfg mptcp.ServerConfig, variable bool) *world {
	variability := 0.0
	if variable {
		variability = 0.4
	}
	path := func(name string, mbps, rttMs float64) phy.Path {
		return phy.Path{Name: name, Profile: phy.PathProfile{
			DownMbps: mbps, UpMbps: mbps, RTTms: rttMs, Variability: variability, QueuePkts: 150,
		}}
	}
	w := &world{World: core.NewWorld(seed, phy.NewCondition("chaos", path("wifi", 10, 30), path("lte", 8, 60)))}
	w.srv = mptcp.NewServer(w.Sim, w.Server, scfg)
	return w
}

// chaosResult is one run's outcome: what the world audit found (nil
// when every rule held) plus a deterministic fingerprint used by the
// differential fuzz target.
type chaosResult struct {
	err       error
	signature string
}

// runChaos builds a world of the given link kind, attaches the
// schedule, moves size bytes in the given direction (download:
// server→client) with the stuck-flow watchdog armed, drains the
// simulation and audits the world along the way and at the end; a world
// that passes is closed.
func runChaos(t *testing.T, seed int64, sched faults.Schedule, variable, download bool, size int) chaosResult {
	t.Helper()
	const watchdogRTOs = 4
	w := newWorld(seed, mptcp.ServerConfig{WatchdogRTOs: watchdogRTOs}, variable)

	// A re-join that restarts with MP_CAPABLE (primary died before the
	// first handshake completed) makes the server build a fresh Conn, so
	// a run can see several server-side conns; the audit pairs each with
	// the client's (unpaired checks that it does).
	var serverConns []*mptcp.Conn
	w.srv.OnConn = func(c *mptcp.Conn) {
		serverConns = append(serverConns, c)
		if download {
			c.Send(size)
			c.Close()
		}
	}
	var cb mptcp.Callbacks
	if !download {
		cb.OnEstablished = func(c *mptcp.Conn) {
			c.Send(size)
			c.Close()
		}
	}
	clientConn := mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{
		ConnID:       "chaos",
		Primary:      "wifi",
		WatchdogRTOs: watchdogRTOs,
	}, cb)

	if err := sched.Attach(w.Sim, w.Host); err != nil {
		t.Fatalf("attach: %v", err)
	}
	// Step the run instead of draining it in one call: every rule but
	// the two that presuppose quiescence holds between any two events,
	// and stepping audits the world in the middle of the loss episodes
	// the schedule provokes, where the scoreboard accounting actually
	// moves. (Stepping adds no events; it only rounds the final clock up
	// to a step.)
	var err error
	for w.Sim.Pending() > 0 {
		w.Sim.RunFor(25 * time.Millisecond)
		if err == nil {
			err = w.Audit()
		}
	}
	if err == nil {
		err = w.Audit()
	}
	if err == nil {
		err = unpaired(w, serverConns, clientConn)
	}

	var sig strings.Builder
	fmt.Fprintf(&sig, "end=%v client=%v stalls=%d conns=%d", w.Sim.Now(), clientConn, clientConn.StallCount, len(serverConns))
	for _, sc := range serverConns {
		fmt.Fprintf(&sig, " server=%v stalls=%d", sc, sc.StallCount)
		for _, sf := range sc.Subflows() {
			fmt.Fprintf(&sig, " %v", sf.TCP.State())
		}
	}
	for _, ifc := range w.Host.Ifaces() {
		for _, d := range []struct {
			dir string
			l   netem.Link
		}{{"up", ifc.UpLink()}, {"down", ifc.DownLink()}} {
			st := d.l.Stats()
			fmt.Fprintf(&sig, " %s/%s=%d/%d/%d", ifc.Name, d.dir, st.Sent, st.Delivered, st.LostInFlight)
		}
	}
	if err == nil {
		w.Close()
	}
	return chaosResult{err: err, signature: sig.String()}
}

// unpaired returns an error naming each server end that the world
// audit does not pair with client, nil when it pairs them all. The audit
// meets a server end at its first subflow, which the server stack keeps
// yielding after it forgets it, and pairs it with the client end that
// owns the peer of one of its subflows.
func unpaired(w *world, servers []*mptcp.Conn, client *mptcp.Conn) error {
	filed := map[*tcp.Conn]bool{}
	for tc := range w.Server.Conns() {
		filed[tc] = true
	}
	ours := map[any]bool{}
	for _, sf := range client.Subflows() {
		ours[sf] = true
	}
	var errs []error
	for i, sc := range servers {
		paired := false
		for _, sf := range sc.Subflows() {
			if p := w.Client.Peer(sf.TCP); p != nil && ours[p.Owner()] {
				paired = true
			}
		}
		if !filed[sc.Subflows()[0].TCP] || !paired {
			errs = append(errs, fmt.Errorf("server end %d of %d (%v) is not audited with the client end", i+1, len(servers), sc))
		}
	}
	return errors.Join(errs...)
}

// TestChaosSweep runs 500 randomized fault schedules against live MPTCP
// transfers in both directions, over constant-rate and delivery-
// opportunity links in turn, and asserts zero invariant violations:
// every byte delivered exactly once (or the connection visibly
// aborted), no stranded mapping records, no silent stalls, no
// pooled-object leaks, and exact packet conservation on every link.
func TestChaosSweep(t *testing.T) {
	runs := 500
	if testing.Short() {
		runs = 50
	}
	for i := 0; i < runs; i++ {
		seed := int64(9000 + i)
		rng := rand.New(rand.NewSource(seed))
		sched := faults.GenSchedule(rng, []string{"wifi", "lte"}, 5*time.Second)
		if err := runChaos(t, seed, sched, i%4 >= 2, i%2 == 0, 128<<10).err; err != nil {
			t.Fatalf("seed %d: %v\nschedule:\n%s", seed, err, sched)
		}
	}
}

// TestChaosDeterministic pins that the same seed and schedule reproduce
// the same run bit for bit (the fuzz target widens this across random
// schedules).
func TestChaosDeterministic(t *testing.T) {
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

// TestLeakCountIsPerWorld runs two fault-free transfers side by side, one
// of which keeps packets it took from its world, and audits both only
// once both have run. The leak rule counts each world's own free list:
// the leaking world is reported with exactly what it kept, and panics at
// Close, and the other reads clean.
func TestLeakCountIsPerWorld(t *testing.T) {
	const keepPackets = 3
	got := make([]string, 2)
	var ran, done sync.WaitGroup
	ran.Add(len(got))
	done.Add(len(got))
	for i := range got {
		go func() {
			defer done.Done()
			w := newWorld(int64(70+i), mptcp.ServerConfig{}, false)
			w.srv.OnConn = func(c *mptcp.Conn) { c.Send(64 << 10); c.Close() }
			mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{ConnID: "leak", Primary: "wifi"}, mptcp.Callbacks{})
			if i == 0 {
				w.Sim.Schedule(w.Sim.Now()+100*time.Millisecond, func() {
					for range keepPackets {
						netem.NewPacket(w.Sim)
					}
				})
			}
			w.Sim.Run()
			ran.Done()
			ran.Wait()
			if err := w.Audit(); err != nil {
				got[i] = err.Error()
			}
			defer func() {
				if r := recover(); (r != nil) != (got[i] != "") {
					t.Errorf("world %d: Close panicked with %v, audit read %q", i, r, got[i])
				}
			}()
			w.Close()
		}()
	}
	done.Wait()
	want := fmt.Sprintf("packet-leak: %d pooled packets unaccounted for", keepPackets)
	if got[0] != want {
		t.Errorf("leaking world: got %q, want %q", got[0], want)
	}
	if got[1] != "" {
		t.Errorf("clean world: got %q, want no violations", got[1])
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
	if err := s.Attach(w.Sim, w.Host); err == nil {
		t.Fatal("want error for unknown interface")
	}
}

// TestInjectorFiresAllSteps pins that Attach arms one event per fault
// edge, that every edge fires, and the restore-to-baseline semantics of
// loss bursts, rate collapses and flap trains.
func TestInjectorFiresAllSteps(t *testing.T) {
	w := newWorld(1, mptcp.ServerConfig{}, false)
	s := faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.LossBurst, Iface: "wifi", Start: 10 * time.Millisecond, Duration: 50 * time.Millisecond, LossProb: 0.5},
		{Kind: faults.RateCollapse, Iface: "lte", Start: 10 * time.Millisecond, Duration: 50 * time.Millisecond, RateFactor: 0.1},
		{Kind: faults.FlapTrain, Iface: "wifi", Start: 100 * time.Millisecond, Duration: 20 * time.Millisecond, Cycles: 2, Period: 50 * time.Millisecond},
	}}
	wifiLoss := w.Host.Iface("wifi").UpLink().(*netem.FixedLink).LossProb()
	pending := w.Sim.Pending()
	if err := s.Attach(w.Sim, w.Host); err != nil {
		t.Fatal(err)
	}
	if got := w.Sim.Pending() - pending; got != 2+2+4 {
		t.Fatalf("Attach armed %d events, want 8", got)
	}
	w.Sim.Run()
	if got := w.Sim.Pending(); got != pending {
		t.Fatalf("%d events pending after Run, want %d", got, pending)
	}
	if w.Host.Iface("wifi").AdminDown() {
		t.Fatal("wifi left down after flap train")
	}
	if got := w.Host.Iface("wifi").UpLink().(*netem.FixedLink).LossProb(); got != wifiLoss {
		t.Fatalf("wifi loss not restored: %v, want %v", got, wifiLoss)
	}
	lte := w.Host.Iface("lte").UpLink().(*netem.FixedLink)
	if got := lte.RateMbps(); got != 8 {
		t.Fatalf("lte rate not restored: %v Mbps", got)
	}
}
