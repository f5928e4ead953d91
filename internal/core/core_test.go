package core

import (
	"slices"
	"testing"
	"time"

	"multinet/internal/mptcp"
	"multinet/internal/phy"
	"multinet/internal/selector"
	"multinet/internal/tcp"
)

func cleanCond(wifiMbps, lteMbps float64) phy.Condition {
	return phy.NewCondition("test",
		phy.Path{Name: "wifi", Profile: phy.PathProfile{DownMbps: wifiMbps, UpMbps: wifiMbps / 2.5, RTTms: 40}},
		phy.Path{Name: "lte", Profile: phy.PathProfile{DownMbps: lteMbps, UpMbps: lteMbps / 2.5, RTTms: 70}},
	)
}

// wifiLTE is the two-path estimate of the paper's {wifi, lte} pair.
func wifiLTE(wifiMbps, lteMbps float64, wifiRTT, lteRTT time.Duration) selector.Estimate {
	return selector.Estimate{Paths: []selector.PathEstimate{
		{Name: "wifi", Mbps: wifiMbps, RTT: wifiRTT},
		{Name: "lte", Mbps: lteMbps, RTT: lteRTT},
	}}
}

// TestNewWorld pins how the one constructor wires a world: an interface
// per path in condition order, the client and server stacks bound to
// every one of them, and Close the end of it.
func TestNewWorld(t *testing.T) {
	p := phy.PathProfile{DownMbps: 5, UpMbps: 2, RTTms: 40}
	cond := phy.NewCondition("three",
		phy.Path{Name: "wifi", Profile: p}, phy.Path{Name: "lte-a", Profile: p}, phy.Path{Name: "lte-b", Profile: p})
	w := NewWorld(1, cond)
	names := w.Host.IfaceNames()
	if !slices.Equal(names, []string{"wifi", "lte-a", "lte-b"}) {
		t.Fatalf("interfaces %v, want the condition's paths in order", names)
	}
	accepted, established := map[string]bool{}, map[string]bool{}
	w.Server.Accept = func(c *tcp.Conn) { accepted[c.Flow()] = true }
	for _, name := range names {
		w.Client.Dial(w.Host.Iface(name), name, tcp.Config{Callbacks: tcp.Callbacks{
			OnEstablished: func(c *tcp.Conn) { established[c.Flow()] = true },
		}})
	}
	w.Sim.RunFor(time.Second)
	for _, name := range names {
		if !accepted[name] || !established[name] {
			t.Errorf("%s: no handshake between the stacks (accepted %v, established %v)", name, accepted[name], established[name])
		}
	}
	w.Close()
	defer func() {
		if recover() == nil {
			t.Error("a closed world's Sim still schedules")
		}
	}()
	w.Sim.Schedule(w.Sim.Now()+time.Second, func() {})
}

func TestTCPDownload(t *testing.T) {
	s := NewSession(1, cleanCond(10, 6))
	r := s.Run(Config{Transport: TCP, Iface: "wifi"}, Download, 1<<20)
	if !r.Completed {
		t.Fatal("download incomplete")
	}
	if r.Mbps < 6 || r.Mbps > 10.5 {
		t.Fatalf("throughput %.2f, want near 10 Mbit/s link rate", r.Mbps)
	}
	if r.EstablishedAt <= 0 || r.EstablishedAt > 300*time.Millisecond {
		t.Fatalf("established at %v, want ~1 RTT", r.EstablishedAt)
	}
}

func TestTCPUpload(t *testing.T) {
	s := NewSession(1, cleanCond(10, 6))
	r := s.Run(Config{Transport: TCP, Iface: "lte"}, Upload, 500_000)
	if !r.Completed {
		t.Fatal("upload incomplete")
	}
	// LTE uplink is 6/2.5 = 2.4 Mbit/s.
	if r.Mbps < 1.4 || r.Mbps > 2.6 {
		t.Fatalf("upload throughput %.2f, want ~2", r.Mbps)
	}
}

func TestMPTCPDownloadAggregates(t *testing.T) {
	s := NewSession(2, cleanCond(6, 5))
	r := s.Run(Config{Transport: MPTCP, Primary: "wifi"}, Download, 4<<20)
	if !r.Completed {
		t.Fatal("incomplete")
	}
	if r.Mbps < 7 {
		t.Fatalf("MPTCP aggregate %.2f, want > 7 on 6+5 paths", r.Mbps)
	}
}

func TestSequentialTransfersSameSession(t *testing.T) {
	// The paper's measurement run: four sequential transfers.
	s := NewSession(3, cleanCond(8, 6))
	cfgs := []Config{
		{Transport: TCP, Iface: "wifi"},
		{Transport: TCP, Iface: "lte"},
		{Transport: MPTCP, Primary: "wifi"},
		{Transport: MPTCP, Primary: "lte", CC: mptcp.Coupled},
	}
	for i, cfg := range cfgs {
		r := s.Run(cfg, Download, 1<<20)
		if !r.Completed {
			t.Fatalf("transfer %d (%s) incomplete", i, cfg.Name())
		}
	}
}

func TestBothDirectionsBothTransports(t *testing.T) {
	s := NewSession(4, cleanCond(8, 6))
	for _, tr := range []TransportKind{TCP, MPTCP} {
		for _, dir := range []Direction{Download, Upload} {
			cfg := Config{Transport: tr, Iface: "wifi", Primary: "wifi"}
			if r := s.Run(cfg, dir, 300_000); !r.Completed {
				t.Fatalf("transport=%v dir=%v incomplete", tr, dir)
			}
		}
	}
}

// TestGivenUpTransferIsInert: a transfer that Run gave up on at the
// horizon keeps going in the simulator, and its data arrives during the
// next transfer. It must record nothing and stop nothing there: the next
// transfer of the same session completes as it would in a fresh one.
func TestGivenUpTransferIsInert(t *testing.T) {
	for _, tr := range []TransportKind{TCP, MPTCP} {
		for dir, way := range []string{Download: "download", Upload: "upload"} {
			cfg := Config{Transport: tr, Iface: "wifi", Primary: "wifi"}
			s := NewSession(10, cleanCond(10, 6))
			s.Horizon = 500 * time.Millisecond
			if r := s.Run(cfg, Direction(dir), 4<<20); r.Completed {
				t.Fatalf("%s %s: 4 MB completed within 500 ms", cfg.Name(), way)
			}
			s.Horizon = DefaultHorizon
			if r := s.Run(cfg, Direction(dir), 4<<20); !r.Completed {
				t.Errorf("%s %s: the transfer after a given-up one is incomplete", cfg.Name(), way)
			}
			s.Close()
		}
	}
}

// TestUnknownTransportPanics: the one dial switch refuses a transport it
// does not know, rather than leave a transfer idling to its horizon or
// run a replay as single-path TCP.
func TestUnknownTransportPanics(t *testing.T) {
	s := NewSession(1, cleanCond(10, 6))
	defer func() {
		if msg, _ := recover().(string); msg != "core: unknown transport 7" {
			t.Errorf("panic %q, want the unknown transport named", msg)
		}
	}()
	s.Run(Config{Transport: 7, Iface: "wifi", Primary: "wifi"}, Download, 1<<10)
}

func TestConfigNames(t *testing.T) {
	if got := (Config{Transport: TCP, Iface: "wifi"}).Name(); got != "wifi-TCP" {
		t.Fatalf("name = %q", got)
	}
	got := Config{Transport: MPTCP, Primary: "lte", CC: mptcp.Coupled}.Name()
	if got != "MPTCP(lte, coupled)" {
		t.Fatalf("name = %q", got)
	}
}

func TestProbeEstimates(t *testing.T) {
	s := NewSession(5, cleanCond(12, 4))
	est := s.Probe()
	if est.Mbps("wifi") <= est.Mbps("lte") {
		t.Fatalf("probe: wifi %.2f <= lte %.2f, but WiFi link is 3x faster",
			est.Mbps("wifi"), est.Mbps("lte"))
	}
	if est.Best() != "wifi" {
		t.Fatalf("Best = %s, want wifi", est.Best())
	}
}

func TestSelectorShortFlow(t *testing.T) {
	est := wifiLTE(3, 9, 0, 0)
	cfg := ConfigFor(selector.Decide(est, 50_000))
	if cfg.Transport != TCP || cfg.Iface != "lte" {
		t.Fatalf("short flow choice = %+v, want LTE-TCP", cfg)
	}
}

func TestSelectorLongFlowComparablePaths(t *testing.T) {
	est := wifiLTE(6, 5, 0, 0)
	cfg := ConfigFor(selector.Decide(est, 5<<20))
	if cfg.Transport != MPTCP || cfg.Primary != "wifi" || cfg.CC != mptcp.Decoupled {
		t.Fatalf("long flow choice = %+v, want MPTCP wifi-primary decoupled", cfg)
	}
}

func TestSelectorLongFlowDisparatePaths(t *testing.T) {
	est := wifiLTE(1, 10, 0, 0)
	cfg := ConfigFor(selector.Decide(est, 5<<20))
	if cfg.Transport != TCP || cfg.Iface != "lte" {
		t.Fatalf("disparate-path choice = %+v, want LTE-TCP (Fig. 7a regime)", cfg)
	}
}

func TestSelectorBeatsWorstStaticPolicy(t *testing.T) {
	// End-to-end sanity for the future-work policy: on an
	// LTE-much-better condition, the selector's choice for a 1 MB flow
	// should beat always-WiFi (the Android default).
	cond := phy.NewCondition("ltebetter",
		phy.Path{Name: "wifi", Profile: phy.PathProfile{DownMbps: 1.5, UpMbps: 0.7, RTTms: 90}},
		phy.Path{Name: "lte", Profile: phy.PathProfile{DownMbps: 9, UpMbps: 4, RTTms: 65}},
	)
	probe := NewSession(6, cond)
	est := probe.Probe()
	cfg := ConfigFor(selector.Decide(est, 1<<20))

	chosen := NewSession(7, cond).Run(cfg, Download, 1<<20)
	wifi := NewSession(7, cond).Run(Config{Transport: TCP, Iface: "wifi"}, Download, 1<<20)
	if !chosen.Completed || !wifi.Completed {
		t.Fatal("incomplete")
	}
	if chosen.FCT >= wifi.FCT {
		t.Fatalf("selector FCT %v not better than always-WiFi %v", chosen.FCT, wifi.FCT)
	}
}

func TestEstimateHelpers(t *testing.T) {
	e := wifiLTE(4, 8, 0, 0)
	if e.PairDisparity() != 2 {
		t.Fatalf("disparity = %v, want 2", e.PairDisparity())
	}
	tie := wifiLTE(5, 5, 30*time.Millisecond, 60*time.Millisecond)
	if tie.Best() != "wifi" {
		t.Fatal("tie should prefer lower RTT (wifi)")
	}
	zero := wifiLTE(0, 5, 0, 0)
	if zero.PairDisparity() < 1e6 {
		t.Fatal("zero estimate should give infinite disparity")
	}
}

func TestEstimateEdgeCases(t *testing.T) {
	// Throughput tie broken by RTT regardless of estimate order.
	e := selector.Estimate{Paths: []selector.PathEstimate{
		{Name: "slowrtt", Mbps: 5, RTT: 80 * time.Millisecond},
		{Name: "fastrtt", Mbps: 5, RTT: 20 * time.Millisecond},
	}}
	if e.Best() != "fastrtt" {
		t.Fatalf("Best = %q, want fastrtt (RTT tie-break)", e.Best())
	}
	// Full tie falls back to estimate order.
	even := selector.Estimate{Paths: []selector.PathEstimate{
		{Name: "a", Mbps: 5, RTT: 20 * time.Millisecond},
		{Name: "b", Mbps: 5, RTT: 20 * time.Millisecond},
	}}
	if even.Best() != "a" {
		t.Fatalf("Best = %q, want first-listed path on full tie", even.Best())
	}
	// A zero-rate second path gives an infinite disparity...
	z := selector.Estimate{Paths: []selector.PathEstimate{
		{Name: "up", Mbps: 10},
		{Name: "dead", Mbps: 0},
	}}
	if z.PairDisparity() < 1e6 {
		t.Fatalf("disparity with dead path = %v, want huge", z.PairDisparity())
	}
	// ...and empty / single-path estimates never admit MPTCP.
	if (selector.Estimate{}).PairDisparity() < 1e6 || (selector.Estimate{}).Best() != "" {
		t.Fatal("empty estimate: want huge disparity and no best path")
	}
	one := selector.Estimate{Paths: []selector.PathEstimate{{Name: "only", Mbps: 7}}}
	if one.PairDisparity() < 1e6 {
		t.Fatal("single path: want a huge disparity")
	}
	if one.Best() != "only" {
		t.Fatalf("Best = %q, want only", one.Best())
	}
}

func TestEstimateNPathRanking(t *testing.T) {
	e := selector.Estimate{Paths: []selector.PathEstimate{
		{Name: "wlan-far", Mbps: 2, RTT: 55 * time.Millisecond},
		{Name: "lte-a", Mbps: 9, RTT: 60 * time.Millisecond},
		{Name: "lte-b", Mbps: 9, RTT: 45 * time.Millisecond},
		{Name: "wlan-near", Mbps: 12, RTT: 25 * time.Millisecond},
	}}
	want := []string{"wlan-near", "lte-b", "lte-a", "wlan-far"}
	for i, p := range e.Ranked() {
		if p.Name != want[i] {
			t.Fatalf("Ranked[%d] = %q, want %q", i, p.Name, want[i])
		}
	}
	if e.Best() != "wlan-near" {
		t.Fatalf("Best = %q", e.Best())
	}
	// The disparity compares only the two best paths, not the weak
	// fourth one.
	if d := e.PairDisparity(); d != 12.0/9 {
		t.Fatalf("PairDisparity = %v, want 12/9", d)
	}
	// A straggler path must not veto MPTCP over the two good paths.
	if !selector.Decide(e, 5<<20).UseMPTCP {
		t.Fatal("long flow over comparable best pair should use MPTCP")
	}
	cfg := ConfigFor(selector.Decide(e, 5<<20))
	if cfg.Transport != MPTCP || cfg.Primary != "wlan-near" {
		t.Fatalf("ConfigFor = %+v, want MPTCP primary wlan-near", cfg)
	}
	if selector.Decide(e, 10<<10).UseMPTCP {
		t.Fatal("short flow should stay single-path")
	}
}

func TestDeterministicSession(t *testing.T) {
	run := func() time.Duration {
		s := NewSession(9, cleanCond(7, 5))
		return s.Run(Config{Transport: MPTCP, Primary: "lte"}, Download, 1<<20).FCT
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
