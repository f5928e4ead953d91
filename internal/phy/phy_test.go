package phy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

func TestARRateSourceMeanRate(t *testing.T) {
	sim := simnet.New(1)
	src := NewARRateSource(sim, "r", 10, 0.3)
	// Count opportunities over 60 virtual seconds.
	n := 0
	var tm time.Duration
	for tm < 60*time.Second {
		tm = src.Next(tm)
		n++
	}
	gotMbps := float64(n) * netem.MTU * 8 / 60 / 1e6
	if gotMbps < 8 || gotMbps > 12 {
		t.Fatalf("mean opportunity rate %.2f Mbit/s, want ~10", gotMbps)
	}
}

func TestARRateSourceVariability(t *testing.T) {
	sim := simnet.New(2)
	src := NewARRateSource(sim, "r", 10, 0.5)
	// The per-epoch instantaneous rate should wander noticeably.
	var rates []float64
	for i := 0; i < 400; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		gap := src.Next(at) - at
		rates = append(rates, netem.MTU*8/gap.Seconds()/1e6)
	}
	min, max := rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max/min < 2 {
		t.Fatalf("rate range [%.2f, %.2f] too tight for variability 0.5", min, max)
	}
}

func TestARRateSourceDeterministic(t *testing.T) {
	run := func() []time.Duration {
		sim := simnet.New(7)
		src := NewARRateSource(sim, "r", 5, 0.4)
		var ts []time.Duration
		var tm time.Duration
		for i := 0; i < 200; i++ {
			tm = src.Next(tm)
			ts = append(ts, tm)
		}
		return ts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestARRateSourceMonotone(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		sim := simnet.New(seed)
		src := NewARRateSource(sim, "r", 8, 0.4)
		var tm time.Duration
		for i := 0; i < int(steps)+1; i++ {
			next := src.Next(tm)
			if next <= tm {
				return false
			}
			tm = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIfaceCarriesTraffic(t *testing.T) {
	sim := simnet.New(3)
	p := PathProfile{DownMbps: 8, UpMbps: 3, RTTms: 50, LossPct: 0.5, Variability: 0.3, QueuePkts: 100}
	iface := BuildIface(sim, "wifi", p)
	var downBytes int64
	iface.OnClientRecv(func(pk *netem.Packet) { downBytes += int64(pk.Size) })
	iface.OnServerRecv(func(pk *netem.Packet) {})
	// Offer 60 seconds of saturating downlink traffic (long enough to
	// average over the AR(1) rate process).
	var offer func()
	offer = func() {
		iface.SendDown(netem.MTU, nil)
		iface.SendDown(netem.MTU, nil)
		if sim.Now() < 60*time.Second {
			sim.Schedule(sim.Now()+time.Millisecond, offer)
		}
	}
	sim.Schedule(sim.Now(), offer)
	sim.Run()
	mbps := float64(downBytes) * 8 / sim.Now().Seconds() / 1e6
	if mbps < 6 || mbps > 10 {
		t.Fatalf("downlink carried %.2f Mbit/s, want ~8 (the profile mean)", mbps)
	}
}

func TestOWD(t *testing.T) {
	p := PathProfile{RTTms: 60}
	if got := p.OWD(); got != 30*time.Millisecond {
		t.Fatalf("OWD = %v, want 30ms", got)
	}
}

func TestLocationsTableShape(t *testing.T) {
	if len(Locations) != 20 {
		t.Fatalf("locations = %d, want 20 (paper Table 2)", len(Locations))
	}
	lteWins := 0
	lteRTTWins := 0
	for i, l := range Locations {
		if l.ID != i+1 {
			t.Fatalf("IDs must be 1..20 in order, got %d at %d", l.ID, i)
		}
		if l.WiFi.DownMbps <= 0 || l.LTE.DownMbps <= 0 {
			t.Fatalf("location %d has non-positive rates", l.ID)
		}
		if l.LTE.DownMbps > l.WiFi.DownMbps {
			lteWins++
		}
		if l.LTE.RTTms < l.WiFi.RTTms {
			lteRTTWins++
		}
	}
	// Calibration targets: 40% LTE throughput wins, 20% LTE RTT wins.
	if lteWins != 8 {
		t.Fatalf("LTE downlink wins at %d/20 sites, want 8 (40%%)", lteWins)
	}
	if lteRTTWins != 4 {
		t.Fatalf("LTE RTT wins at %d/20 sites, want 4 (20%%)", lteRTTWins)
	}
}

func TestLocationByIDPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown location")
		}
	}()
	LocationByID(99)
}

func TestRepresentativeLocations(t *testing.T) {
	if LocLTEMuchBetter.LTE.DownMbps < 3*LocLTEMuchBetter.WiFi.DownMbps {
		t.Fatal("LocLTEMuchBetter should have a large LTE advantage")
	}
	if LocWiFiBetter.WiFi.DownMbps <= LocWiFiBetter.LTE.DownMbps {
		t.Fatal("LocWiFiBetter should favour WiFi")
	}
	if len(CouplingStudyLocations) != 7 {
		t.Fatal("paper used 7 coupling-study locations")
	}
}

func TestRadios(t *testing.T) {
	c := RadioCalib{DownMbps: 10, UpMbps: 4, RTTms: 60, LossPct: 0.2, Variability: 0.25}
	w, l := WiFiRadio(c), LTERadio(c)
	if w.DownMbps != 10 || w.UpMbps != 4 || w.RTTms != 60 || w.LossPct != 0.2 || w.Variability != 0.25 || l != lte(10, 4, 60, 0.2, 0.25) {
		t.Fatalf("radios do not carry their calibration: wifi %+v, lte %+v", w, l)
	}
	if w.PromotionMs != 0 || l.PromotionMs <= 0 || l.QueuePkts <= w.QueuePkts {
		t.Fatalf("want a shallow, always-awake WiFi and a deep LTE buffer with RRC promotion: wifi %+v, lte %+v", w, l)
	}
}

func TestBuildHost(t *testing.T) {
	sim := simnet.New(5)
	loc := LocationByID(1)
	cond := loc.Condition()
	if cond.Name != "loc01" || len(cond.Paths) != 2 || cond.Paths[0] != (Path{Name: "wifi", Profile: loc.WiFi}) ||
		cond.Paths[1] != (Path{Name: "lte", Profile: loc.LTE}) {
		t.Fatalf("location condition = %+v, want loc01 with wifi then lte", cond)
	}
	if name := (Location{ID: 42}).Condition().Name; name != "loc42" {
		t.Fatalf("a location outside the table is named %q, want loc42", name)
	}
	h := BuildHost(sim, cond)
	if h.Iface("wifi") == nil || h.Iface("lte") == nil {
		t.Fatal("host missing interfaces")
	}
}

// refARSource is ARRateSource as it was while VarLink asked it one
// question per fired opportunity, in time order: the AR process advances
// lazily to the epoch of the latest question and only that epoch's gap
// is known. It is the reference the memoising source must reproduce
// draw for draw under monotone questions.
type refARSource struct {
	meanBps, sigma, rho float64
	epoch               time.Duration
	rng                 interface{ NormFloat64() float64 }
	logDev              float64
	lastEpoch           int64
}

func newRefARSource(sim *simnet.Sim, stream string, meanMbps, variability float64) *refARSource {
	return &refARSource{meanBps: meanMbps * 1e6, sigma: variability, rho: 0.9,
		epoch: 100 * time.Millisecond, rng: sim.RNG(stream)}
}

// Next evaluates the rate formula at every slot.
func (s *refARSource) Next(after time.Duration) time.Duration {
	for epoch := int64(after / s.epoch); s.lastEpoch < epoch; s.lastEpoch++ {
		innov := s.sigma * math.Sqrt(1-s.rho*s.rho)
		s.logDev = s.rho*s.logDev + innov*s.rng.NormFloat64()
	}
	r := s.meanBps * math.Exp(s.logDev-s.sigma*s.sigma/2)
	if min := s.meanBps * 0.05; r < min {
		r = min
	}
	gap := time.Duration(float64(netem.MTU*8) / r * float64(time.Second))
	if gap <= 0 {
		gap = time.Microsecond
	}
	return after + gap
}

// TestARRateSourceCachedGapMatchesFormula pins the per-epoch memo against
// the pre-memo source: walking slots across many epoch boundaries (and
// jumping over idle epochs, as a link that went quiet does), Next
// returns exactly what evaluating the rate formula at every slot
// returns, and both have drawn the same number of values from the
// stream when the walk ends.
func TestARRateSourceCachedGapMatchesFormula(t *testing.T) {
	for _, v := range []float64{0.15, 0.4, 0.9} {
		simC, simR := simnet.New(11), simnet.New(11)
		cached := NewARRateSource(simC, "r", 6, v)
		ref := newRefARSource(simR, "r", 6, v)
		var tc, tr time.Duration
		epochs := map[int64]bool{}
		for i := 0; i < 40000; i++ {
			if i%5000 == 4999 {
				// An idle stretch: the next slot is asked for well after
				// the last one, several epochs on.
				tc += 730 * time.Millisecond
				tr += 730 * time.Millisecond
			}
			tc = cached.Next(tc)
			tr = ref.Next(tr)
			if tc != tr {
				t.Fatalf("variability %v, slot %d: memo %v != reference %v", v, i, tc, tr)
			}
			epochs[int64(tc/cached.epoch)] = true
		}
		if len(epochs) < 100 {
			t.Fatalf("walk crossed only %d epochs", len(epochs))
		}
		if a, b := simC.RNG("r").Int63(), simR.RNG("r").Int63(); a != b {
			t.Fatalf("variability %v: streams left at different positions", v)
		}
	}
}
