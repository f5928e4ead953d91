package selector

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func testStore(cfg StoreConfig) *Store {
	return NewStore(cfg)
}

func TestStoreObserveDecideRoundTrip(t *testing.T) {
	st := testStore(StoreConfig{})
	at := time.Second
	st.Observe([]byte("site-1"), []byte("wifi"), 6, 20*time.Millisecond, at)
	st.Observe([]byte("site-1"), []byte("lte"), 5, 40*time.Millisecond, at)

	var d Decision
	if !st.Decide([]byte("site-1"), 5<<20, at, &d) {
		t.Fatal("known site reported unknown")
	}
	if !d.UseMPTCP || d.Primary() != "wifi" {
		t.Fatalf("decision = %+v, want MPTCP wifi-primary", d)
	}
	if st.Decide([]byte("site-2"), 5<<20, at, &d) {
		t.Fatal("unknown site reported known")
	}
}

// TestStoreEWMAConverges holds the blend to the fixed 0.3 gain: from a
// first sample of 0 Mbit/s and 0 ms, each sample of 10 Mbit/s and 20 ms
// at the same instant (so nothing decays) closes 30 % of the remaining
// gap, bit for bit as the formula computes it, and 20 samples come
// within 0.1 % of the target.
func TestStoreEWMAConverges(t *testing.T) {
	st := testStore(StoreConfig{})
	at := time.Second
	st.Observe([]byte("s"), []byte("wifi"), 0, 0, at)
	var mbps float64
	var rtt time.Duration
	for i := 1; i <= 20; i++ {
		st.Observe([]byte("s"), []byte("wifi"), 10, 20*time.Millisecond, at)
		mbps += 0.3 * (10 - mbps)
		rtt += time.Duration(0.3 * float64(20*time.Millisecond-rtt))
		e, ok := st.Estimate("s", at)
		if !ok {
			t.Fatal("site missing")
		}
		if p := e.Paths[0]; p.Mbps != mbps || p.RTT != rtt {
			t.Fatalf("after %d samples of 10 Mbit/s, 20 ms: %v Mbit/s, %v; want %v, %v at gain 0.3", i, p.Mbps, p.RTT, mbps, rtt)
		}
		if i == 1 && mbps != 3 {
			t.Fatalf("one sample of 10 over 0 = %v, want 3", mbps)
		}
	}
	if mbps < 9.99 || mbps > 10 {
		t.Fatalf("EWMA after 20 samples of 10 = %v, want near 10", mbps)
	}
}

// TestStoreDecayUnderInjectedClock drives the decay model with
// explicit instants: after one half-life of silence the estimate is
// worth half, and a silent path eventually flips the MPTCP gate off.
func TestStoreDecayUnderInjectedClock(t *testing.T) {
	half := 10 * time.Second
	st := testStore(StoreConfig{HalfLife: half})
	at := time.Second
	st.Observe([]byte("s"), []byte("wifi"), 8, 20*time.Millisecond, at)
	st.Observe([]byte("s"), []byte("lte"), 8, 40*time.Millisecond, at)

	e, _ := st.Estimate("s", at+half)
	if m := e.Mbps("wifi"); m < 3.99 || m > 4.01 {
		t.Fatalf("after one half-life: %v, want 4", m)
	}

	// Both silent: they decay together, disparity stays 1, MPTCP holds.
	var d Decision
	st.Decide([]byte("s"), 5<<20, at+2*half, &d)
	if !d.UseMPTCP {
		t.Fatal("uniform decay must not flip the gate")
	}

	// Keep LTE fresh while WiFi goes silent: disparity opens past the
	// bound (factor 4 at two half-lives plus the refresh gain) and the
	// decision falls back to single-path on the fresh path.
	for i := time.Duration(1); i <= 40; i++ {
		st.Observe([]byte("s"), []byte("lte"), 8, 40*time.Millisecond, at+i*time.Second)
	}
	st.Decide([]byte("s"), 5<<20, at+40*time.Second, &d)
	if d.UseMPTCP {
		t.Fatalf("stale wifi should fail the disparity gate: %+v", d)
	}
	if d.Primary() != "lte" {
		t.Fatalf("primary = %q, want the fresh path", d.Primary())
	}
	if d.Rationale != RationaleDisparity {
		t.Fatalf("rationale = %q", d.Rationale)
	}
}

func TestStoreOutOfOrderTelemetryClamps(t *testing.T) {
	st := testStore(StoreConfig{})
	st.Observe([]byte("s"), []byte("wifi"), 10, 20*time.Millisecond, 10*time.Second)
	// A sample time-stamped before the last one must not inflate the
	// estimate through a negative-age anti-decay.
	st.Observe([]byte("s"), []byte("wifi"), 10, 20*time.Millisecond, 5*time.Second)
	e, _ := st.Estimate("s", 10*time.Second)
	if m := e.Mbps("wifi"); m > 10.001 {
		t.Fatalf("out-of-order sample inflated estimate to %v", m)
	}
}

func TestStoreShardIndependence(t *testing.T) {
	st := testStore(StoreConfig{})
	if st.ShardCount() != 64 {
		t.Fatalf("shards = %d", st.ShardCount())
	}
	// Two sites on different shards.
	a, b := st.onShard(0, "site-a"), st.onShard(1, "site-b")
	// Hold one shard's lock; the other site's traffic must proceed.
	sh := st.shardOf([]byte(a))
	sh.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Observe([]byte(b), []byte("wifi"), 5, 0, time.Second)
		var d Decision
		st.Decide([]byte(b), 1<<10, time.Second, &d)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cross-shard traffic blocked by a held shard lock")
	}
	sh.mu.Unlock()
}

func TestStoreSites(t *testing.T) {
	st := testStore(StoreConfig{})
	for i := 0; i < 10; i++ {
		st.Observe([]byte(fmt.Sprintf("site-%d", i)), []byte("wifi"), 5, 0, time.Second)
	}
	if st.Sites() != 10 {
		t.Fatalf("Sites = %d", st.Sites())
	}
	names := st.SiteNames()
	if len(names) != 10 || names[0] != "site-0" || names[9] != "site-9" {
		t.Fatalf("SiteNames = %v", names)
	}
}

func TestStoreConcurrentTraffic(t *testing.T) {
	st := testStore(StoreConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := []byte(fmt.Sprintf("site-%d", g%4))
			var d Decision
			for i := 0; i < 2000; i++ {
				at := time.Duration(i) * time.Millisecond
				st.Observe(site, []byte("wifi"), 6, 20*time.Millisecond, at)
				st.Observe(site, []byte("lte"), 5, 40*time.Millisecond, at)
				st.Decide(site, 5<<20, at, &d)
			}
		}(g)
	}
	wg.Wait()
	if st.Sites() != 4 {
		t.Fatalf("Sites = %d, want 4", st.Sites())
	}
}

// TestStoreConcurrentSweeps runs telemetry and decides from several
// goroutines on shared shards, each on its own clock, so that sweeps
// evict and compact under the traffic (a goroutine far ahead forgets
// the sites of one far behind). Every name is on one of four shards, so
// each shard takes the traffic of every goroutine. Every answer must be
// a site's own, and afterwards every site listed must still be whole.
func TestStoreConcurrentSweeps(t *testing.T) {
	st := testStore(StoreConfig{HalfLife: 100 * time.Millisecond, StaleAfter: time.Second})
	const steps = 3000
	keep := make([][]byte, 8)
	churn := make([][][]byte, len(keep))
	for g := range keep {
		keep[g] = []byte(st.onShard(g%4, fmt.Sprintf("keep-%d", g)))
		for i := 0; i < steps; i++ {
			churn[g] = append(churn[g], []byte(st.onShard((g+i)%4, fmt.Sprintf("churn-%d-%d", g, i))))
		}
	}
	var wg sync.WaitGroup
	for g := range keep {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var d Decision
			keep := keep[g]
			for i := 0; i < steps; i++ {
				at := time.Duration(i) * time.Duration(g+1) * 5 * time.Millisecond
				st.Observe(keep, []byte("wifi"), 6, 20*time.Millisecond, at)
				st.Observe(churn[g][i], []byte("lte"), 5, 40*time.Millisecond, at)
				if st.Decide(keep, 5<<20, at, &d) && (len(d.Paths) != 1 || d.Paths[0] != "wifi") {
					t.Errorf("goroutine %d step %d: decision %+v", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	names := st.SiteNames()
	if st.Evicted() == 0 || len(names) != st.Sites() {
		t.Fatalf("%d names for %d sites, %d evicted", len(names), st.Sites(), st.Evicted())
	}
	for _, name := range names {
		e, ok := st.Estimate(name, 0)
		want := map[bool]string{true: "wifi", false: "lte"}[strings.HasPrefix(name, "keep-")]
		if !ok || len(e.Paths) != 1 || e.Paths[0].Name != want {
			t.Fatalf("%s: %v %+v", name, ok, e)
		}
	}
}

// TestStoreDecideZeroAlloc pins the steady-state decide path at zero
// allocations (the serve layer adds its parse/encode on top, pinned
// separately in internal/serve).
func TestStoreDecideZeroAlloc(t *testing.T) {
	st := testStore(StoreConfig{})
	site := []byte("site-1")
	st.Observe(site, []byte("wifi"), 6, 20*time.Millisecond, time.Second)
	st.Observe(site, []byte("lte"), 5, 40*time.Millisecond, time.Second)
	var d Decision
	st.Decide(site, 5<<20, time.Second, &d) // warm the scratch
	if n := testing.AllocsPerRun(200, func() {
		st.Decide(site, 5<<20, 2*time.Second, &d)
	}); n != 0 {
		t.Fatalf("steady-state Decide allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		st.Observe(site, []byte("wifi"), 6, 20*time.Millisecond, 3*time.Second)
	}); n != 0 {
		t.Fatalf("steady-state Observe allocates %v/op", n)
	}
}

// TestStoreStaleTelemetryFloor pins the staleness floor: once every
// path of a site has been silent for StaleAfter, Decide keeps the
// remembered ranking but degrades to single-path TCP with the
// wire-stable "stale-telemetry" rationale. One fresh path is enough to
// keep the floor from tripping.
func TestStoreStaleTelemetryFloor(t *testing.T) {
	if RationaleStaleTelemetry != "stale-telemetry" {
		t.Fatalf("RationaleStaleTelemetry = %q; the slug is wire-stable", RationaleStaleTelemetry)
	}
	half := 10 * time.Second
	st := testStore(StoreConfig{HalfLife: half, StaleAfter: 4 * half})
	if got := st.staleAfter; got != 4*half {
		t.Fatalf("staleAfter = %v, want %v", got, 4*half)
	}
	at := time.Second
	st.Observe([]byte("s"), []byte("wifi"), 8, 20*time.Millisecond, at)
	st.Observe([]byte("s"), []byte("lte"), 8, 40*time.Millisecond, at)

	var d Decision
	// Just under the floor: still a live estimate, MPTCP allowed.
	if !st.Decide([]byte("s"), 5<<20, at+4*half-time.Millisecond, &d) {
		t.Fatal("known site reported unknown")
	}
	if d.Rationale == RationaleStaleTelemetry {
		t.Fatalf("rationale %q just under the floor", d.Rationale)
	}
	// At the floor: degraded single-path decision, ranking preserved.
	if !st.Decide([]byte("s"), 5<<20, at+4*half, &d) {
		t.Fatal("known site reported unknown")
	}
	if d.UseMPTCP || d.Rationale != RationaleStaleTelemetry {
		t.Fatalf("at the floor: UseMPTCP=%v rationale=%q, want degraded stale-telemetry", d.UseMPTCP, d.Rationale)
	}
	if d.Scheduler != "" {
		t.Fatalf("degraded decision kept scheduler %q", d.Scheduler)
	}
	if d.Primary() != "wifi" {
		t.Fatalf("degraded primary = %q, want the remembered best path", d.Primary())
	}
	// One fresh path resets the floor for the whole site.
	st.Observe([]byte("s"), []byte("lte"), 8, 40*time.Millisecond, at+4*half)
	if !st.Decide([]byte("s"), 5<<20, at+4*half, &d) {
		t.Fatal("known site reported unknown")
	}
	if d.Rationale == RationaleStaleTelemetry {
		t.Fatal("floor tripped with one fresh path")
	}
}

// TestStoreForcedCollision inserts sites under one hash value through
// the hashed entry points: every site has the same tag and the same
// home slot, so each lookup probes past the others and must tell them
// apart by their key bytes, and the index grows (from 8 slots) with
// nothing but collisions in it. A sweep then drops half of them and
// re-indexes the rest under their real hashes.
func TestStoreForcedCollision(t *testing.T) {
	st := testStore(StoreConfig{HalfLife: time.Second, StaleAfter: 10 * time.Second})
	const h = 0x5eed
	// After the sweep the sites are found by their real hashes, which
	// must pick the shard the forced one did.
	shard := int(h % shardCount)
	var names []string
	for i := 0; i < 12; i++ {
		names = append(names, st.onShard(shard, fmt.Sprintf("site-%d%s", i, strings.Repeat("-", i))))
	}
	for i, name := range names {
		at := 10 * time.Second // sweeps the empty shard once, at the first sample
		if i%2 == 1 {
			at += 10 * time.Second // the odd sites will outlive the next sweep
		}
		st.observe(h, []byte(name), []byte("wifi"), float64(10+i), 20*time.Millisecond, at)
		st.observe(h, []byte(name), []byte("lte"), float64(20+i), 40*time.Millisecond, at)
	}
	st.observe(h, []byte(names[1]), []byte("wifi"), 50, 20*time.Millisecond, 20*time.Second)
	sh := &st.shards[shard]
	if st.Sites() != len(names) || sh.index.n != len(names) || len(sh.index.slots) != 16 {
		t.Fatalf("Sites %d, index %d of %d slots: want %d sites in 16 slots", st.Sites(), sh.index.n, len(sh.index.slots), len(names))
	}
	at := 20 * time.Second
	for i, name := range names {
		e, ok := st.estimate(h, name, at)
		if !ok || len(e.Paths) != 2 || e.Paths[0].Name != "wifi" || e.Paths[1].Name != "lte" {
			t.Fatalf("%s: estimate %v %+v", name, ok, e)
		}
		var d Decision
		if !st.decide(h, []byte(name), 5<<20, at, &d) {
			t.Fatalf("%s: unknown", name)
		}
		// names[1]'s second wifi sample (50) lifts it past its lte.
		if want := map[bool]string{true: "wifi", false: "lte"}[i == 1]; d.Primary() != want {
			t.Fatalf("%s: decision %+v, want %s first", name, d, want)
		}
	}
	var d Decision
	// A prefix and an extension of a held name, a name never made, and
	// the empty name.
	for _, ghost := range []string{names[1][:len(names[1])-1], names[1] + "-", "site-12", ""} {
		if st.decide(h, []byte(ghost), 1, at, &d) {
			t.Fatalf("%q, never observed, matched a colliding site", ghost)
		}
	}
	// The even sites are 20 s silent at 30 s: the sweep drops them.
	st.Observe([]byte(st.onShard(shard, "trigger")), []byte("wifi"), 1, 0, 30*time.Second)
	for i, name := range names {
		if got := st.Decide([]byte(name), 5<<20, 30*time.Second, &d); got != (i%2 == 1) {
			t.Fatalf("%s after the sweep: known = %v", name, got)
		}
	}
	if st.Evicted() != len(names)/2 {
		t.Fatalf("Evicted = %d, want %d", st.Evicted(), len(names)/2)
	}
}

// sweepStore is a store whose sweeps are easy to schedule: StaleAfter
// is 10 s, so sites are forgotten 20 s after their newest sample. The
// sweep tests put all their sites on shard 0 (see onShard).
func sweepStore() *Store {
	return testStore(StoreConfig{HalfLife: 2 * time.Second, StaleAfter: 10 * time.Second})
}

// TestStoreEvictionHorizon pins the horizon to the nanosecond: a site
// whose newest sample is 2×StaleAfter − 1 ns old survives a sweep, and
// one 2×StaleAfter old is gone and answers unknown.
func TestStoreEvictionHorizon(t *testing.T) {
	const stale = 10 * time.Second
	for _, tc := range []struct {
		age       time.Duration
		survives  bool
		wantSites int
	}{
		{2*stale - 1, true, 2},
		{2 * stale, false, 1},
	} {
		st := sweepStore()
		old, nw := st.onShard(0, "old"), st.onShard(0, "new")
		t0 := stale // the first Observe at t0 sweeps an empty shard
		st.Observe([]byte(old), []byte("wifi"), 5, 20*time.Millisecond, t0)
		st.Observe([]byte(old), []byte("lte"), 5, 40*time.Millisecond, t0-time.Second)
		// Any sample StaleAfter after the last sweep sweeps the shard.
		st.Observe([]byte(nw), []byte("wifi"), 5, 20*time.Millisecond, t0+tc.age)
		var d Decision
		if got := st.Decide([]byte(old), 1, t0+tc.age, &d); got != tc.survives {
			t.Fatalf("age %v: Decide(old) = %v, want %v", tc.age, got, tc.survives)
		}
		if _, got := st.Estimate(old, t0+tc.age); got != tc.survives {
			t.Fatalf("age %v: Estimate(old) = %v, want %v", tc.age, got, tc.survives)
		}
		if st.Sites() != tc.wantSites || st.Sites()+st.Evicted() != 2 {
			t.Fatalf("age %v: Sites/Evicted = %d/%d", tc.age, st.Sites(), st.Evicted())
		}
	}
}

// TestStoreSweepAtMostOncePerStaleAfter: a sample less than StaleAfter
// after the last sweep does not sweep, however old the shard's sites.
func TestStoreSweepAtMostOncePerStaleAfter(t *testing.T) {
	const stale = 10 * time.Second
	st := sweepStore()
	a, b := []byte(st.onShard(0, "a")), []byte(st.onShard(0, "b"))
	st.Observe(a, []byte("wifi"), 5, 0, 0)
	st.Observe(b, []byte("wifi"), 5, 0, stale+time.Second) // sweeps at 11 s: a is 11 s old
	st.Observe(b, []byte("wifi"), 5, 0, 2*stale)           // 9 s after that sweep: none
	if st.Evicted() != 0 || st.Sites() != 2 {
		t.Fatalf("Sites/Evicted = %d/%d, want 2/0", st.Sites(), st.Evicted())
	}
	st.Observe(b, []byte("wifi"), 5, 0, 2*stale+time.Second) // sweeps at 21 s: a is 21 s old
	if st.Evicted() != 1 || st.Sites() != 1 {
		t.Fatalf("Sites/Evicted = %d/%d, want 1/1", st.Sites(), st.Evicted())
	}
}

// TestStoreSweepKeepsSurvivors interleaves the first telemetry of
// multi-path sites so their path chains cross in the shard's arrays,
// evicts every other site, and requires each survivor's decision and
// estimate to be bit-identical across the sweep. The evicted sites
// alone used two of the path names, which the sweep drops.
func TestStoreSweepKeepsSurvivors(t *testing.T) {
	const stale = 10 * time.Second
	st := sweepStore()
	paths := []string{"wifi", "lte", "wlan-2", "lte-b", "eth-0", "eth-1"}
	var sites []string
	for i := 0; i < 12; i++ {
		sites = append(sites, st.onShard(0, fmt.Sprintf("site-%d%s", i, strings.Repeat("x", i))))
	}
	t0 := stale
	// Round k reports path k of every site that has one; odd sites (to
	// be evicted) get all six paths, even ones three or four.
	for k := range paths {
		for i, site := range sites {
			width := 3 + i/2%2
			if i%2 == 1 {
				width = len(paths)
			}
			if k >= width {
				continue
			}
			at := t0 + time.Duration(k)*time.Millisecond
			if i%2 == 0 {
				at += stale // the survivors report again later
			}
			st.Observe([]byte(site), []byte(paths[k]), float64(1+(i*7+k*3)%5), time.Duration(10+k)*time.Millisecond, at)
		}
	}
	sh := &st.shards[0]
	if len(sh.names) != len(paths) {
		t.Fatalf("names = %v before the sweep", sh.names)
	}
	at := t0 + 2*stale + time.Second // odd sites are past the horizon, even ones not
	type snap struct {
		d Decision
		e Estimate
	}
	before := map[string]snap{}
	for i, site := range sites {
		if i%2 == 1 {
			continue
		}
		var s snap
		if !st.Decide([]byte(site), 5<<20, at, &s.d) {
			t.Fatalf("%s unknown before the sweep", site)
		}
		s.d.Paths = append([]string(nil), s.d.Paths...)
		s.e, _ = st.Estimate(site, at)
		before[site] = s
	}
	st.Observe([]byte(st.onShard(0, "trigger")), []byte("wifi"), 1, 0, at)
	if st.Evicted() != len(sites)/2 || st.Sites() != len(sites)/2+1 {
		t.Fatalf("Sites/Evicted = %d/%d after the sweep", st.Sites(), st.Evicted())
	}
	if len(sh.names) != 4 || sh.names[3] != "lte-b" {
		t.Fatalf("names = %v after the sweep, want the four the survivors use", sh.names)
	}
	for i, site := range sites {
		var d Decision
		ok := st.Decide([]byte(site), 5<<20, at, &d)
		if i%2 == 1 {
			if ok {
				t.Fatalf("evicted %s still decides", site)
			}
			continue
		}
		e, _ := st.Estimate(site, at)
		if want := before[site]; !ok || !sameDecision(&d, &want.d) || !sameEstimate(e, want.e) {
			t.Fatalf("%s across the sweep: %+v / %+v, want %+v / %+v", site, d, e, want.d, want.e)
		}
	}
	// The survivors keep updating in place, and new sites and paths land
	// after them.
	st.Observe([]byte(sites[0]), []byte("wifi"), 9, 0, at)
	st.Observe([]byte(sites[0]), []byte("eth-1"), 9, 0, at)
	e, _ := st.Estimate(sites[0], at)
	if n := len(e.Paths); n != 4 || e.Paths[3].Name != "eth-1" || e.Paths[0].Mbps == before[sites[0]].e.Paths[0].Mbps {
		t.Fatalf("survivor after the sweep: %+v", e.Paths)
	}
}

// TestStoreSweepZeroAlloc runs the steady state of a store under
// churn: every StaleAfter a new batch of sites arrives, the batch
// before it survives the sweep and the one before that is evicted. Once
// the arrays and the index have grown to that size, a whole cycle —
// sweep, compaction, new sites, new paths — allocates nothing.
func TestStoreSweepZeroAlloc(t *testing.T) {
	const stale = 10 * time.Second
	st := sweepStore()
	wifi, lte := []byte("wifi"), []byte("lte")
	// Three batches of names on shard 0, named ahead of the measured
	// cycles.
	var names [3][][]byte
	for b := range names {
		for i := 0; i < 300; i++ {
			names[b] = append(names[b], []byte(st.onShard(0, fmt.Sprintf("b%d-%d", b, i))))
		}
	}
	at, batch := time.Duration(0), 0
	cycle := func() {
		at += stale
		batch++
		for _, site := range names[batch%3] {
			st.Observe(site, wifi, 5, 20*time.Millisecond, at)
			st.Observe(site, lte, 4, 40*time.Millisecond, at)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	evicted := st.Evicted()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a churn cycle allocates %v times", n)
	}
	if st.Sites() != 600 || st.Evicted()-evicted != 21*300 {
		t.Fatalf("Sites/Evicted = %d/%d: the cycles did not sweep", st.Sites(), st.Evicted()-evicted)
	}
}

// TestStoreSitesAndEvictedAddUp feeds distinct sites over a long
// stretch of injected time across many shards: every site ever seen is
// either still held or counted as evicted.
func TestStoreSitesAndEvictedAddUp(t *testing.T) {
	st := testStore(StoreConfig{HalfLife: time.Second, StaleAfter: 4 * time.Second})
	for i := 0; i < 5000; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		st.Observe([]byte(fmt.Sprintf("site-%d", i)), []byte("wifi"), 5, 0, at)
	}
	if st.Evicted() == 0 || st.Sites()+st.Evicted() != 5000 {
		t.Fatalf("Sites + Evicted = %d + %d, want 5000 with some evicted", st.Sites(), st.Evicted())
	}
	if names := st.SiteNames(); len(names) != st.Sites() {
		t.Fatalf("SiteNames lists %d of %d sites", len(names), st.Sites())
	}
}

// TestStoreBytesPerSite pins the memory layout: 75,000 two-path sites
// cost at most 140 B each, in a number of heap objects bounded by the
// shard count, not the site count.
func TestStoreBytesPerSite(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 75,000 sites")
	}
	const sites = 75000
	wifi, lte := []byte("wifi"), []byte("lte")
	var buf [16]byte
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st := testStore(StoreConfig{})
	for i := 0; i < sites; i++ {
		site := strconv.AppendInt(append(buf[:0], "site-"...), int64(i), 10)
		st.Observe(site, wifi, 12.5, 25*time.Millisecond, time.Second)
		st.Observe(site, lte, 10, 45*time.Millisecond, time.Second)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perSite := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / sites
	objects := int64(m1.HeapObjects) - int64(m0.HeapObjects)
	t.Logf("%d sites: %.1f B/site, %d heap objects over %d shards", sites, perSite, objects, st.ShardCount())
	if perSite > 140 {
		t.Errorf("%.1f B/site, want <= 140", perSite)
	}
	if limit := int64(16 * st.ShardCount()); objects > limit {
		t.Errorf("%d heap objects, want <= %d (16 per shard)", objects, limit)
	}
	runtime.KeepAlive(st)
}

// TestStoreStaleAfterDefault pins the default floor at 8x the
// half-life.
func TestStoreStaleAfterDefault(t *testing.T) {
	st := testStore(StoreConfig{HalfLife: 5 * time.Second})
	if got := st.staleAfter; got != 40*time.Second {
		t.Fatalf("default StaleAfter = %v, want 8x half-life", got)
	}
	st = testStore(StoreConfig{})
	if got := st.staleAfter; got != 240*time.Second {
		t.Fatalf("zero-config StaleAfter = %v, want 240s", got)
	}
}
