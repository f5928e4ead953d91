package main

// Benchmarks for the online path-selection service (internal/serve).
// They drive the exported hot cores — DecideBytes/TelemetryBytes over
// pooled scratch — exactly as the HTTP handlers do, so the serve/*
// entries in the baseline gate the full parse → sharded-store → policy
// → render path, allocs/op pinned at zero (serve/decide-parallel under
// RunParallel, at full concurrency).

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve"
)

// benchClock is the fixed instant the serve benchmarks decay against:
// one second past the telemetry, a typical probe-to-decide gap.
const benchClock = 2 * time.Second

// newLoadedServer builds a server with `sites` sites of warmed two-path
// telemetry and returns prebuilt decide request bodies, one per site.
// None of the seeded names need JSON unescaping, so the bodies survive
// in-place parsing and can be replayed without restoring.
func newLoadedServer(sites int) (*serve.Server, [][]byte) {
	store := selector.NewStore(selector.StoreConfig{})
	srv := serve.New(serve.Config{Store: store, Now: func() time.Duration { return benchClock }})
	sc := srv.GetScratch()
	defer srv.PutScratch(sc)
	reqs := make([][]byte, sites)
	for i := 0; i < sites; i++ {
		site := fmt.Sprintf("site-%04d", i)
		for _, tel := range []string{
			fmt.Sprintf(`{"site":%q,"path":"wifi","mbps":12.5,"rtt_ms":25}`, site),
			fmt.Sprintf(`{"site":%q,"path":"lte","mbps":10,"rtt_ms":45}`, site),
		} {
			if srv.TelemetryBytes([]byte(tel), sc) != http.StatusNoContent {
				panic("bench: seeding telemetry failed")
			}
		}
		reqs[i] = []byte(fmt.Sprintf(`{"site":%q,"flow_bytes":5242880}`, site))
	}
	return srv, reqs
}

// serveDecide measures the decide hot path against a single warm site.
func serveDecide(b *testing.B) {
	srv, reqs := newLoadedServer(1)
	sc := srv.GetScratch()
	defer srv.PutScratch(sc)
	if srv.DecideBytes(reqs[0], sc) != http.StatusOK {
		b.Fatal("warmup decide failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.DecideBytes(reqs[0], sc) != http.StatusOK {
			b.Fatal("decide failed")
		}
	}
}

// serveDecideMultisite spreads decides over 1024 sites, exercising the
// shard hash and per-shard site maps the single-site benchmark keeps
// cache-resident.
func serveDecideMultisite(b *testing.B) {
	srv, reqs := newLoadedServer(1024)
	sc := srv.GetScratch()
	defer srv.PutScratch(sc)
	if srv.DecideBytes(reqs[0], sc) != http.StatusOK {
		b.Fatal("warmup decide failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.DecideBytes(reqs[i&1023], sc) != http.StatusOK {
			b.Fatal("decide failed")
		}
	}
}

// serveTelemetry measures the steady-state ingest path: the site and
// path already exist, so every sample hits the in-place EWMA branch.
func serveTelemetry(b *testing.B) {
	srv, _ := newLoadedServer(1)
	sc := srv.GetScratch()
	defer srv.PutScratch(sc)
	req := []byte(`{"site":"site-0000","path":"wifi","mbps":12.5,"rtt_ms":25}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.TelemetryBytes(req, sc) != http.StatusNoContent {
			b.Fatal("telemetry failed")
		}
	}
}

// serveDecideParallel runs the decide path from GOMAXPROCS goroutines
// over distinct sites — the contention profile of the real service,
// where the sharded store is the only shared state.
func serveDecideParallel(b *testing.B) {
	srv, reqs := newLoadedServer(64)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := srv.GetScratch()
		defer srv.PutScratch(sc)
		req := reqs[int(next.Add(1))&63]
		for pb.Next() {
			if srv.DecideBytes(req, sc) != http.StatusOK {
				b.Fatal("decide failed")
			}
		}
	})
}

// observeNewSite measures the store's insert path: every op is a site
// nobody has named before, reporting wifi and then lte, into a store
// already holding newSitePrefill sites, so what it pays is the shard
// arrays' and index's amortised growth and nothing per site. Every
// newSiteBatch ops the store is replaced, off the clock, to keep the
// benchmark's memory bounded.
func observeNewSite(b *testing.B) {
	const (
		newSitePrefill = 1 << 14
		newSiteBatch   = 1 << 16
	)
	wifi, lte := []byte("wifi"), []byte("lte")
	var buf [24]byte
	name := func(i int) []byte { return strconv.AppendInt(append(buf[:0], "site-"...), int64(i), 10) }
	var st *selector.Store
	fresh := func() {
		st = selector.NewStore(selector.StoreConfig{})
		for i := 0; i < newSitePrefill; i++ {
			st.Observe(name(i), wifi, 12.5, 25*time.Millisecond, time.Second)
			st.Observe(name(i), lte, 10, 45*time.Millisecond, time.Second)
		}
	}
	fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%newSiteBatch == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		site := name(newSitePrefill + i%newSiteBatch)
		st.Observe(site, wifi, 12.5, 25*time.Millisecond, time.Second)
		st.Observe(site, lte, 10, 45*time.Millisecond, time.Second)
	}
}

// serveBenchmarks is the service benchmark family: serve/* and the
// store's insert path under it.
func serveBenchmarks() []bench {
	return []bench{
		{"serve/decide", serveDecide},
		{"serve/decide-multisite", serveDecideMultisite},
		{"serve/decide-parallel", serveDecideParallel},
		{"serve/telemetry", serveTelemetry},
		{"selector/observe-new-site", observeNewSite},
	}
}
