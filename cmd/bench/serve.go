package main

// Benchmarks for the online path-selection service (internal/serve/httpd).
// They drive the exported hot cores — DecideBytes/TelemetryBytes over
// pooled scratch — exactly as the connection loop does, so the serve/*
// entries in the baseline gate the full parse → sharded-store → policy
// → render path, allocs/op pinned at zero (serve/decide-parallel under
// RunParallel, at full concurrency); serve/conn-decide adds the loop's
// HTTP framing around it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve/httpd"
)

// benchClock is the fixed instant the serve benchmarks decay against:
// one second past the telemetry, a typical probe-to-decide gap.
const benchClock = 2 * time.Second

// newLoadedServer builds a server with `sites` sites of warmed two-path
// telemetry and returns prebuilt decide request bodies, one per site.
// None of the seeded names need JSON unescaping, so the bodies survive
// in-place parsing and can be replayed without restoring.
func newLoadedServer(sites int) (*httpd.Server, [][]byte) {
	store := selector.NewStore(selector.StoreConfig{})
	srv := httpd.New(httpd.Config{Store: store, Now: func() time.Duration { return benchClock }})
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

// memConn is an in-memory client connection: each Read delivers req
// once more until left requests have been read, then io.EOF, and each
// Write is a reply, counted in bad unless it is a 200. Deadlines are
// accepted and ignored.
type memConn struct {
	req       []byte
	left, bad int
	closed    chan struct{}
	closeOnce sync.Once
	net.Conn  // nil: the loop calls no other method
}

var replyOK = []byte("HTTP/1.1 200 OK\r\n")

func (c *memConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	c.left--
	return copy(p, c.req), nil
}

func (c *memConn) Write(p []byte) (int, error) {
	if !bytes.HasPrefix(p, replyOK) {
		c.bad++
	}
	return len(p), nil
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// memListener hands out one connection, then blocks until closed.
type memListener struct {
	conns     chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return &net.TCPAddr{} }

// serveConnDecide drives decides through Serve's connection loop: one
// in-memory keep-alive connection carries b.N requests, each read,
// framed, answered and written as over a socket, so it prices the
// loop's own work without the kernel's.
func serveConnDecide(b *testing.B) {
	srv, reqs := newLoadedServer(1)
	req := fmt.Appendf(nil, "POST /v1/decide HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(reqs[0]), reqs[0])
	c := &memConn{req: req, left: b.N, closed: make(chan struct{})}
	l := &memListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	l.conns <- c
	served := make(chan error, 1)
	b.ResetTimer()
	go func() { served <- srv.Serve(l) }()
	<-c.closed
	b.StopTimer()
	if err := srv.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := <-served; !errors.Is(err, httpd.ErrServerClosed) {
		b.Fatalf("Serve: %v", err)
	}
	if c.bad > 0 {
		b.Fatalf("%d of %d replies not 200", c.bad, b.N)
	}
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
		{"serve/conn-decide", serveConnDecide},
		{"selector/observe-new-site", observeNewSite},
	}
}
