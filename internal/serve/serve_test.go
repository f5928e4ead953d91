package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multinet/internal/selector"
)

// fakeClock is the injected monotonic time source for decay tests.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

// testServer is a Server and the store it answers from.
type testServer struct {
	*Server
	store *selector.Store
}

func newTestServer(cfg selector.StoreConfig) (testServer, *fakeClock) {
	clk := &fakeClock{at: time.Second}
	store := selector.NewStore(cfg)
	return testServer{New(Config{Store: store, Now: clk.now}), store}, clk
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServeRoundTrip(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()

	if w := post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`); w.Code != http.StatusNoContent {
		t.Fatalf("telemetry status = %d, body %q", w.Code, w.Body.String())
	}
	if w := post(t, h, "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":10,"rtt_ms":45}`); w.Code != http.StatusNoContent {
		t.Fatalf("telemetry status = %d", w.Code)
	}

	w := post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":5242880}`)
	if w.Code != http.StatusOK {
		t.Fatalf("decide status = %d, body %q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`"site":"cdn"`,
		`"paths":["wifi","lte"]`,
		`"use_mptcp":true`,
		`"cc":"decoupled"`,
		`"scheduler":"minsrtt"`,
		`"rationale":"aggregate"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("decide body %q missing %q", body, want)
		}
	}

	// A short flow at the same site stays single-path.
	w = post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1024}`)
	if !strings.Contains(w.Body.String(), `"use_mptcp":false`) ||
		!strings.Contains(w.Body.String(), `"rationale":"short-flow"`) {
		t.Fatalf("short-flow body = %q", w.Body.String())
	}
}

func TestServeUnknownSiteAndBadRequests(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()

	if w := post(t, h, "/v1/decide", `{"site":"ghost","flow_bytes":1}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown site status = %d", w.Code)
	}
	for _, body := range []string{
		``,
		`not json`,
		`{"flow_bytes":1}`,              // missing site
		`{"site":"s"}`,                  // missing flow_bytes
		`{"site":"s","flow_bytes":-1}`,  // negative
		`{"site":"s","flow_bytes":1.5}`, // fractional
		`{"site":"s","flow_bytes":1,"x":{"y":1}}`, // nested value
	} {
		if w := post(t, h, "/v1/decide", body); w.Code != http.StatusBadRequest {
			t.Fatalf("decide(%q) status = %d, want 400", body, w.Code)
		}
	}
	for _, body := range []string{
		`{"site":"s","path":"wifi","mbps":-1,"rtt_ms":25}`,
		`{"site":"s","path":"wifi","rtt_ms":25}`,
		`{"site":"s","mbps":5,"rtt_ms":25}`,
	} {
		if w := post(t, h, "/v1/telemetry", body); w.Code != http.StatusBadRequest {
			t.Fatalf("telemetry(%q) status = %d, want 400", body, w.Code)
		}
	}
	// Method mismatches 405 via the Go 1.22 mux patterns.
	if w := get(t, h, "/v1/decide"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decide status = %d", w.Code)
	}

	st := s.StatsSnapshot()
	if st.UnknownSite != 1 || st.BadRequests != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeDecayUnderInjectedClock drives the service clock by hand:
// a path whose telemetry goes silent decays until the disparity gate
// flips the site from MPTCP to single-path on the fresh path.
func TestServeDecayUnderInjectedClock(t *testing.T) {
	s, clk := newTestServer(selector.StoreConfig{HalfLife: 10 * time.Second})
	h := s.Handler()

	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":8,"rtt_ms":20}`)
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":8,"rtt_ms":40}`)

	w := post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":5242880}`)
	if !strings.Contains(w.Body.String(), `"use_mptcp":true`) {
		t.Fatalf("fresh pair should use MPTCP: %q", w.Body.String())
	}

	// WiFi goes silent; LTE keeps reporting for 40 virtual seconds.
	for i := 0; i < 40; i++ {
		clk.at += time.Second
		post(t, h, "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":8,"rtt_ms":40}`)
	}
	w = post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":5242880}`)
	body := w.Body.String()
	if !strings.Contains(body, `"use_mptcp":false`) || !strings.Contains(body, `"paths":["lte","wifi"]`) {
		t.Fatalf("stale wifi should fall back to single-path lte: %q", body)
	}
	if !strings.Contains(body, `"rationale":"disparity"`) {
		t.Fatalf("rationale missing: %q", body)
	}
}

// TestServeShardIndependence holds one shard's lock and proves traffic
// for a site on another shard still completes through the HTTP layer.
func TestServeShardIndependence(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{Shards: 4})
	h := s.Handler()

	post(t, h, "/v1/telemetry", `{"site":"site-a","path":"wifi","mbps":5,"rtt_ms":20}`)
	post(t, h, "/v1/telemetry", `{"site":"site-b","path":"wifi","mbps":5,"rtt_ms":20}`)

	unlock, cross := s.store.LockSiteShard([]byte("site-a"), []byte("site-b"))
	if !cross {
		t.Skip("site-a and site-b hash to the same shard in this build")
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- post(t, h, "/v1/decide", `{"site":"site-b","flow_bytes":1048576}`)
	}()
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Errorf("cross-shard decide status = %d", w.Code)
		}
	case <-time.After(5 * time.Second):
		t.Error("decide on an unrelated shard blocked by a held lock")
	}
	unlock()
}

func TestServeStatsAndHealth(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{Shards: 8})
	h := s.Handler()
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":5,"rtt_ms":20}`)
	post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1048576}`)

	w := get(t, h, "/v1/healthz")
	if w.Code != http.StatusOK || w.Body.String() != `{"ok":true}`+"\n" {
		t.Fatalf("healthz = %d %q", w.Code, w.Body.String())
	}
	w = get(t, h, "/v1/stats")
	body := w.Body.String()
	for _, want := range []string{`"decides":1`, `"telemetry":1`, `"sites":1`, `"evicted":0`, `"shards":8`} {
		if !strings.Contains(body, want) {
			t.Fatalf("stats %q missing %q", body, want)
		}
	}
}

func TestServeDrainingHealth(t *testing.T) {
	// Graceful degradation: once shutdown begins, the health check
	// flips to 503/draining so balancers stop routing here, while the
	// data endpoints keep answering in-flight traffic.
	s, _ := newTestServer(selector.StoreConfig{Shards: 8})
	h := s.Handler()
	s.SetDraining(true)
	w := get(t, h, "/v1/healthz")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"draining":true`) {
		t.Fatalf("draining healthz = %d %q", w.Code, w.Body.String())
	}
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":5,"rtt_ms":20}`)
	w = post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1048576}`)
	if w.Code != http.StatusOK {
		t.Fatalf("decide while draining = %d, want 200", w.Code)
	}
	s.SetDraining(false)
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after drain cleared = %d", w.Code)
	}
}

func TestServeEscapedStrings(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()
	post(t, h, "/v1/telemetry", `{"site":"a\"b","path":"wifi","mbps":5,"rtt_ms":20}`)
	w := post(t, h, "/v1/decide", `{"site":"a\"b","flow_bytes":1048576}`)
	if w.Code != http.StatusOK {
		t.Fatalf("escaped site name round-trip failed: %d %q", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"site":"a\"b"`) {
		t.Fatalf("response did not re-escape the site name: %q", w.Body.String())
	}
	// \uXXXX escapes are outside the accepted subset.
	if w := post(t, h, "/v1/decide", `{"site":"a\u0062b","flow_bytes":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unicode escape accepted: %d", w.Code)
	}
}

// TestDecideBytesZeroAlloc pins the whole decide hot path — parse,
// store lookup with decay, policy, JSON render — at zero allocations
// in the steady state. This is the contract the serve/* bench gate
// holds in CI.
func TestDecideBytesZeroAlloc(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	sc := s.GetScratch()
	defer s.PutScratch(sc)

	tsc := s.GetScratch()
	s.TelemetryBytes(append(tsc.In[:0], `{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`...), tsc)
	s.TelemetryBytes(append(tsc.In[:0], `{"site":"cdn","path":"lte","mbps":10,"rtt_ms":45}`...), tsc)
	s.PutScratch(tsc)

	req := []byte(`{"site":"cdn","flow_bytes":5242880}`)
	body := make([]byte, len(req))
	if s.DecideBytes(append(body[:0], req...), sc) != http.StatusOK { // warm
		t.Fatalf("warmup decide failed: %q", sc.Out)
	}
	if n := testing.AllocsPerRun(500, func() {
		copy(body, req) // str() unescapes in place; restore the request
		if s.DecideBytes(body, sc) != http.StatusOK {
			t.Fatal("decide failed mid-measurement")
		}
	}); n != 0 {
		t.Fatalf("steady-state DecideBytes allocates %v/op, want 0", n)
	}
}

func TestTelemetryBytesZeroAllocSteadyState(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	req := []byte(`{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`)
	body := make([]byte, len(req))
	copy(body, req)
	if s.TelemetryBytes(body, sc) != http.StatusNoContent { // warm: interns site+path
		t.Fatal("warmup telemetry failed")
	}
	if n := testing.AllocsPerRun(500, func() {
		copy(body, req)
		if s.TelemetryBytes(body, sc) != http.StatusNoContent {
			t.Fatal("telemetry failed mid-measurement")
		}
	}); n != 0 {
		t.Fatalf("steady-state TelemetryBytes allocates %v/op, want 0", n)
	}
}

// TestServeRejectsNonFiniteTelemetry replays the samples that once
// poisoned a site: an mbps of 1e400 was stored as +Inf, the next finite
// sample turned it into NaN, and every later decide answered 200 with
// `"disparity":NaN` (not JSON) and an MPTCP verdict; an rtt_ms of 1e300
// overflowed into a negative RTT. Both now answer 400 and count as bad
// requests, and the site's decisions stay valid JSON.
func TestServeRejectsNonFiniteTelemetry(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()
	for _, body := range []string{
		`{"site":"x","path":"wifi","mbps":1e400,"rtt_ms":25}`,
		`{"site":"x","path":"wifi","mbps":5,"rtt_ms":1e300}`,
		`{"site":"x","path":"wifi","mbps":5,"rtt_ms":9223372036854.776}`, // 2^63 ns
	} {
		if w := post(t, h, "/v1/telemetry", body); w.Code != http.StatusBadRequest {
			t.Fatalf("telemetry(%s) status = %d, want 400", body, w.Code)
		}
	}
	if st := s.StatsSnapshot(); st.BadRequests != 3 || st.Sites != 0 {
		t.Fatalf("stats = %+v, want 3 bad requests and no site", st)
	}
	// The largest representable RTT is still accepted.
	if w := post(t, h, "/v1/telemetry", `{"site":"y","path":"wifi","mbps":5,"rtt_ms":9223372036854.77}`); w.Code != http.StatusNoContent {
		t.Fatalf("rtt_ms just inside the Duration range: status %d", w.Code)
	}
	if e, _ := s.store.Estimate("y", 0); e.Paths[0].RTT <= 0 {
		t.Fatalf("rtt_ms just inside the Duration range stored as %v", e.Paths[0].RTT)
	}

	post(t, h, "/v1/telemetry", `{"site":"x","path":"wifi","mbps":12,"rtt_ms":25}`)
	post(t, h, "/v1/telemetry", `{"site":"x","path":"lte","mbps":10,"rtt_ms":45}`)
	w := post(t, h, "/v1/decide", `{"site":"x","flow_bytes":5242880}`)
	var reply struct {
		Paths     []string `json:"paths"`
		UseMPTCP  bool     `json:"use_mptcp"`
		Disparity *float64 `json:"disparity"`
		Rationale string   `json:"rationale"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("decide reply %q is not JSON: %v", w.Body.String(), err)
	}
	if w.Code != http.StatusOK || reply.Disparity == nil || math.Abs(*reply.Disparity-1.2) > 1e-3 ||
		!reply.UseMPTCP || reply.Rationale != "aggregate" || len(reply.Paths) != 2 || reply.Paths[0] != "wifi" {
		t.Fatalf("decide = %d %q", w.Code, w.Body.String())
	}
}

// TestServeStrictScanner pins the scanner to its documented subset:
// each of these bodies once answered 204 or 200-with-404, and each is
// malformed JSON.
func TestServeStrictScanner(t *testing.T) {
	s, _ := newTestServer(selector.StoreConfig{})
	h := s.Handler()
	post(t, h, "/v1/telemetry", `{"site":"z","path":"wifi","mbps":5,"rtt_ms":25}`)
	for _, tc := range []struct{ path, body string }{
		{"/v1/telemetry", `{"site":"z" "path":"wifi","mbps":5,"rtt_ms":25}`},
		{"/v1/telemetry", `{"site":"z","path":"wifi","mbps":5,"rtt_ms":25,"x":nonsense}`},
		{"/v1/telemetry", `{"site":"z","path":"wifi","mbps":01,"rtt_ms":25}`},
		{"/v1/telemetry", `{"site":"z","path":"wifi","mbps":5,"rtt_ms":25}garbage`},
		{"/v1/telemetry", "{\"site\":\"z\x01\",\"path\":\"wifi\",\"mbps\":5,\"rtt_ms\":25}"},
		{"/v1/telemetry", "{\"site\":\"z\xff\",\"path\":\"wifi\",\"mbps\":5,\"rtt_ms\":25}"},
		{"/v1/telemetry", `{,"site":"z","path":"wifi","mbps":5,"rtt_ms":25}`},
		{"/v1/telemetry", `{"site":"z",,"path":"wifi","mbps":5,"rtt_ms":25}`},
		{"/v1/telemetry", `{"site":"z","path":"wifi","mbps":5,"rtt_ms":25,}`},
		{"/v1/telemetry", `{"site":"z","path":"wifi","mbps":5.,"rtt_ms":25}`},
		{"/v1/decide", `{"site":"z" "flow_bytes":1}`},
		{"/v1/decide", `{"site":"z","flow_bytes":1,"x":nonsense}`},
		{"/v1/decide", `{"site":"z","flow_bytes":1,"x":truex}`},
		{"/v1/decide", `{"site":"z","flow_bytes":01}`},
		{"/v1/decide", `{"site":"z","flow_bytes":1}}`},
		{"/v1/decide", "{\"site\":\"z\t\",\"flow_bytes\":1}"},
	} {
		if w := post(t, h, tc.path, tc.body); w.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: status %d, want 400", tc.path, tc.body, w.Code)
		}
	}
	// What the subset does accept, whitespace and unknown keys included.
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/telemetry", "\t{ \"site\" : \"z\" , \"path\":\"lte\",\"mbps\":0.5e1,\"rtt_ms\":0,\"a\":true,\"b\":null,\"c\":-1E-2 }\r\n", http.StatusNoContent},
		{"/v1/decide", `{"site":"z","flow_bytes":0,"d":false,"e":"\/"} `, http.StatusOK},
	} {
		if w := post(t, h, tc.path, tc.body); w.Code != tc.want {
			t.Fatalf("%s %q: status %d, want %d", tc.path, tc.body, w.Code, tc.want)
		}
	}
}

// TestServeEvictedSiteIsUnknown: a site silent for 2×StaleAfter is
// forgotten by the next sweep of its shard, answers 404 like a site
// never seen, and /v1/stats counts it as evicted.
func TestServeEvictedSiteIsUnknown(t *testing.T) {
	s, clk := newTestServer(selector.StoreConfig{Shards: 1, StaleAfter: 10 * time.Second})
	h := s.Handler()
	post(t, h, "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":5,"rtt_ms":20}`)
	clk.at += 20 * time.Second
	post(t, h, "/v1/telemetry", `{"site":"edge","path":"wifi","mbps":5,"rtt_ms":20}`)
	w := post(t, h, "/v1/decide", `{"site":"cdn","flow_bytes":1048576}`)
	if w.Code != http.StatusNotFound || w.Body.String() != `{"error":"unknown site"}`+"\n" {
		t.Fatalf("evicted site: %d %q", w.Code, w.Body.String())
	}
	body := get(t, h, "/v1/stats").Body.String()
	for _, want := range []string{`"unknown_site":1`, `"sites":1`, `"evicted":1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("stats %q missing %q", body, want)
		}
	}
}
