// Package httpd is the online path-selection service: the adaptive
// selector of internal/selector behind an HTTP/JSON API, productising
// the paper's future-work policy ("which path(s), MPTCP or not, which
// scheduler?") the way a measurement-backed deployment would serve it
// to millions of clients (the "in the wild" regime of Mohan et al.,
// arXiv:1909.02601).
//
// Two POST endpoints carry the traffic:
//
//	POST /v1/telemetry  {"site":"s","path":"wifi","mbps":12.5,"rtt_ms":25}
//	POST /v1/decide     {"site":"s","flow_bytes":1048576}
//
// Telemetry feeds the sharded, exponentially-decayed estimate store;
// decide answers with the full selector.Decision (paths in preference
// order, UseMPTCP, coupling, scheduler, disparity and rationale).
// GET /v1/stats and GET /v1/healthz serve operations.
//
// Serve answers connections with the package's own HTTP/1.1 loop
// (conn.go), and the package imports no net/http: cmd/serve, built on
// it, links none of net/http's TLS, HTTP/2, compression and MIME
// dependencies. internal/serve adapts the same route table (Respond)
// to an http.Handler for in-process callers. The steady-state request
// path is allocation-free: request bodies land in pooled scratch
// buffers, the flat JSON shapes are scanned by hand (json.go),
// decisions fill pooled selector.Decision values, and responses are
// appended into preallocated buffers. cmd/bench's serve/* benchmarks
// pin 0 allocs/query under the CI trajectory gate.
package httpd

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multinet/internal/selector"
)

// MaxBody bounds a request body; both request shapes fit in a few
// hundred bytes, so anything larger is a client bug or abuse.
const MaxBody = 16 << 10

// Config assembles a Server.
type Config struct {
	// Store is the estimate state (required).
	Store *selector.Store
	// Now supplies the monotonic instant used for decay. Defaults to
	// time.Since of the server's construction.
	Now func() time.Duration
}

// Stats is the service's operational counter snapshot.
type Stats struct {
	Decides     uint64 `json:"decides"`
	Telemetry   uint64 `json:"telemetry"`
	UnknownSite uint64 `json:"unknown_site"`
	// BadRequests counts the requests answered 400.
	BadRequests uint64 `json:"bad_requests"`
	Sites       int    `json:"sites"`
	// Evicted counts the sites forgotten after 2×StaleAfter of silence.
	Evicted int `json:"evicted"`
	Shards  int `json:"shards"`
}

// Server is the HTTP face of the selector store. All exported methods
// are safe for concurrent use.
type Server struct {
	store *selector.Store
	now   func() time.Duration

	scratch sync.Pool // *Scratch

	decides     atomic.Uint64
	telemetry   atomic.Uint64
	unknownSite atomic.Uint64
	badRequests atomic.Uint64

	// draining flips when graceful shutdown begins: /v1/healthz starts
	// answering 503 so load balancers pull the instance out of rotation
	// while in-flight requests finish.
	draining atomic.Bool

	// closing is set by Shutdown: every connection closes after the
	// reply it is writing, and an idle one at once.
	closing   atomic.Bool
	mu        sync.Mutex // guards listeners and conns
	listeners []net.Listener
	conns     map[*conn]struct{}
}

// Scratch is the pooled per-request state: the request buffer, the
// decision, and the response buffer. The connection loop and the
// net/http adapter draw one per request; benchmarks (cmd/bench's
// serve/*) hold one per goroutine and call the *Bytes entry points
// directly.
type Scratch struct {
	// In receives the request body (capacity reused across requests).
	In []byte
	// Out receives the rendered response body.
	Out []byte
	// Decision is filled by the decide path.
	Decision selector.Decision
}

// New builds a Server over the given store.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("httpd: Config.Store is required")
	}
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	s := &Server{store: cfg.Store, now: now}
	s.scratch.New = func() any {
		return &Scratch{In: make([]byte, 0, 512), Out: make([]byte, 0, 512)}
	}
	return s
}

// GetScratch draws a pooled Scratch (pair with PutScratch).
func (s *Server) GetScratch() *Scratch { return s.scratch.Get().(*Scratch) }

// PutScratch returns a Scratch to the pool.
func (s *Server) PutScratch(sc *Scratch) { s.scratch.Put(sc) }

// Static response bodies (written verbatim; no per-request rendering).
var (
	errBadRequest   = []byte(`{"error":"bad request"}` + "\n")
	errUnknownSite  = []byte(`{"error":"unknown site"}` + "\n")
	errNotFound     = []byte(`{"error":"not found"}` + "\n")
	errNotAllowed   = []byte(`{"error":"method not allowed"}` + "\n")
	okHealthz       = []byte(`{"ok":true}` + "\n")
	drainingHealthz = []byte(`{"ok":false,"draining":true}` + "\n")
)

// Reply is the route table's verdict on one request; the reply body is
// in the Scratch's Out.
type Reply struct {
	Status int
	// Allow is the Allow header of a 405.
	Allow string
	// Keep is true when the connection may carry another request: the
	// request named a route and a method it answers (a client asking
	// for anything else is not speaking this API) and its body was read.
	Keep bool
}

// Respond is the service's one route table: the connection loop and
// the net/http adapter both answer through it. body is the whole
// request body; the reply body is rendered into sc.Out and is empty for
// a 204. HEAD is answered as GET, and the caller drops the body.
func (s *Server) Respond(method, path, body []byte, sc *Scratch) Reply {
	get := string(method) == "GET" || string(method) == "HEAD"
	post := string(method) == "POST"
	switch string(path) {
	case "/v1/decide":
		if !post {
			return notAllowed(sc, "POST")
		}
		return Reply{Status: s.DecideBytes(body, sc), Keep: true}
	case "/v1/telemetry":
		if !post {
			return notAllowed(sc, "POST")
		}
		status := s.TelemetryBytes(body, sc)
		if status == statusNoContent {
			sc.Out = sc.Out[:0]
		}
		return Reply{Status: status, Keep: true}
	case "/v1/stats":
		if !get {
			return notAllowed(sc, "GET, HEAD")
		}
		s.renderStats(sc)
		return Reply{Status: statusOK, Keep: true}
	case "/v1/healthz":
		if !get {
			return notAllowed(sc, "GET, HEAD")
		}
		if s.draining.Load() {
			sc.Out = append(sc.Out[:0], drainingHealthz...)
			return Reply{Status: statusServiceUnavailable, Keep: true}
		}
		sc.Out = append(sc.Out[:0], okHealthz...)
		return Reply{Status: statusOK, Keep: true}
	}
	sc.Out = append(sc.Out[:0], errNotFound...)
	return Reply{Status: statusNotFound}
}

func notAllowed(sc *Scratch, allow string) Reply {
	sc.Out = append(sc.Out[:0], errNotAllowed...)
	return Reply{Status: statusMethodNotAllowed, Allow: allow}
}

// BadBody answers a request whose body is too large or cannot be read:
// 400, counted as a bad request.
func (s *Server) BadBody(sc *Scratch) Reply {
	s.badRequests.Add(1)
	sc.Out = append(sc.Out[:0], errBadRequest...)
	return Reply{Status: statusBadRequest}
}

// DecideBytes is the decide hot path: parse the request from body,
// evaluate the store's policy, and render the decision into sc.Out.
// It returns the HTTP status (200, 400 or 404) and is allocation-free
// once sc is warm — the AllocsPerRun pin in internal/serve's tests and the
// serve/* benchmark gate enforce exactly this function.
//
//multinet:hotpath
func (s *Server) DecideBytes(body []byte, sc *Scratch) int {
	site, flowBytes, ok := ScanDecide(body)
	if !ok {
		s.badRequests.Add(1)
		sc.Out = append(sc.Out[:0], errBadRequest...) //lint:allow hotpath malformed-request cold path; capacity is amortised by the pooled Scratch
		return statusBadRequest
	}
	if !s.store.Decide(site, flowBytes, s.now(), &sc.Decision) {
		s.unknownSite.Add(1)
		sc.Out = append(sc.Out[:0], errUnknownSite...) //lint:allow hotpath unknown-site cold path; capacity is amortised by the pooled Scratch
		return statusNotFound
	}
	s.decides.Add(1)
	s.renderDecision(sc, site)
	return statusOK
}

// ScanDecide reads a decide request: a non-empty site and a
// non-negative integer flow_bytes; other keys are skipped. ok is false
// for a malformed or incomplete body. Strings are unescaped in place,
// so body is overwritten and site points into it.
//
//multinet:hotpath
func ScanDecide(body []byte) (site []byte, flowBytes int, ok bool) {
	flowBytes = -1
	scan := newJSONScan(body)
	for {
		key, more := scan.next()
		if !more {
			break
		}
		switch {
		case keyIs(key, "site"):
			site, more = scan.str()
		case keyIs(key, "flow_bytes"):
			flowBytes, more = scan.intNum()
		default:
			scan.skipValue()
		}
		if !more || scan.err {
			break
		}
	}
	return site, flowBytes, !scan.err && len(site) > 0 && flowBytes >= 0
}

// renderDecision appends the decision JSON to sc.Out.
//
//multinet:hotpath
func (s *Server) renderDecision(sc *Scratch, site []byte) {
	d := &sc.Decision
	out := sc.Out[:0]
	out = append(out, `{"site":`...)
	out = appendJSONString(out, string(site)) //lint:allow hotpath the conversion is stack-allocated: appendJSONString does not retain its argument
	out = append(out, `,"paths":[`...)
	for i, p := range d.Paths {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendJSONString(out, p)
	}
	out = append(out, `],"use_mptcp":`...)
	if d.UseMPTCP {
		out = append(out, "true"...)
		out = append(out, `,"cc":`...)
		out = appendJSONString(out, d.CC.String())
		out = append(out, `,"scheduler":`...)
		out = appendJSONString(out, d.Scheduler)
	} else {
		out = append(out, "false"...)
	}
	out = append(out, `,"disparity":`...)
	// An undefined disparity (single path, dead path) serialises as
	// null rather than the sentinel's nonsense magnitude.
	if d.PairDisparity >= 1e8 {
		out = append(out, "null"...)
	} else {
		out = appendFloat(out, d.PairDisparity)
	}
	out = append(out, `,"rationale":`...)
	out = appendJSONString(out, d.Rationale)
	out = append(out, '}', '\n')
	sc.Out = out
}

// TelemetryBytes is the ingest hot path: parse one sample and fold it
// into the store. Returns 204 on success, 400 on a malformed body.
// Allocation-free once the store's arrays have grown: the store copies
// a new site's name into its key bytes and interns a path name once
// per shard.
//
//multinet:hotpath
func (s *Server) TelemetryBytes(body []byte, sc *Scratch) int {
	site, path, mbps, rtt, ok := ScanTelemetry(body)
	if !ok {
		s.badRequests.Add(1)
		sc.Out = append(sc.Out[:0], errBadRequest...) //lint:allow hotpath malformed-request cold path; capacity is amortised by the pooled Scratch
		return statusBadRequest
	}
	s.store.Observe(site, path, mbps, rtt, s.now())
	s.telemetry.Add(1)
	return statusNoContent
}

// maxRTTNanos is 2^63: an rtt_ms whose nanoseconds reach it does not
// fit a time.Duration.
const maxRTTNanos = float64(1 << 63)

// ScanTelemetry reads a telemetry sample: a non-empty site and path, a
// non-negative mbps, and a non-negative rtt_ms that fits a
// time.Duration, returned converted; other keys are skipped. ok is
// false for a malformed or incomplete body. Like ScanDecide, it
// unescapes strings in place.
//
//multinet:hotpath
func ScanTelemetry(body []byte) (site, path []byte, mbps float64, rtt time.Duration, ok bool) {
	mbps, rttMS := -1.0, -1.0
	scan := newJSONScan(body)
	for {
		key, more := scan.next()
		if !more {
			break
		}
		switch {
		case keyIs(key, "site"):
			site, more = scan.str()
		case keyIs(key, "path"):
			path, more = scan.str()
		case keyIs(key, "mbps"):
			mbps, more = scan.num()
		case keyIs(key, "rtt_ms"):
			rttMS, more = scan.num()
		default:
			scan.skipValue()
		}
		if !more || scan.err {
			break
		}
	}
	ns := rttMS * float64(time.Millisecond)
	if scan.err || len(site) == 0 || len(path) == 0 || mbps < 0 || rttMS < 0 || ns >= maxRTTNanos {
		return nil, nil, 0, 0, false
	}
	return site, path, mbps, time.Duration(ns), true
}

// StatsSnapshot returns the current counters.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		Decides:     s.decides.Load(),
		Telemetry:   s.telemetry.Load(),
		UnknownSite: s.unknownSite.Load(),
		BadRequests: s.badRequests.Load(),
		Sites:       s.store.Sites(),
		Evicted:     s.store.Evicted(),
		Shards:      s.store.ShardCount(),
	}
}

// renderStats renders the counters into sc.Out.
func (s *Server) renderStats(sc *Scratch) {
	st := s.StatsSnapshot()
	out := sc.Out[:0]
	out = append(out, `{"decides":`...)
	out = strconv.AppendUint(out, st.Decides, 10)
	out = append(out, `,"telemetry":`...)
	out = strconv.AppendUint(out, st.Telemetry, 10)
	out = append(out, `,"unknown_site":`...)
	out = strconv.AppendUint(out, st.UnknownSite, 10)
	out = append(out, `,"bad_requests":`...)
	out = strconv.AppendUint(out, st.BadRequests, 10)
	out = append(out, `,"sites":`...)
	out = strconv.AppendInt(out, int64(st.Sites), 10)
	out = append(out, `,"evicted":`...)
	out = strconv.AppendInt(out, int64(st.Evicted), 10)
	out = append(out, `,"shards":`...)
	out = strconv.AppendInt(out, int64(st.Shards), 10)
	sc.Out = append(out, '}', '\n')
}

// SetDraining marks the server as draining (or clears the mark):
// health checks answer 503 so orchestrators stop routing new traffic,
// while the data endpoints keep serving whatever still arrives during
// the shutdown grace window.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }
