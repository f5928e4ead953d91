// Package serve is the online path-selection service: the adaptive
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
// The steady-state request path is allocation-free: request bodies
// land in pooled scratch buffers, the flat JSON shapes are scanned by
// hand (json.go), decisions fill pooled selector.Decision values, and
// responses are appended into preallocated buffers. cmd/bench's
// serve/* benchmarks pin 0 allocs/query under the CI trajectory gate.
package serve

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multinet/internal/selector"
)

// maxBody bounds a request body; both request shapes fit in a few
// hundred bytes, so anything larger is a client bug or abuse.
const maxBody = 16 << 10

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
}

// Scratch is the pooled per-request state: the request buffer, the
// decision, and the response buffer. Handlers draw one per request;
// benchmarks (cmd/bench's serve/*) hold one per goroutine and call the
// *Bytes entry points directly.
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
		panic("serve: Config.Store is required")
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

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", s.handleDecide)
	mux.HandleFunc("POST /v1/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// Static response bodies (written verbatim; no per-request rendering).
var (
	errBadRequest   = []byte(`{"error":"bad request"}` + "\n")
	errUnknownSite  = []byte(`{"error":"unknown site"}` + "\n")
	okHealthz       = []byte(`{"ok":true}` + "\n")
	drainingHealthz = []byte(`{"ok":false,"draining":true}` + "\n")
)

// readBody fills sc.In with the request body, reusing its capacity.
func readBody(r *http.Request, sc *Scratch) bool {
	sc.In = sc.In[:0]
	for {
		if len(sc.In) >= maxBody {
			return false
		}
		if cap(sc.In) == len(sc.In) {
			sc.In = append(sc.In, 0)[:len(sc.In)]
		}
		n, err := r.Body.Read(sc.In[len(sc.In):cap(sc.In)])
		sc.In = sc.In[:len(sc.In)+n]
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	status := http.StatusBadRequest
	if readBody(r, sc) {
		status = s.DecideBytes(sc.In, sc)
	} else {
		sc.Out = append(sc.Out[:0], errBadRequest...)
	}
	writeJSON(w, status, sc.Out)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	status := http.StatusBadRequest
	if readBody(r, sc) {
		status = s.TelemetryBytes(sc.In, sc)
	} else {
		sc.Out = append(sc.Out[:0], errBadRequest...)
	}
	if status == http.StatusNoContent {
		w.WriteHeader(status)
		return
	}
	writeJSON(w, status, sc.Out)
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// DecideBytes is the decide hot path: parse the request from body,
// evaluate the store's policy, and render the decision into sc.Out.
// It returns the HTTP status (200, 400 or 404) and is allocation-free
// once sc is warm — the AllocsPerRun pin in serve_test.go and the
// serve/* benchmark gate enforce exactly this function.
//
//multinet:hotpath
func (s *Server) DecideBytes(body []byte, sc *Scratch) int {
	site, flowBytes, ok := scanDecide(body)
	if !ok {
		s.badRequests.Add(1)
		sc.Out = append(sc.Out[:0], errBadRequest...) //lint:allow hotpath malformed-request cold path; capacity is amortised by the pooled Scratch
		return http.StatusBadRequest
	}
	if !s.store.Decide(site, flowBytes, s.now(), &sc.Decision) {
		s.unknownSite.Add(1)
		sc.Out = append(sc.Out[:0], errUnknownSite...) //lint:allow hotpath unknown-site cold path; capacity is amortised by the pooled Scratch
		return http.StatusNotFound
	}
	s.decides.Add(1)
	s.renderDecision(sc, site)
	return http.StatusOK
}

// scanDecide reads a decide request: a non-empty site and a
// non-negative integer flow_bytes; other keys are skipped. ok is false
// for a malformed or incomplete body.
//
//multinet:hotpath
func scanDecide(body []byte) (site []byte, flowBytes int, ok bool) {
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
	site, path, mbps, rtt, ok := scanTelemetry(body)
	if !ok {
		s.badRequests.Add(1)
		sc.Out = append(sc.Out[:0], errBadRequest...) //lint:allow hotpath malformed-request cold path; capacity is amortised by the pooled Scratch
		return http.StatusBadRequest
	}
	s.store.Observe(site, path, mbps, rtt, s.now())
	s.telemetry.Add(1)
	return http.StatusNoContent
}

// maxRTTNanos is 2^63: an rtt_ms whose nanoseconds reach it does not
// fit a time.Duration.
const maxRTTNanos = float64(1 << 63)

// scanTelemetry reads a telemetry sample: a non-empty site and path, a
// non-negative mbps, and a non-negative rtt_ms that fits a
// time.Duration, returned converted; other keys are skipped. ok is
// false for a malformed or incomplete body.
//
//multinet:hotpath
func scanTelemetry(body []byte) (site, path []byte, mbps float64, rtt time.Duration, ok bool) {
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.StatsSnapshot()
	sc := s.GetScratch()
	defer s.PutScratch(sc)
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
	out = append(out, '}', '\n')
	sc.Out = out
	writeJSON(w, http.StatusOK, sc.Out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, drainingHealthz)
		return
	}
	writeJSON(w, http.StatusOK, okHealthz)
}

// SetDraining marks the server as draining (or clears the mark):
// health checks answer 503 so orchestrators stop routing new traffic,
// while the data endpoints keep serving whatever still arrives during
// the shutdown grace window.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports whether the server is in its shutdown drain window.
func (s *Server) Draining() bool { return s.draining.Load() }
