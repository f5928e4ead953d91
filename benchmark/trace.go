package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a
// transfer cell, a replay, an experiment, an HTTP request) share Op;
// Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory and written out.
const maxSpans = 200000

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing and costs one comparison per call, which is how the
// timed runs keep tracing off.
type recorder struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int64
	nextOp  int64
	dropped int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op returns a fresh operation identifier.
func (r *recorder) op() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// count returns how many spans have been started.
func (r *recorder) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

// spanCostNS times recording one span, clock reads and lock included.
func spanCostNS() float64 {
	const n = 20000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.begin(r.op(), 0, "trace", "cost").end()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// openSpan is a started span; end closes it.
type openSpan struct {
	r      *recorder
	id     int64
	parent int64
	op     int64
	layer  string
	name   string
	start  time.Time
}

// begin starts a span. On a nil recorder it returns a span whose end
// does nothing.
func (r *recorder) begin(op, parent int64, layer, name string) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return openSpan{r: r, id: id, parent: parent, op: op, layer: layer, name: name, start: time.Now()}
}

// end closes the span.
func (s openSpan) end() {
	if s.r == nil {
		return
	}
	now := time.Now()
	r := s.r
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{
			ID: s.id, Parent: s.parent, Op: s.op, Layer: s.layer, Name: s.name,
			Start: s.start.Sub(r.t0).Nanoseconds(), End: now.Sub(r.t0).Nanoseconds(),
		})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// traceFile is the layout of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Dropped  int64             `json:"spans_dropped"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"spans"`
}

// write stores the spans and the per-layer table next to the benchmark.
func (r *recorder) write(cfg config, metrics map[string]metric) (string, error) {
	dir := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+cfg.workload+".json")
	r.mu.Lock()
	data, err := json.Marshal(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Dropped: r.dropped, Metrics: metrics, Spans: r.spans,
	})
	r.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
