// Command bench is the repository's exact allocs/op gate: it runs the
// benchmark suite outside `go test`, records ns/op, B/op and allocs/op
// per benchmark as a machine-readable report, and with -check fails
// when any benchmark allocates more than the committed baseline says.
// Wall time is reported and never gated — the hosts this runs on drift
// by more than any useful bound; `go run ./benchmark` (BENCHMARK.json)
// is where time is compared, in alternating pairs.
//
// These benchmark families run:
//
//   - scheduler micro-benchmarks (sched/*): the simnet timing-wheel
//     kernel alone — schedule/fire churn, cancel-heavy timer churn,
//     in-place re-arm churn, and scheduling against a deep pending set;
//   - kernel micro-benchmarks: TCP bulk transfers and MPTCP two-subflow
//     transfers over the simulated WiFi+LTE pair, the per-packet hot
//     path every experiment hammers, on constant-rate links and
//     (*-varlink) on the delivery-opportunity links every paper
//     condition uses;
//   - set-up micro-benchmarks: seeding one random stream (rng/seed), one
//     short app replay on a recycled world (world/replay-cnn-launch), the
//     24 differently shaped replays of one sweep location on one arena
//     (world/replay-recycled) and one transfer on a world built from
//     nothing (world/session-cold);
//   - service benchmarks (serve/*): the online path-selection service's
//     decide and telemetry hot cores over the sharded estimate store,
//     allocs/op pinned at zero;
//   - registry experiments: every harness in the engine registry at the
//     quick (test-sized) sweep options, the same set cmd/report runs.
//
// -serve-load switches the binary into a closed-loop load generator
// over the service instead (queries/s plus an allocs/query assertion);
// see runServeLoad.
//
// Usage:
//
//	bench [-out BENCH_report.json] [-baseline BENCH_baseline.json]
//	      [-check] [-rebase] [-count 5] [-benchtime 1s]
//	      [-only name[,name...]] [-skip-experiments]
//	      [-cpuprofile cpu.out] [-memprofile mem.out] [-diff compare.txt]
//
// -out writes the report (ns/op, B/op, allocs/op per benchmark).
// -baseline names the committed reference report. With -check, the run
// fails (exit 1) if any benchmark's allocs/op is above the baseline's.
// The gate can be exact because the count is: every benchmark releases its
// simulators, whose free lists make what an iteration allocates
// independent of the collector, and the count is taken in a pass of its
// own — a fixed number of iterations with the collector off — so the
// few objects the standard library re-allocates after a collection
// (fmt's printer pool) and the rounding of a time-chosen b.N stay out
// of it. `go test ./cmd/bench` fails when a benchmark has no baseline
// entry, so nothing runs ungated. With -rebase, the baseline file is
// rewritten from this run's results (commit it to accept a new floor).
// -only selects benchmarks by name.
//
// Each benchmark runs -count times for its ns/op, of which the minimum
// (the robust noise-resistant estimator) is reported, and once more,
// untimed, for B/op and allocs/op (see countAllocs).
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// benchmarks, for hunting the next hot spot without rebuilding the
// harness by hand. -diff writes a per-benchmark baseline-vs-run
// comparison table (the nightly workflow uploads it as an artifact).
//
// CI runs `bench -check` on every push and the nightly workflow uploads
// a baseline-vs-report comparison artifact; see .github/workflows/ and
// the "Benchmark trajectory" section of EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"multinet/internal/apps"
	"multinet/internal/core"
	"multinet/internal/experiments" // importing registers every harness
	"multinet/internal/experiments/engine"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/replay"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// Result is one benchmark measurement. EventsPerPacket is reported by
// the netem-driven transport benchmarks only: kernel events processed
// per packet carried.
type Result struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`

	EventsPerPacket float64 `json:"events_per_packet,omitempty"`
}

// Report is the serialised benchmark trajectory artifact.
type Report struct {
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	NumCPU  int      `json:"num_cpu"`
	Results []Result `json:"results"`
}

// bench is a named benchmark body.
type bench struct {
	name string
	fn   func(b *testing.B)
}

// nopEvent is the no-op body for pure scheduler benchmarks.
func nopEvent(any) {}

// netemMetrics accumulates simulator-level counters across a
// benchmark's iterations: kernel events processed and packets accepted
// onto any link.
type netemMetrics struct {
	events  uint64
	packets int64
}

// curMetrics, when non-nil, receives the counters of every transport
// benchmark iteration (the main loop points it at a fresh accumulator
// per benchmark).
var curMetrics *netemMetrics

func (m *netemMetrics) collect(sim *simnet.Sim, links ...netem.Link) {
	if m == nil {
		return
	}
	m.events += sim.Processed()
	for _, l := range links {
		m.packets += int64(l.Stats().Sent)
	}
}

// schedFireChurn measures the schedule+fire cycle with 64 event chains
// in flight: each fired event schedules its successor, the ACK-clocked
// steady state of every transport benchmark below. b.N counts fired
// events.
func schedFireChurn(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	fired := 0
	var step func(any)
	step = func(any) {
		fired++
		if fired < b.N {
			s.AfterArg(731*time.Microsecond, step, nil)
		}
	}
	for i := 0; i < 64 && i < b.N; i++ {
		s.AfterArg(time.Duration(i+1)*time.Microsecond, step, nil)
	}
	b.ResetTimer()
	s.Run()
	if fired < b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// schedCancelChurn measures the schedule+cancel cycle of a
// retransmission-timer workload: every op arms a timer ~200 ms out and
// stops it again, with a small set of live timers pending throughout.
func schedCancelChurn(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	for i := 0; i < 16; i++ {
		s.AfterArg(time.Duration(i+1)*time.Hour, nopEvent, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(200*time.Millisecond, nopEvent, nil).Stop()
	}
}

// schedRearmChurn is schedCancelChurn's workload done the way the
// transports now do it: every op pushes one pending timer's deadline
// out (an ACK moving the retransmission timer) with RearmArg, a field
// rewrite where the cancel+schedule pair unlinks, recycles and re-files.
// The clock follows in 100 ms strides so the wheel also pays the
// occasional re-file of the event's stale slot.
func schedRearmChurn(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	for i := 0; i < 16; i++ {
		s.AfterArg(time.Duration(i+1)*time.Hour, nopEvent, nil)
	}
	tm := s.AfterArg(200*time.Millisecond, nopEvent, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			s.RunFor(100 * time.Millisecond)
		}
		tm = s.RearmArg(tm, s.Now()+200*time.Millisecond+time.Duration(i%1024)*100*time.Microsecond, nopEvent, nil)
	}
}

// schedDeepPending measures schedule/fire cost with 64k long-lived
// timers pending while the measured chain schedules and fires through
// them — the depth at which a comparison-based queue pays O(log n) per
// event.
func schedDeepPending(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	// The deep set sits past any reachable horizon: the chain fires one
	// event per 5 µs, so even go-test's 1e9 iteration cap stays under
	// 84 min of virtual time, clear of the 2 h floor.
	const deep = 64 << 10
	for i := 0; i < deep; i++ {
		s.AfterArg(2*time.Hour+time.Duration(i)*time.Millisecond, nopEvent, nil)
	}
	fired := 0
	var step func(any)
	step = func(any) {
		fired++
		if fired < b.N {
			s.AfterArg(5*time.Microsecond, step, nil)
		}
	}
	s.AfterArg(time.Microsecond, step, nil)
	b.ResetTimer()
	s.RunUntil(time.Microsecond + time.Duration(b.N)*5*time.Microsecond)
	if fired < b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// benchIface builds a symmetric duplex interface of mbps and one-way
// delay owd: constant-rate links, or — with variability > 0 — phy's
// delivery-opportunity links around the same mean, the kind every paper
// condition runs on.
func benchIface(sim *simnet.Sim, name string, mbps float64, owd time.Duration, queue int, loss, variability float64) *netem.Iface {
	if variability > 0 {
		return phy.BuildIface(sim, name, phy.PathProfile{
			DownMbps: mbps, UpMbps: mbps, RTTms: 2 * float64(owd.Milliseconds()),
			LossPct: loss * 100, Variability: variability, QueuePkts: queue,
		})
	}
	cfg := func(dir string) netem.LinkConfig {
		lc := netem.LinkConfig{PropDelay: owd, LossProb: loss, QueueLimit: queue}
		if loss > 0 {
			// Seeding a PRNG stream costs ~10 µs; lossless links never
			// draw from it.
			lc.RNG = sim.RNG("loss/" + dir)
		}
		return lc
	}
	return netem.NewIface(sim, name, netem.NewFixedLink(sim, mbps, cfg("up")), netem.NewFixedLink(sim, mbps, cfg("down")))
}

// benchVariability is the log-rate stddev of the *-varlink entries, the
// middle of the 20 paper locations' range.
const benchVariability = 0.3

// tcpDownload transfers size bytes server→client over one duplex
// interface — the plain-TCP kernel hot path.
func tcpDownload(b *testing.B, size int, loss, variability float64) {
	for i := 0; i < b.N; i++ {
		sim := simnet.New(int64(i + 1))
		iface := benchIface(sim, "wifi", 20, 15*time.Millisecond, 200, loss, variability)
		client := tcp.NewStack(sim, tcp.ClientSide)
		server := tcp.NewStack(sim, tcp.ServerSide)
		client.Bind(iface)
		server.Bind(iface)
		var done bool
		server.Accept = func(c *tcp.Conn) {
			c.SetCallbacks(tcp.Callbacks{OnEstablished: func(c *tcp.Conn) {
				c.Send(size)
				c.Close()
			}})
		}
		client.Dial(iface, "bench", tcp.Config{Callbacks: tcp.Callbacks{
			OnData: func(c *tcp.Conn, total int64) { done = done || total >= int64(size) },
		}})
		sim.Run()
		if !done {
			b.Fatal("transfer incomplete")
		}
		curMetrics.collect(sim, iface.UpLink(), iface.DownLink())
		sim.Release()
	}
	b.SetBytes(int64(size))
}

// mptcpDownload transfers size bytes over a two-subflow MPTCP
// connection (10 Mbit/s 15 ms WiFi + 8 Mbit/s 30 ms LTE).
func mptcpDownload(b *testing.B, size int, cc mptcp.CongestionMode, variability float64) {
	for i := 0; i < b.N; i++ {
		sim := simnet.New(int64(i + 1))
		wifi := benchIface(sim, "wifi", 10, 15*time.Millisecond, 150, 0, variability)
		lte := benchIface(sim, "lte", 8, 30*time.Millisecond, 150, 0, variability)
		host := netem.NewHost("client")
		host.Attach(wifi)
		host.Attach(lte)
		client := tcp.NewStack(sim, tcp.ClientSide)
		server := tcp.NewStack(sim, tcp.ServerSide)
		for _, ifc := range []*netem.Iface{wifi, lte} {
			client.Bind(ifc)
			server.Bind(ifc)
		}
		srv := mptcp.NewServer(sim, server, mptcp.ServerConfig{CC: cc})
		srv.OnConn = func(c *mptcp.Conn) {
			c.Send(size)
			c.Close()
		}
		var done bool
		mptcp.Dial(sim, client, host, mptcp.Config{ConnID: "bench", Primary: "wifi", CC: cc},
			mptcp.Callbacks{OnData: func(c *mptcp.Conn, total int64) {
				done = done || total >= int64(size)
			}})
		sim.Run()
		if !done {
			b.Fatal("transfer incomplete")
		}
		curMetrics.collect(sim, wifi.UpLink(), wifi.DownLink(), lte.UpLink(), lte.DownLink())
		sim.Release()
	}
	b.SetBytes(int64(size))
}

// rngSeed measures seeding one random stream: a reseed and the first
// draw, which is when the generator's 607 words are actually filled. A
// short-lived world pays this once per stream it draws from.
func rngSeed(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	r := s.RNG("bench")
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		r.Int63()
	}
}

// replayCNNLaunch is one short-flow app replay, the unit of the paper's
// Section 5 sweeps: a world built (from the one the previous iteration
// released), run for a few hundred packets and released again.
func replayCNNLaunch(b *testing.B) {
	rec := replay.Record(apps.CNNLaunch)
	cond := phy.LocationByID(7).Condition()
	tc := replay.TransportConfig{Name: "MPTCP-Coupled-WiFi", Kind: replay.Multipath, Primary: "wifi", CC: mptcp.Coupled}
	for i := 0; i < b.N; i++ {
		if res := replay.Run(int64(i+1), cond, rec, tc); !res.Completed {
			b.Fatal("replay incomplete")
		}
	}
}

// replayRecycled is one location of the paper's Section 5 sweep in sweep
// order: the short-flow apps under the six transports, every world on the
// arena of a differently shaped one — TCP after MPTCP, five flows after
// twenty. It holds what a warm cell costs once an arena has seen the
// largest of them: the world's fixed frame and no handle, ring or table.
func replayRecycled(b *testing.B) {
	cond := phy.LocationByID(7).Condition()
	configs := replay.Configs(replay.WiFiLTEPaths())
	var recs []*replay.Recording
	for _, app := range apps.All {
		if !app.LongFlowDominated() {
			recs = append(recs, replay.Record(app))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a, rec := range recs {
			for c, tc := range configs {
				if res := replay.Run(int64(100*a+c+1), cond, rec, tc); !res.Completed {
					b.Fatal("replay incomplete: ", rec.App.Name, " on ", tc.Name)
				}
			}
		}
	}
}

// sessionCold is a world nobody releases: one 100 KB MPTCP download on a
// core.Session that is then dropped. It holds the cost of a world built
// from nothing, which is what a caller that never calls Close — or the
// repository benchmark's transfer workloads — pays every time.
func sessionCold(b *testing.B) {
	cond := phy.LocationByID(7).Condition()
	cfg := core.Config{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled}
	// Use up what earlier benchmarks parked; nothing below parks more.
	for i := 0; i < simnet.MaxRetired; i++ {
		simnet.New(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := core.NewSession(int64(i+1), cond).Run(cfg, core.Download, 100<<10); !r.Completed {
			b.Fatal("transfer incomplete")
		}
	}
}

// kernelBenchmarks is the fixed micro-benchmark set guarding the
// per-packet hot path and the per-world set-up path.
func kernelBenchmarks() []bench {
	return []bench{
		{"sched/fire-churn", schedFireChurn},
		{"sched/cancel-churn", schedCancelChurn},
		{"sched/rearm-churn", schedRearmChurn},
		{"sched/deep-pending", schedDeepPending},
		{"tcp/download-100KB", func(b *testing.B) { tcpDownload(b, 100<<10, 0, 0) }},
		{"tcp/download-1MB", func(b *testing.B) { tcpDownload(b, 1<<20, 0, 0) }},
		{"tcp/download-1MB-lossy", func(b *testing.B) { tcpDownload(b, 1<<20, 0.02, 0) }},
		{"tcp/download-1MB-varlink", func(b *testing.B) { tcpDownload(b, 1<<20, 0, benchVariability) }},
		{"mptcp/download-1MB-decoupled", func(b *testing.B) { mptcpDownload(b, 1<<20, mptcp.Decoupled, 0) }},
		{"mptcp/download-1MB-coupled", func(b *testing.B) { mptcpDownload(b, 1<<20, mptcp.Coupled, 0) }},
		{"mptcp/download-1MB-varlink", func(b *testing.B) { mptcpDownload(b, 1<<20, mptcp.Decoupled, benchVariability) }},
		{"mptcp/download-10KB", func(b *testing.B) { mptcpDownload(b, 10<<10, mptcp.Decoupled, 0) }},
		{"rng/seed", rngSeed},
		{"world/replay-cnn-launch", replayCNNLaunch},
		{"world/replay-recycled", replayRecycled},
		{"world/session-cold", sessionCold},
	}
}

// experimentBenchmarks wraps every registered experiment at quick
// options, exactly the set cmd/report -quick runs.
func experimentBenchmarks() []bench {
	var out []bench
	for _, e := range engine.All() {
		e := e
		out = append(out, bench{
			name: "experiment/" + e.Meta.Name,
			fn: func(b *testing.B) {
				o := experiments.Quick()
				o.Workers = 1 // sequential: benchmark the kernel, not the pool
				for i := 0; i < b.N; i++ {
					_ = e.Run(o)
				}
			},
		})
	}
	return out
}

// allocIters is the iteration count of the allocation pass. It has to
// exceed the handful of allocations a pass makes once rather than per
// iteration (the testing harness's own, a printer fmt's pool had lost),
// so that they vanish in the integer division, and it is small enough
// for the heaviest experiment (≈ 7 MB per iteration) to run without a
// collection.
const allocIters = 32

// countAllocs returns fn's B/op and allocs/op as a property of the
// program: over allocIters iterations — not a b.N picked by the clock,
// which would spread the harness's own handful of allocations over a
// different divisor each time — and with the collector off, so objects
// that only exist because a collection emptied a sync.Pool somewhere
// (fmt keeps its printers in one) are not counted. Everything the
// simulators recycle lives on free lists they own, so nothing else
// depends on the collector, and the count repeats exactly.
func countAllocs(fn func(b *testing.B)) (bytesPerOp, allocsPerOp int64) {
	benchtime := flag.Lookup("test.benchtime").Value
	defer func(old string) { _ = benchtime.Set(old) }(benchtime.String())
	if err := benchtime.Set(fmt.Sprintf("%dx", allocIters)); err != nil {
		panic(err) // "32x" is valid -benchtime syntax
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := testing.Benchmark(fn)
	return r.AllocedBytesPerOp(), r.AllocsPerOp()
}

// compare checks cur against base, returning a description of every
// benchmark whose allocs/op rose; the count gates exactly (see
// countAllocs).
func compare(base, cur []Result) []string {
	baseBy := make(map[string]Result, len(base))
	for _, r := range base {
		baseBy[r.Name] = r
	}
	var bad []string
	for _, r := range cur {
		b, ok := baseBy[r.Name]
		if !ok {
			continue // new benchmark: no baseline yet
		}
		if r.AllocsOp > b.AllocsOp {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %d -> %d (above baseline)",
				r.Name, b.AllocsOp, r.AllocsOp))
		}
	}
	return bad
}

// writeDiff renders a per-benchmark comparison of base vs cur.
func writeDiff(path string, base, cur Report) error {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline %s/%s %d CPUs vs run %s/%s %d CPUs\n\n",
		base.GoOS, base.GoArch, base.NumCPU, cur.GoOS, cur.GoArch, cur.NumCPU)
	evpkt := func(r Result) string {
		if r.EventsPerPacket == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", r.EventsPerPacket)
	}
	fmt.Fprintf(&sb, "%-34s %14s %14s %8s %10s %10s %7s %7s\n",
		"benchmark", "base ns/op", "ns/op", "delta", "base a/op", "a/op",
		"base e/p", "ev/pkt")
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-34s %14s %14.0f %8s %10s %10d %7s %7s  (new)\n",
				r.Name, "-", r.NsPerOp, "-", "-", r.AllocsOp, "-", evpkt(r))
			continue
		}
		delete(baseBy, r.Name)
		delta := "-"
		if b.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.NsPerOp/b.NsPerOp-1)*100)
		}
		fmt.Fprintf(&sb, "%-34s %14.0f %14.0f %8s %10s %10d %7s %7s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta, fmt.Sprint(b.AllocsOp), r.AllocsOp,
			evpkt(b), evpkt(r))
	}
	// Baseline rows the run never produced (renamed, deleted, or
	// filtered out by -only) must not vanish silently: a reader of the
	// artifact would otherwise assume full coverage.
	for _, b := range base.Results {
		if _, gone := baseBy[b.Name]; gone {
			fmt.Fprintf(&sb, "%-34s %14.0f %14s %8s %10d %10s  (not run)\n",
				b.Name, b.NsPerOp, "-", "-", b.AllocsOp, "-")
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "BENCH_report.json", "write the benchmark report here ('' to skip)")
	baseline := flag.String("baseline", "BENCH_baseline.json", "baseline report to compare against")
	check := flag.Bool("check", false, "exit non-zero if any allocs/op is above the baseline")
	rebase := flag.Bool("rebase", false, "rewrite the baseline from this run")
	only := flag.String("only", "", "comma-separated benchmark names to run (default: all)")
	skipExp := flag.Bool("skip-experiments", false, "run only the kernel micro-benchmarks")
	count := flag.Int("count", 5, "timed repetitions per benchmark (min ns/op reported)")
	benchtime := flag.String("benchtime", "", "per-repetition benchmark time (go test -benchtime syntax)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected benchmarks")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected benchmarks")
	diff := flag.String("diff", "", "write a baseline-vs-run comparison table here")
	serveLoad := flag.Duration("serve-load", 0,
		"run the path-selection service load generator for this duration and exit (asserts 0 allocs/query)")
	serveWorkers := flag.Int("serve-load-workers", 0, "serve-load worker goroutines (0 = GOMAXPROCS)")
	testing.Init()
	flag.Parse()
	if *serveLoad > 0 {
		os.Exit(runServeLoad(*serveLoad, *serveWorkers))
	}
	if *benchtime != "" {
		if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "bad -benchtime:", err)
			os.Exit(2)
		}
	}
	if *count < 1 {
		*count = 1
	}

	benches := append(kernelBenchmarks(), serveBenchmarks()...)
	if !*skipExp {
		benches = append(benches, experimentBenchmarks()...)
	}
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				want[n] = true
			}
		}
		kept := benches[:0]
		for _, bm := range benches {
			if want[bm.name] {
				kept = append(kept, bm)
				delete(want, bm.name)
			}
		}
		if len(want) > 0 {
			names := make([]string, 0, len(benches))
			for _, bm := range benches {
				names = append(names, bm.name)
			}
			fmt.Fprintf(os.Stderr, "unknown benchmark(s) in -only; valid names: %s\n",
				strings.Join(names, ", "))
			os.Exit(2)
		}
		benches = kept
	}

	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "creating -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "starting CPU profile:", err)
			os.Exit(1)
		}
		var once bool
		stopProfile = func() {
			if once {
				return
			}
			once = true
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}
	// exit flushes the CPU profile before terminating: os.Exit skips
	// deferred calls, which would leave a truncated, unparseable profile
	// on exactly the runs (gate failures) where the profile matters.
	exit := func(code int) {
		stopProfile()
		os.Exit(code)
	}

	rep := Report{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, bm := range benches {
		start := time.Now()
		var res Result
		curMetrics = &netemMetrics{}
		for k := 0; k < *count; k++ {
			r := testing.Benchmark(bm.fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if k == 0 || ns < res.NsPerOp {
				res.NsPerOp = ns
			}
			res.Runs += r.N
		}
		res.BPerOp, res.AllocsOp = countAllocs(bm.fn)
		res.Name = bm.name
		extra := ""
		if m := curMetrics; m.packets > 0 {
			res.EventsPerPacket = float64(m.events) / float64(m.packets)
			extra = fmt.Sprintf("  %.2f ev/pkt", res.EventsPerPacket)
		}
		curMetrics = nil
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%-32s %10.0f ns/op %8d B/op %6d allocs/op  (n=%d, %v)%s\n",
			bm.name, res.NsPerOp, res.BPerOp, res.AllocsOp, res.Runs,
			time.Since(start).Round(time.Millisecond), extra)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "creating -memprofile:", err)
			exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "writing heap profile:", err)
			exit(1)
		}
		f.Close()
	}

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "writing report:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s (%d benchmarks)\n", *out, len(rep.Results))
	}

	if *diff != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading baseline %s for -diff: %v\n", *baseline, err)
			exit(1)
		}
		if err := writeDiff(*diff, base, rep); err != nil {
			fmt.Fprintln(os.Stderr, "writing -diff:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "comparison written to %s\n", *diff)
	}

	if *rebase {
		if err := writeReport(*baseline, rep); err != nil {
			fmt.Fprintln(os.Stderr, "rewriting baseline:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "baseline %s rewritten; commit it to accept the new floor\n", *baseline)
		return
	}

	if *check {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading baseline %s: %v\n", *baseline, err)
			exit(1)
		}
		if bad := compare(base.Results, rep.Results); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "allocs/op regressions vs", *baseline+":")
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "  "+line)
			}
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "no allocs/op regressions vs %s\n", *baseline)
	}
}
