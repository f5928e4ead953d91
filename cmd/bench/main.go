// Command bench is the repository's exact allocs/op gate: it runs the
// benchmark suite outside `go test`, counts allocs/op per benchmark, and
// with -check fails when any benchmark allocates more than the
// committed baseline says. It times nothing: kernel timing is `go test
// ./cmd/bench -bench 'Gate/…'` (below), and workload timing is `go run
// ./benchmark` (BENCHMARK.json) in alternating pairs.
//
// These benchmark families run:
//
//   - scheduler micro-benchmarks (sched/*): simnet's timer heap alone —
//     schedule/fire churn over 64 pending timers, cancel-heavy churn over
//     17, in-place re-arm churn, and schedule/fire against 64 Ki pending,
//     hundreds of times the largest heap an experiment world builds;
//   - kernel micro-benchmarks: TCP bulk transfers and MPTCP two-subflow
//     transfers over the simulated WiFi+LTE pair, the per-packet hot
//     path every experiment hammers, on constant-rate links and
//     (*-varlink) on the delivery-opportunity links every paper
//     condition uses;
//   - set-up micro-benchmarks: seeding one random stream and drawing once
//     (rng/seed) or a whole register's worth (rng/seed-drain), one
//     short app replay on a recycled world (world/replay-cnn-launch), the
//     24 differently shaped replays of one sweep location on one arena
//     (world/replay-recycled) and one transfer on a world built from
//     nothing (world/session-cold);
//   - the sweep pool under the collector (engine/sweep-cold): 16 cold
//     worlds across 4 workers, the bulk workloads' pattern;
//   - service benchmarks (serve/*): the online path-selection service's
//     decide and telemetry hot cores over the sharded estimate store
//     and one decide through the HTTP/1.1 connection loop
//     (serve/conn-decide), allocs/op pinned at zero, and the store's
//     insert of a new site
//     (selector/observe-new-site), zero beyond amortised growth;
//   - registry experiments: every harness in the engine registry at the
//     quick (test-sized) sweep options, the same set cmd/report runs.
//
// Usage:
//
//	bench [-baseline BENCH_baseline.json] [-check] [-rebase]
//
// Each benchmark prints one line on stderr: its name, its allocs/op, the
// baseline's and how long the entry took.
//
// -baseline names the committed reference report: each benchmark's name
// and allocs/op. With -check, the run fails (exit 1) if any benchmark's
// allocs/op is above the baseline's. The gate can be exact because the
// count is (see countAllocs). `go test ./cmd/bench` fails when a
// benchmark has no baseline entry, so nothing runs ungated by accident;
// the one benchmark whose count depends on the host's scheduling is
// listed in allocsUngated with the reason. With -rebase, the baseline
// file is rewritten from this run's results (commit it to accept a new
// floor). Every run is the whole list: an entry's count can depend on
// what ran before it in the process, so the gate is only ever read from
// the full run.
//
// To time or investigate one entry — a profile, another benchtime — run
// the same list under go test, where every entry is a sub-benchmark of
// BenchmarkGate under its baseline name:
//
//	go test ./cmd/bench -run '^$' -bench 'Gate/sched/' -cpuprofile cpu.out
//
// CI runs `bench -check` on every push and in the nightly workflow; see
// .github/workflows/ and the "Benchmark trajectory" section of
// EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
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

// Result is one benchmark's allocation count.
type Result struct {
	Name     string `json:"name"`
	AllocsOp int64  `json:"allocs_per_op"`
}

// Report is the baseline file: the host it was taken on and every
// benchmark's count.
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
// rewrite where the cancel+schedule pair takes the entry out of the heap,
// recycles it and files it again. The clock follows in 100 ms strides,
// and a stride that reaches the entry's stale key re-keys it at the
// root.
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

// schedDeepPending measures schedule/fire cost with 64 Ki long-lived
// timers pending while the measured chain schedules and fires through
// them: every event is pushed to the root of a heap 17 levels deep and
// popped from it, the O(log n) worst case of the timer queue, at
// hundreds of times the depth of any experiment world's (at most 89
// timers on a report -quick pass).
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
			// Lossless links never draw from a loss stream, so only lossy
			// ones seed one.
			lc.RNG = sim.RNG("loss/" + dir)
		}
		return lc
	}
	return netem.NewIface(sim, name, netem.NewFixedLink(sim, mbps, cfg("up")), netem.NewFixedLink(sim, mbps, cfg("down")))
}

// benchVariability is the log-rate stddev of the *-varlink entries, the
// middle of the 20 paper locations' range.
const benchVariability = 0.3

// downloadTCP transfers size bytes server→client over one duplex
// interface in a world of its own, and reports whether all of them
// arrived. The world is returned unreleased.
func downloadTCP(seed int64, size int, loss, variability float64) (*simnet.Sim, bool) {
	sim := simnet.New(seed)
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
	return sim, done
}

// tcpDownload is one downloadTCP per op — the plain-TCP kernel hot
// path.
func tcpDownload(b *testing.B, size int, loss, variability float64) {
	for i := 0; i < b.N; i++ {
		sim, done := downloadTCP(int64(i+1), size, loss, variability)
		if !done {
			b.Fatal("transfer incomplete")
		}
		sim.Release()
	}
	b.SetBytes(int64(size))
}

// sweepCold is the pattern of the repository benchmark's bulk-transfer
// workloads: engine.Sweep over 16 cells, each a 256 KB download on
// delivery-opportunity links in a world nobody releases. On a host of
// up to 4 Ps every P runs a worker while the collector works through
// the garbage, so a pool that never reaches a scheduling point keeps
// each mark phase (and the write barrier) on for longer, and its ns/op
// shows it. The worker count is fixed, not GOMAXPROCS, so that an op
// starts the same goroutines on every host; even so its allocs/op is
// not exact (see allocsUngated).
func sweepCold(b *testing.B) {
	const cells = 16
	// Use up what earlier benchmarks parked; nothing below parks more.
	for i := 0; i < simnet.MaxRetired; i++ {
		simnet.New(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := engine.Sweep(engine.Options{Workers: 4}, cells, func(c int) bool {
			_, ok := downloadTCP(int64(i*cells+c+1), 256<<10, 0, benchVariability)
			return ok
		})
		for _, ok := range done {
			if !ok {
				b.Fatal("transfer incomplete")
			}
		}
	}
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
		sim.Release()
	}
	b.SetBytes(int64(size))
}

// rngSeed measures seeding one random stream: a reseed and the first
// draw. A short-lived world pays this once per stream it draws from; the
// generator computes the words of its seeded state as draws first read
// them, so this is two words, not 607.
func rngSeed(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	r := s.RNG("bench")
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		r.Int63()
	}
}

// rngSeedDrain is a reseed and 607 draws: every word of the seeded state
// computed on first read, and a lap of the register drawn. It holds the
// lazy seeding to costing a long stream nothing over seeding up front.
func rngSeedDrain(b *testing.B) {
	s := simnet.New(1)
	defer s.Release()
	r := s.RNG("bench")
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		for k := 0; k < 607; k++ {
			r.Int63()
		}
	}
}

// replayCNNLaunch is one short-flow app replay, the unit of the paper's
// Section 5 sweeps: a world built (from the one the previous iteration
// released), run for a few hundred packets and released again.
func replayCNNLaunch(b *testing.B) {
	rec := replay.Record(apps.CNNLaunch)
	cond := phy.LocationByID(7).Condition()
	tc := replay.TransportConfig{Name: "MPTCP-Coupled-WiFi", Config: core.Config{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled}}
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
		{"rng/seed-drain", rngSeedDrain},
		{"world/replay-cnn-launch", replayCNNLaunch},
		{"world/replay-recycled", replayRecycled},
		{"world/session-cold", sessionCold},
		{"engine/sweep-cold", sweepCold},
	}
}

// gateBenchmarks is the whole list the gate runs, in its order: every
// entry has a baseline entry under its name.
func gateBenchmarks() []bench {
	return append(append(kernelBenchmarks(), serveBenchmarks()...), experimentBenchmarks()...)
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

// allocIters is the iteration count of each allocation round. It has to
// exceed the handful of allocations a round makes once rather than per
// iteration (the testing harness's own, a printer fmt's pool had lost),
// so that they vanish in the integer division, and it is small enough
// for the heaviest experiment (≈ 7 MB per iteration) to run without a
// collection.
const allocIters = 32

// countAllocs returns fn's allocs/op as a property of the program: over
// allocIters iterations — not a b.N picked by the clock, which would
// spread the harness's own handful of allocations over a different
// divisor each time — with the collector off, so objects that only
// exist because a collection emptied a sync.Pool somewhere (fmt keeps
// its printers in one) are not counted, and on a warm process.
// Everything the simulators recycle lives on free lists they own, so
// nothing else depends on the collector.
//
// The warm-up is a first round of the same allocIters iterations,
// discarded. An entry inherits the arenas the entries before it parked
// (see simnet.Sim.Release): their slabs and packet free lists can be
// smaller than its worlds need, or hold spares its worlds use up. The
// first round brings them to what this entry's own seeds need, so the
// counted round repeats exactly, whatever ran before it. Without it
// tcp/download-1MB-lossy reads 17 for 16 and world/replay-cnn-launch 77
// for 75, growing packets and slabs for seeds past the first iteration
// (so a one-iteration warm-up misreads them too), and experiment/figure9
// reads 142 for 144, drawing on packets an earlier entry left until its
// worlds, which end with packets in flight, have used them up.
func countAllocs(fn func(b *testing.B)) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	testing.Benchmark(fn)
	return testing.Benchmark(fn).AllocsPerOp()
}

// allocsUngated names the benchmarks whose allocs/op is recorded but
// not gated. engine/sweep-cold starts goroutines and blocks its caller
// on every op, and the runtime takes the goroutine descriptors and the
// wait records from per-P caches, allocating only when the running P's
// cache is empty, so its count can move with the host's scheduling:
// counted with no warm-up round, successive rounds of one process read
// 1483 and 1484. With the warm-up it read 1483 at GOMAXPROCS 1 to 16,
// three times over, on a 2-CPU host, which does not show that a host
// with more CPUs repeats it. Its cells run the transfer that
// tcp/download-1MB-varlink gates, on a cold world like
// world/session-cold's.
var allocsUngated = map[string]bool{"engine/sweep-cold": true}

// compare checks cur against base, returning a description of every
// benchmark whose allocs/op rose; the count gates exactly (see
// countAllocs).
func compare(base, cur []Result) []string {
	baseBy := make(map[string]int64, len(base))
	for _, r := range base {
		baseBy[r.Name] = r.AllocsOp
	}
	var bad []string
	for _, r := range cur {
		b, ok := baseBy[r.Name]
		if !ok || allocsUngated[r.Name] {
			continue // new benchmark (no baseline yet), or not gated
		}
		if r.AllocsOp > b {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %d -> %d (above baseline)",
				r.Name, b, r.AllocsOp))
		}
	}
	return bad
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
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline report to compare against")
	check := fs.Bool("check", false, "exit non-zero if any allocs/op is above the baseline")
	rebase := fs.Bool("rebase", false, "rewrite the baseline from this run")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	// testing.Benchmark runs to go test's -test.benchtime, which makes
	// every round allocIters iterations.
	testing.Init()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", allocIters)); err != nil {
		panic(err) // "32x" is valid -benchtime syntax
	}

	base, err := loadReport(*baseline)
	if err != nil && !*rebase {
		fmt.Fprintf(os.Stderr, "loading baseline %s: %v\n", *baseline, err)
		os.Exit(1)
	}
	baseBy := make(map[string]string, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = fmt.Sprint(r.AllocsOp)
	}

	rep := Report{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, bm := range gateBenchmarks() {
		start := time.Now()
		res := Result{Name: bm.name, AllocsOp: countAllocs(bm.fn)}
		rep.Results = append(rep.Results, res)
		was, ok := baseBy[bm.name]
		if !ok {
			was = "-"
		}
		extra := ""
		if allocsUngated[bm.name] {
			extra = "  (not gated)"
		}
		fmt.Fprintf(os.Stderr, "%-32s %6d allocs/op  baseline %6s  (%v)%s\n",
			bm.name, res.AllocsOp, was, time.Since(start).Round(time.Millisecond), extra)
	}

	if *rebase {
		if err := writeReport(*baseline, rep); err != nil {
			fmt.Fprintln(os.Stderr, "rewriting baseline:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "baseline %s rewritten; commit it to accept the new floor\n", *baseline)
		return
	}

	if *check {
		if bad := compare(base.Results, rep.Results); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "allocs/op regressions vs", *baseline+":")
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "  "+line)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no allocs/op regressions vs %s\n", *baseline)
	}
}
