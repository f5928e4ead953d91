package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale sizes every workload. fullScale is what BENCHMARK.json's
// numbers are measured at; the package tests run minScale.
type scale struct {
	locations      int // paper locations swept by the transfer and replay workloads
	tcpTrials      int
	mptcpTrials    int
	replayTrials   int
	sweepLocations int // engine.Options.Locations of a report-sweep pass
	sweepCount     int // experiments of the list a report-sweep pass runs
	setupReps      int // times set-up is repeated; setup_s is their median
	blockRequests  int // HTTP requests per timed block
	prewarmSites   int // serve-decide working set
	ingestSites    int // distinct sites serve-ingest walks before it wraps
	rssSites       int // store size at which serve-ingest reads the server's peak memory
	fillSites      int // in-process selector fill behind selector.bytes_per_site
	rungEvents     int // events the simnet rung fires
	rungPackets    int // packets each netem rung sends
	probeCalls     int // calls per in-process selector/serve probe
	calIterations  int // iterations of one host-speed kernel sample (host.go)
}

var fullScale = scale{
	locations: 20, tcpTrials: 1, mptcpTrials: 1, replayTrials: 2, sweepLocations: 4, sweepCount: 29,
	setupReps: 3, blockRequests: 10000, prewarmSites: 256, ingestSites: 75000, rssSites: 25000,
	fillSites: 75000, rungEvents: 2000000, rungPackets: 400000, probeCalls: 200000, calIterations: 6000000,
}

var minScale = scale{
	locations: 1, tcpTrials: 1, mptcpTrials: 1, replayTrials: 1, sweepLocations: 1, sweepCount: 8,
	setupReps: 2, blockRequests: 1000, prewarmSites: 16, ingestSites: 500, rssSites: 250,
	fillSites: 2000, rungEvents: 20000, rungPackets: 5000, probeCalls: 2000, calIterations: 100000,
}

// passStats is what one pass — one fixed unit of a workload's work —
// reports.
type passStats struct {
	ops     int           // operations attempted
	failed  int           // operations whose output check failed
	wall    time.Duration // wall time of the pass
	latUS   []float64     // client-observed latency of each request, µs (serve passes)
	mallocs uint64        // heap objects this process allocated during the pass
	sim     simCounts     // simulator-layer counts (transfer passes)
	serve   serveCounts   // HTTP-layer counts (serve passes)
	expMS   []float64     // per-experiment wall time, ms (report-sweep passes)
	hashes  []string      // per-experiment output SHA-256 (report-sweep passes)
	flows   int           // replayed connections (app-replay passes)
}

// instance is a set-up workload: passes run against it until the run's
// time is spent.
type instance interface {
	// pass runs one unit of work with the given parallelism (sweep
	// workers or HTTP connections), recording spans into rec when it
	// is non-nil.
	pass(workers int, rec *recorder) (passStats, error)
	// close stops what set-up started, makes the end-of-run checks and
	// returns the peak resident memory of the process under test.
	close() (closeStats, error)
}

type closeStats struct {
	rssMB  float64 // peak memory of the server; 0 when the work ran in this process
	failed int     // end-of-run checks that failed
}

// inProcess is the close of the simulator workloads, which start
// nothing: their memory is this process's, which the run reads itself.
type inProcess struct{}

func (inProcess) close() (closeStats, error) { return closeStats{}, nil }

// timed runs fn and returns its wall time and the heap objects the
// process allocated meanwhile.
func timed(fn func()) (time.Duration, uint64) {
	m0, t0 := mallocs(), time.Now()
	fn()
	wall := time.Since(t0)
	return wall, mallocs() - m0
}

// everyNth returns xs[0], xs[n], xs[2n], ...: the cells of a warm-up
// pass, which touch every configuration of a grid at a fraction of its
// cost.
func everyNth[T any](xs []T, n int) []T {
	var out []T
	for i := 0; i < len(xs); i += n {
		out = append(out, xs[i])
	}
	return out
}

// workloadDef builds instances of one workload.
type workloadDef struct {
	kind  string // layer ladder rung the workload is the home of
	setup func(cfg config) (instance, error)
}

var workloads = map[string]workloadDef{
	"report-sweep": {kind: "sweep", setup: setupSweep},
	"tcp-bulk":     {kind: "tcp", setup: setupTCP},
	"mptcp-bulk":   {kind: "mptcp", setup: setupMPTCP},
	"app-replay":   {kind: "replay", setup: setupReplay},
	"serve-decide": {kind: "serve", setup: setupServeDecide},
	"serve-ingest": {kind: "serve", setup: setupServeIngest},
}

func workloadNames() []string {
	return []string{"report-sweep", "tcp-bulk", "mptcp-bulk", "app-replay", "serve-decide", "serve-ingest"}
}

// timedRun is the --trace 0 run: set-up repeated setupReps times, then
// serial passes for half of cfg.seconds and as many parallel passes,
// with no span recorded anywhere. The simulator workloads read their
// own peak memory between the two phases, where it depends on the
// cells alone and not on how the parallel workers happened to overlap.
func timedRun(cfg config, w workloadDef) (result, error) {
	host, err := newHostSpeed(cfg.scale, cfg.nproc)
	if err != nil {
		return result{}, err
	}
	defer host.close()
	var (
		inst   instance
		setups []float64
	)
	host.sampleSerial()
	for r := 0; r < cfg.scale.setupReps; r++ {
		if inst != nil {
			if _, err := inst.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		host.sampleSerial()
	}
	var (
		first                  passStats
		serial, parallel       []float64
		ops, attempted, failed int
	)
	run := func(workers int, sample func()) (passStats, error) {
		st, err := inst.pass(workers, nil)
		if err != nil {
			inst.close()
			return st, err
		}
		sample()
		if attempted == 0 {
			first = st
		}
		failed += st.failed + crossCheck(first, st)
		attempted += st.ops
		return st, nil
	}
	for start := time.Now(); len(serial) == 0 || time.Since(start) < cfg.seconds/2; {
		st, err := run(1, host.sampleSerial)
		if err != nil {
			return result{}, err
		}
		serial = append(serial, st.wall.Seconds())
	}
	selfRSS, err := peakRSSMB(selfPID)
	if err != nil {
		inst.close()
		return result{}, err
	}
	host.sampleParallel()
	for range serial {
		st, err := run(cfg.nproc, host.sampleParallel)
		if err != nil {
			return result{}, err
		}
		ops = st.ops
		parallel = append(parallel, st.wall.Seconds())
	}
	fin, err := inst.close()
	if err != nil {
		return result{}, err
	}
	failed += fin.failed
	if fin.rssMB == 0 {
		fin.rssMB = selfRSS // the work ran in this process
	}
	fs, fp := host.factor(host.serial), host.factor(host.parallel)
	fmt.Fprintf(os.Stderr, "benchmark: %s: host-speed factors %.4f serial, %.4f parallel; uncorrected: %d serial passes %.4f s, %d parallel passes %.4f s\n",
		cfg.workload, fs, fp, len(serial), serial, len(parallel), parallel)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.put("setup_s", median(setups)*fs)
	res.put("wall_s", median(serial)*fs)
	res.put("wall_parN_s", median(parallel)*fp)
	res.put("qps", float64(ops)/(median(parallel)*fp))
	res.put("rss_mb", fin.rssMB)
	return res, nil
}

// crossCheck counts the operations whose output differs between two
// passes of a run: the inputs are the same, and the engine promises
// bit-identical output at any worker count.
func crossCheck(s, p passStats) int {
	n := 0
	for i := range s.hashes {
		if i >= len(p.hashes) || s.hashes[i] != p.hashes[i] {
			n++
		}
	}
	if s.sim.exact() != p.sim.exact() {
		n++
	}
	return n
}

// put stores a metric under the unit metrics.go gives it; a value that
// is not finite is stored as -1 so that the result still encodes and
// the smoke test catches it.
func (r *result) put(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile reads the p-quantile of an ascending slice (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio is a/b, or 0 when b is 0 (a count that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mallocs reads the process's cumulative heap-object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMB reads VmHWM, the peak resident set, of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

// findRoot walks up from the working directory to the module root, so
// the benchmark works from the repository root (go run ./benchmark)
// and from its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "serve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no module root with cmd/serve above the working directory")
		}
		dir = parent
	}
}
