// Command benchmark is the repository benchmark: it measures what a
// user of cmd/report and cmd/serve waits on, end to end and layer by
// layer, and checks every output it produces. BENCHMARK.json at the
// repository root describes it; benchmark/README.md explains every
// workload, metric and bound.
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it records spans around every call into
// a layer, runs the per-layer ladder, writes
// benchmark/out/trace-<workload>.json and prints the per-layer
// metrics. The last line of standard output is always one JSON object
// {correct, attempted, failed, metrics}; the exit code is non-zero when
// any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    scale
	root     string // repository root (holds go.mod and cmd/serve)
	nproc    int
	fault    string // makes one operation fail; only the package tests set it
}

// Injected faults.
const (
	faultTruncate = "truncate" // a transfer is asked for one byte more than it sends
	faultNotFound = "404"      // a decide names a site the server never heard of
)

var selfPID = os.Getpid()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	all := fs.Bool("all", false, "run every workload in turn, one result line each")
	seed := fs.Int64("seed", 2014, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 12, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: timed run reporting the end-to-end metrics")
	scaleName := fs.String("scale", "full", "full: the sizes BENCHMARK.json is measured at; min: the smallest sizes, a smoke run")
	fault := fs.String("fault", "", "make one operation fail, to see the checks bite: "+faultTruncate+" (transfers) or "+faultNotFound+" (serve-decide)")
	record := fs.Bool("record-expected", false, "rewrite benchmark/expected.json from this build's outputs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sc := fullScale
	if *scaleName == "min" {
		sc = minScale
	}
	if *record {
		if err := recordExpected(root); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	names := []string{*name}
	if *all {
		names = workloadNames()
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	code := 0
	for _, n := range names {
		cfg := config{
			workload: n, seed: *seed, trace: *trace != 0, scale: sc, root: root, fault: *fault,
			seconds: time.Duration(*seconds * float64(time.Second)),
			nproc:   runtime.GOMAXPROCS(0),
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		printResult(stdout, n, res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload as a timed or a traced run.
func runWorkload(cfg config) (result, error) {
	w := workloads[cfg.workload]
	if cfg.trace {
		return tracedRun(cfg, w)
	}
	return timedRun(cfg, w)
}

// printResult writes the metric table and then the result object as
// the last line.
func printResult(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %d operations, %d failed\n", workload, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-44s %18.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result holds only finite numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}
