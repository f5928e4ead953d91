package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func testConfig(t *testing.T, workload string, seed int64) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: seed, scale: minScale, root: root, nproc: runtime.GOMAXPROCS(0)}
}

// TestTimedRuns runs every workload at minimum scale with tracing off
// and demands every end-to-end metric, finite and above zero.
func TestTimedRuns(t *testing.T) {
	for _, name := range workloadNames() {
		res, err := timedRun(testConfig(t, name, 7), workloads[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value above zero in %s", name, d.name, m, ok, d.unit)
			}
		}
	}
}

func tracedMetrics(t *testing.T, workload string, seed int64) map[string]metric {
	t.Helper()
	res, err := tracedRun(testConfig(t, workload, seed), workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d", workload, res.Correct, res.Failed)
	}
	return res.Metrics
}

// TestTracedRuns demands every per-layer metric, finite and not
// negative, a trace file, and exact counts that repeat for a seed —
// between two runs, and between the traced runs of two different
// workloads — and change with the seed.
func TestTracedRuns(t *testing.T) {
	first := tracedMetrics(t, "tcp-bulk", 7)
	defs := perLayer()
	if len(first) != len(defs) {
		t.Errorf("%d metrics, want %d", len(first), len(defs))
	}
	for _, d := range defs {
		m, ok := first[d.name]
		if !ok || m.Unit != d.unit || !(m.Value >= 0) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v), want a finite value, not negative, in %s", d.name, m, ok, d.unit)
		}
	}
	root, _ := findRoot()
	data, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "trace-tcp-bulk.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	layers := map[string]bool{}
	for _, s := range tf.Spans {
		layers[s.Layer] = true
		if s.End < s.Start || s.Op == 0 {
			t.Fatalf("bad span %+v", s)
		}
	}
	for _, l := range []string{"phy", "tcp", "mptcp", "simnet", "replay", "experiments", "selector", "serve"} {
		if !layers[l] {
			t.Errorf("no span of layer %s in the trace", l)
		}
	}

	again := tracedMetrics(t, "tcp-bulk", 7)
	other := tracedMetrics(t, "serve-decide", 7)
	reseeded := tracedMetrics(t, "tcp-bulk", 8)
	changed := 0
	for _, name := range exactCounts {
		if first[name] != again[name] {
			t.Errorf("%s: %v then %v for the same seed", name, first[name].Value, again[name].Value)
		}
		if first[name] != other[name] {
			t.Errorf("%s: %v under tcp-bulk, %v under serve-decide", name, first[name].Value, other[name].Value)
		}
		if first[name] != reseeded[name] {
			changed++
		}
	}
	if changed < 5 {
		t.Errorf("only %d exact counts changed with the seed", changed)
	}
}

// TestInjectedFaults proves the checks bite: a transfer asked for more
// than it sends and a decide on an unknown site are failed operations
// and a non-zero exit code.
func TestInjectedFaults(t *testing.T) {
	for _, c := range []struct{ workload, fault string }{
		{"tcp-bulk", faultTruncate}, {"mptcp-bulk", faultTruncate}, {"serve-decide", faultNotFound},
	} {
		var out bytes.Buffer
		code := run([]string{"--workload", c.workload, "--scale", "min", "--seconds", "0", "--fault", c.fault}, &out, io.Discard)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", c.workload, err)
		}
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with %s: exit %d, correct=%v, failed=%d; want a failure", c.workload, c.fault, code, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSON holds the repository's BENCHMARK.json to the
// metric tables the runs are checked against above.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./benchmark" || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d] %s: bound %v, want %v", kind, i, w.name, g.Bound, w.bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer(), false)
}

// TestNoDeprecatedAPI keeps the benchmark off every name ROADMAP
// slates for removal, so that deleting the compatibility layer cannot
// break it.
func TestNoDeprecatedAPI(t *testing.T) {
	banned := regexp.MustCompile(`internal/core"|core\.(Estimate|PathEstimate|Selector|EstimateOf|WiFiLTEEstimate|ConfigFor|SetFluidDefault)\b` +
		`|replay\.(ConfigsFor|SchedulerConfigsFor|StandardConfigs)\b|\.Condition\(\)|oracle\.(Schemes|Normalized)\b` +
		`|Condition\{[^}]*(WiFi|LTE):|cmd/cellvswifi|cmd/mptcpbench`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(src); m != nil {
			t.Errorf("%s uses %q, which ROADMAP slates for removal", f, m)
		}
	}
}
