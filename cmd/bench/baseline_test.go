package main

import (
	"path/filepath"
	"testing"
)

// TestBaselineCoversEveryBenchmark fails when a benchmark this binary
// runs — every registered experiment included — has no entry in the
// committed BENCH_baseline.json: compare() skips names it has no
// baseline for, so a missing entry is a benchmark the -check gate
// silently does not gate. Fix it with `go run ./cmd/bench -rebase`.
func TestBaselineCoversEveryBenchmark(t *testing.T) {
	base, err := loadReport(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(base.Results))
	for _, r := range base.Results {
		if have[r.Name] {
			t.Errorf("baseline lists %s twice", r.Name)
		}
		have[r.Name] = true
	}
	if len(experimentBenchmarks()) == 0 {
		t.Fatal("no experiments registered")
	}
	for _, bm := range gateBenchmarks() {
		if !have[bm.name] {
			t.Errorf("%s has no entry in BENCH_baseline.json (run `go run ./cmd/bench -rebase`)", bm.name)
		}
		delete(have, bm.name)
	}
	for name := range have {
		t.Errorf("BENCH_baseline.json entry %s names no benchmark (renamed or deleted?)", name)
	}
}

// TestCompare holds the gate's rule: a rise fails with both counts,
// equal and lower counts pass, and an ungated name or one without a
// baseline entry is skipped.
func TestCompare(t *testing.T) {
	if !allocsUngated["engine/sweep-cold"] {
		t.Fatal("engine/sweep-cold is gated now; name another ungated entry here")
	}
	base := []Result{{"a", 10}, {"b", 10}, {"c", 10}, {"engine/sweep-cold", 10}}
	for _, tc := range []struct {
		name string
		cur  Result
		want string
	}{
		{"rise", Result{"a", 11}, "a: allocs/op 10 -> 11 (above baseline)"},
		{"equal", Result{"b", 10}, ""},
		{"lower", Result{"c", 9}, ""},
		{"ungated", Result{"engine/sweep-cold", 12}, ""},
		{"no baseline entry", Result{"new", 99}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := compare(base, []Result{tc.cur})
			switch {
			case tc.want == "" && len(bad) != 0:
				t.Errorf("compare = %q, want nothing", bad)
			case tc.want != "" && (len(bad) != 1 || bad[0] != tc.want):
				t.Errorf("compare = %q, want [%q]", bad, tc.want)
			}
		})
	}
}
