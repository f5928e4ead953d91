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
