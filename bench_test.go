package multinet_test

// Registry-driven benchmarks: one sub-benchmark per registered
// experiment (the same engine.All() set cmd/report iterates — see
// EXPERIMENTS.md for the per-experiment index), so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation with no hand-maintained list. Run
// with -v to see the rendered tables and figure data; for
// machine-readable headline quantities use `go run ./cmd/report -json`
// (the registry replaces the old per-benchmark ReportMetric tables).

import (
	"fmt"
	"testing"

	_ "multinet/internal/experiments" // importing registers every harness
	"multinet/internal/experiments/engine"
)

// benchOpts keeps bench runtime moderate while exercising the full
// pipeline; cmd/report runs the same harnesses with full options.
func benchOpts() engine.Options {
	return engine.Options{Trials: 1}
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range engine.All() {
		b.Run(e.Meta.Name, func(b *testing.B) {
			var out fmt.Stringer
			for i := 0; i < b.N; i++ {
				out = e.Run(benchOpts())
			}
			b.Log("\n" + out.String())
		})
	}
}
