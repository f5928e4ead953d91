// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each function returns a structured result whose
// String method renders the same rows or series the paper reports;
// cmd/report and cmd/bench run them,
// and EXPERIMENTS.md records paper-vs-measured for each.
//
// Every harness takes an Options value so tests can run reduced
// versions (fewer seeds, fewer locations) of the exact same code the
// full report runs.
//
// Every harness also registers itself (via init) into the engine
// registry — engine.All is the single source of truth for "what
// experiments exist", iterated by cmd/report, cmd/bench and the
// package tests. Harness inner loops run on the engine sweep runner
// (engine.Sweep / engine.Grid / engine.RunTrials): independent trials
// fan out across a worker pool and are reduced in trial-index order,
// so parallel output is bit-identical to the sequential loops the
// runner replaced.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"multinet/internal/experiments/engine"
)

// Options scales an experiment and bounds its parallelism; it is the
// engine's option type, so harnesses pass it straight to the sweep
// runner.
type Options = engine.Options

// Quick returns reduced options for unit tests.
func Quick() Options { return Options{Trials: 1, Locations: 4} }

// seedFor derives a per-measurement seed (see engine.SeedFor).
func seedFor(base int64, parts ...int) int64 {
	return engine.SeedFor(base, parts...)
}

// register adds a harness to the engine registry; the order argument
// is the paper presentation order used by cmd/report.
func register(name, title, section string, order int, run func(Options) fmt.Stringer) {
	engine.Register(engine.Meta{Name: name, Title: title, Section: section, Order: order}, run)
}

// fmtDur renders a duration with millisecond precision.
func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// table renders rows with a header as aligned text.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
