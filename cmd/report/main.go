// Command report runs every experiment in the reproduction — each
// table and figure of the paper plus the DESIGN.md ablations — and
// prints their outputs in paper order. Its output is the source for
// EXPERIMENTS.md.
//
// The experiment list comes from the engine registry (every harness in
// internal/experiments registers itself), so this command needs no
// hand-maintained table and automatically picks up new experiments.
//
// Usage:
//
//	report [-seed N] [-quick] [-par N] [-only name[,name...]] [-json] [-list]
//
// -quick runs the reduced test-sized sweeps (useful to smoke-test the
// pipeline; the recorded numbers in EXPERIMENTS.md use the full runs).
// -par sets the sweep worker-pool size (default GOMAXPROCS); results
// are bit-identical at any worker count. -only selects experiments by
// registry name (see -list). -json emits machine-readable results on
// stdout. Per-experiment timing always streams to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"multinet/internal/experiments" // importing registers every harness
	"multinet/internal/experiments/engine"
)

// scenarioBanner returns a printer that emits a one-time section
// header before the first scenario experiment (the ones that go
// beyond the paper's WiFi+LTE pair; see internal/experiments
// scenarios.go).
func scenarioBanner() func(e engine.Experiment, print func(string)) {
	done := false
	return func(e engine.Experiment, print func(string)) {
		if done || e.Meta.Section != "scenario" {
			return
		}
		done = true
		print("-------- scenario experiments (N-path conditions beyond the paper) --------")
	}
}

type jsonResult struct {
	Name    string  `json:"name"`
	Title   string  `json:"title"`
	Section string  `json:"section"`
	Seconds float64 `json:"seconds"`
	Output  string  `json:"output"`
}

func main() {
	seed := flag.Int64("seed", engine.DefaultSeed, "RNG seed")
	quick := flag.Bool("quick", false, "reduced sweeps")
	par := flag.Int("par", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	only := flag.String("only", "", "comma-separated experiment names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit results as JSON on stdout")
	list := flag.Bool("list", false, "list registered experiments and exit")
	flag.Parse()

	if *list {
		banner := scenarioBanner()
		for _, e := range engine.All() {
			banner(e, func(s string) { fmt.Println(s) })
			fmt.Printf("%-20s %-22s section %s\n", e.Meta.Name, e.Meta.Title, e.Meta.Section)
		}
		return
	}

	o := engine.Options{Seed: *seed, Workers: *par}
	if *quick {
		o = experiments.Quick()
		o.Seed = *seed
		o.Workers = *par
	}

	todo, err := engine.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var results []jsonResult
	total := time.Now()
	banner := scenarioBanner()
	for _, e := range todo {
		if !*asJSON {
			banner(e, func(s string) { fmt.Println(s) })
		}
		start := time.Now()
		out := e.Run(o).String()
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "%-20s ran in %v\n", e.Meta.Name, elapsed.Round(time.Millisecond))
		if *asJSON {
			results = append(results, jsonResult{
				Name:    e.Meta.Name,
				Title:   e.Meta.Title,
				Section: e.Meta.Section,
				Seconds: elapsed.Seconds(),
				Output:  out,
			})
			continue
		}
		fmt.Printf("==================== %s (ran in %v) ====================\n%s\n",
			e.Meta.Title, elapsed.Round(time.Millisecond), out)
	}
	fmt.Fprintf(os.Stderr, "report complete in %v (%d experiments, %d workers)\n",
		time.Since(total).Round(time.Millisecond), len(todo), o.WorkerCount())
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "encoding results:", err)
			os.Exit(1)
		}
	}
}
