// Package engine is the experiment execution layer: a central registry
// of every table, figure and ablation harness, plus a deterministic
// parallel trial-sweep runner.
//
// The registry is the one experiment list: each harness registers
// itself once (Register) and every consumer — cmd/report, cmd/bench and
// the package tests — iterates All or selects with Lookup.
//
// The sweep runner (Sweep, Grid, RunTrials) fans independent trials
// out across a worker pool. Every trial owns its own simnet.Sim, so
// trials never share mutable state; results are collected by trial
// index and reduced in index order, which makes parallel output
// bit-identical to the sequential loops it replaced. Per-trial seeds
// are derived with SeedFor exactly as the sequential code did, so a
// given (seed, trial) pair measures the same simulated world at any
// worker count.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultSeed is the base seed for all experiments; per-run seeds
// derive from it deterministically.
const DefaultSeed = 2014

// Options scales an experiment and bounds its parallelism.
type Options struct {
	// Seed is the base RNG seed (DefaultSeed when zero).
	Seed int64
	// Trials is the number of repetitions per measurement point
	// (harness-specific default when zero).
	Trials int
	// Locations restricts location-sweep experiments to the first N
	// of the paper's 20 sites (all when zero).
	Locations int
	// Workers is the sweep worker-pool size (GOMAXPROCS when zero,
	// 1 forces sequential execution).
	Workers int
}

// BaseSeed returns the effective base seed.
func (o Options) BaseSeed() int64 {
	if o.Seed == 0 {
		return DefaultSeed
	}
	return o.Seed
}

// TrialCount returns the effective trial count given the harness
// default.
func (o Options) TrialCount(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// LocationCount returns the effective location count given the sweep's
// full site list length.
func (o Options) LocationCount(max int) int {
	if o.Locations > 0 && o.Locations < max {
		return o.Locations
	}
	return max
}

// Serial returns a copy of o that runs sweeps on a single worker. Used
// for inner sweeps nested inside an already-parallel outer sweep, so
// worker counts do not multiply.
func (o Options) Serial() Options {
	o.Workers = 1
	return o
}

// SeedFor derives a per-measurement seed from the base seed and the
// measurement's coordinates (location, trial, config index, ...). The
// derivation is stable forever: experiment calibration depends on it.
func SeedFor(base int64, parts ...int) int64 {
	s := base
	for _, p := range parts {
		s = s*1000003 + int64(p) + 7919
	}
	return s
}

// Meta describes a registered experiment.
type Meta struct {
	// Name is the canonical selector name (flag-friendly, unique),
	// e.g. "figure7" or "ablation-scheduler".
	Name string
	// Title is the display title in paper terms, e.g. "Figure 7".
	Title string
	// Section is the paper section the experiment reproduces.
	Section string
	// Order sorts experiments into the paper's presentation order.
	Order int
}

// Experiment is a registered harness: metadata plus the function that
// runs it. The returned value's String method renders the table or
// figure the paper reports.
type Experiment struct {
	Meta Meta
	Run  func(Options) fmt.Stringer
}

var (
	regMu sync.Mutex
	reg   = map[string]Experiment{}
)

// Register adds an experiment to the registry. It panics on an empty
// name, a nil run function, or a duplicate name — all are programmer
// errors caught at init time.
func Register(m Meta, run func(Options) fmt.Stringer) {
	regMu.Lock()
	defer regMu.Unlock()
	if m.Name == "" {
		panic("engine: Register with empty name")
	}
	if run == nil {
		panic("engine: Register with nil run function: " + m.Name)
	}
	if _, dup := reg[m.Name]; dup {
		panic("engine: duplicate experiment name: " + m.Name)
	}
	reg[m.Name] = Experiment{Meta: m, Run: run}
}

// All returns every registered experiment in paper order (Meta.Order,
// ties broken by name).
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, 0, len(reg))
	for _, e := range reg {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Meta.Order != out[j].Meta.Order {
			return out[i].Meta.Order < out[j].Meta.Order
		}
		return out[i].Meta.Name < out[j].Meta.Name
	})
	return out
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (Experiment, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := reg[name]
	return e, ok
}

// Names returns the registered names in paper order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.Meta.Name
	}
	return out
}

// Select resolves a comma-separated experiment-name list (the
// cmd/report -only syntax) against the registry. Whitespace around
// names and empty entries (doubled or trailing commas) are ignored; an
// empty csv selects every experiment in paper order. An unknown name
// is an error listing the valid names, so callers can exit non-zero
// instead of silently running nothing.
func Select(csv string) ([]Experiment, error) {
	if strings.TrimSpace(csv) == "" {
		return All(), nil
	}
	var out []Experiment
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; valid names: %s",
				name, strings.Join(Names(), ", "))
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiments selected by %q; valid names: %s",
			csv, strings.Join(Names(), ", "))
	}
	return out, nil
}
