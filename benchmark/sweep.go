package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	_ "multinet/internal/experiments" // registers every harness
	"multinet/internal/experiments/engine"
)

// experimentNames is the report-sweep work list, in cmd/report's order.
// It is written out, not read from engine.All, so that an experiment
// added later changes the benchmark only in the change that says so.
var experimentNames = []string{
	"table1", "figure3", "figure4", "table2", "figure6", "figure7", "figure8", "figure9",
	"figure10", "figure11", "figure12", "coupling", "figure15", "figure16", "energy-backup",
	"figure17", "figure18", "figure19", "figure20", "figure21",
	"ablation-join", "ablation-scheduler", "ablation-tail", "ablation-selector",
	"scenario-dual-lte", "scenario-dual-wlan", "scenario-wifi-2lte", "scenario-schedulers",
	"scenario-faults",
}

// canonicalSeed is the seed expected.json's output hashes were
// recorded at (cmd/report's default).
const canonicalSeed = engine.DefaultSeed

// expectedJSON maps experiment name to the SHA-256 of its output at
// canonicalSeed and sweepOptions(fullScale).
//
//go:embed expected.json
var expectedJSON []byte

// sweepOptions are the engine options of one report-sweep pass.
func sweepOptions(sc scale, seed int64, workers int) engine.Options {
	return engine.Options{Seed: seed, Workers: workers, Trials: 1, Locations: sc.sweepLocations}
}

type sweepInstance struct {
	inProcess
	exps []engine.Experiment
	sc   scale
	seed int64
}

func setupSweep(cfg config) (instance, error) {
	si, err := newSweepInstance(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: every harness once at its smallest size, so lazy tables
	// and pools exist before the first timed pass.
	warm := *si
	warm.sc.sweepLocations = 1
	if _, err := warm.pass(1, nil); err != nil {
		return nil, err
	}
	return si, nil
}

func newSweepInstance(sc scale, seed int64) (*sweepInstance, error) {
	si := &sweepInstance{sc: sc, seed: seed}
	for _, name := range experimentNames[:sc.sweepCount] {
		e, ok := engine.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", name)
		}
		si.exps = append(si.exps, e)
	}
	return si, nil
}

func (si *sweepInstance) pass(workers int, rec *recorder) (passStats, error) {
	opts := sweepOptions(si.sc, si.seed, workers)
	st := passStats{ops: len(si.exps)}
	st.wall, st.mallocs = timed(func() {
		for _, e := range si.exps {
			out, wall := runExperiment(e, opts, rec)
			st.expMS = append(st.expMS, float64(wall.Nanoseconds())/1e6)
			sum := sha256.Sum256([]byte(out))
			st.hashes = append(st.hashes, hex.EncodeToString(sum[:]))
			if out == "" {
				st.failed++
			}
		}
	})
	return st, nil
}

// runExperiment runs one harness and renders its output; a panic is a
// failed operation (empty output), not a crashed benchmark.
func runExperiment(e engine.Experiment, opts engine.Options, rec *recorder) (out string, wall time.Duration) {
	op := rec.op()
	sp := rec.begin(op, 0, "experiments", e.Meta.Name)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "benchmark: experiment %s panicked: %v\n", e.Meta.Name, r)
			out = ""
		}
		wall = time.Since(start)
		sp.end()
	}()
	return e.Run(opts).String(), 0
}

// outputsChanged counts the experiments whose output hash differs from
// expected.json. It is reported, not failed on: a later fidelity fix
// changes outputs on purpose and must stay visible without being
// rejected.
func outputsChanged(hashes []string) (int, error) {
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return 0, fmt.Errorf("benchmark/expected.json: %w", err)
	}
	n := 0
	for i, hash := range hashes {
		if want[experimentNames[i]] != hash {
			n++
		}
	}
	return n, nil
}

// recordExpected rewrites benchmark/expected.json from one full-scale
// sweep at the canonical seed.
func recordExpected(root string) error {
	si, err := newSweepInstance(fullScale, canonicalSeed)
	if err != nil {
		return err
	}
	st, err := si.pass(1, nil)
	if err != nil {
		return err
	}
	want := map[string]string{}
	for i, hash := range st.hashes {
		want[experimentNames[i]] = hash
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "benchmark", "expected.json"), append(data, '\n'), 0o644)
}
