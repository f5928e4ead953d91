package main

import (
	"multinet/internal/apps"
	"multinet/internal/experiments/engine"
	"multinet/internal/phy"
	"multinet/internal/replay"
)

// replayCell is one app replay under one condition and transport.
type replayCell struct {
	cond phy.Condition
	rec  *replay.Recording
	tc   replay.TransportConfig
	seed int64
}

type replayInstance struct {
	inProcess
	cells []replayCell
}

// replayCells generates the app-replay grid: the short-flow-dominated
// apps × locations × the paper's six transport configurations.
func replayCells(cfg config) []replayCell {
	var recs []*replay.Recording
	for _, app := range apps.All {
		if !app.LongFlowDominated() {
			recs = append(recs, replay.Record(app))
		}
	}
	configs := replay.Configs(replay.WiFiLTEPaths())
	var cells []replayCell
	for l := 0; l < cfg.scale.locations; l++ {
		cond := locationCondition(phy.Locations[l], false)
		for a, rec := range recs {
			for c, tc := range configs {
				for t := 0; t < cfg.scale.replayTrials; t++ {
					cells = append(cells, replayCell{
						cond: cond, rec: rec, tc: tc, seed: engine.SeedFor(cfg.seed, l, a, c, t),
					})
				}
			}
		}
	}
	return cells
}

func setupReplay(cfg config) (instance, error) {
	cells := replayCells(cfg)
	if _, err := (&replayInstance{cells: everyNth(cells, warmStride)}).pass(1, nil); err != nil {
		return nil, err
	}
	return &replayInstance{cells: cells}, nil
}

type replayOut struct {
	flows int
	ok    bool
}

func (ri *replayInstance) pass(workers int, rec *recorder) (passStats, error) {
	var outs []replayOut
	wall, allocs := timed(func() {
		outs = engine.Sweep(engine.Options{Workers: workers}, len(ri.cells), func(i int) replayOut {
			c := ri.cells[i]
			sp := rec.begin(rec.op(), 0, "replay", "Run")
			res := replay.Run(c.seed, c.cond, c.rec, c.tc)
			sp.end()
			return replayOut{flows: len(c.rec.App.Flows), ok: res.Completed}
		})
	})
	st := passStats{ops: len(outs), wall: wall, mallocs: allocs}
	for _, o := range outs {
		st.flows += o.flows
		if !o.ok {
			st.failed++
		}
	}
	return st, nil
}
