// Package selector is the public decision API of the reproduction:
// "which path(s), MPTCP or not, which scheduler?" — the adaptive
// policy the paper's conclusion poses as future work, redesigned as a
// standalone package so the same code path serves both the offline
// experiments (internal/experiments ablation-selector) and the online
// path-selection service (internal/serve, cmd/serve).
//
// The package has three layers:
//
//   - Estimate/PathEstimate describe the current per-path conditions
//     of one multi-homed client, any number of paths in preference
//     order.
//   - Decide evaluates the policy over an estimate and returns a
//     Decision (paths in preference order, UseMPTCP, congestion
//     coupling, scheduler, and the disparity rationale). DecideInto is
//     the allocation-free form the service's hot path uses with pooled
//     Decisions.
//   - Store holds sharded per-site estimates with exponential decay
//     (store.go) — the state behind cmd/serve.
//
// core.ConfigFor turns a Decision into the transfer that realises it,
// and core's Session.Probe measures an Estimate.
package selector

import (
	"sort"
	"time"

	"multinet/internal/mptcp"
)

// hugeDisparity is the ratio reported when a disparity is undefined
// (a zero-rate path, or fewer than two paths): effectively infinite,
// so every disparity gate fails closed to single-path TCP.
const hugeDisparity = 1e9

// PathEstimate is one path's estimated conditions, as a lightweight
// probe or telemetry history would report them.
type PathEstimate struct {
	Name string
	Mbps float64
	RTT  time.Duration
}

// Estimate summarises the current conditions of any number of paths.
// Path order is significant: earlier paths win ranking ties, so build
// estimates in preference order (core's Probe uses host attachment
// order; the Store uses first-telemetry order).
type Estimate struct {
	Paths []PathEstimate
}

// find returns the position of the named path, or -1. A scan: an
// estimate holds a handful of paths.
func (e *Estimate) find(name string) int {
	for i := range e.Paths {
		if e.Paths[i].Name == name {
			return i
		}
	}
	return -1
}

// Set updates the named path's estimate, appending it if new.
func (e *Estimate) Set(name string, mbps float64, rtt time.Duration) {
	if i := e.find(name); i >= 0 {
		e.Paths[i].Mbps, e.Paths[i].RTT = mbps, rtt
		return
	}
	e.Paths = append(e.Paths, PathEstimate{Name: name, Mbps: mbps, RTT: rtt})
}

// Lookup returns the named path's estimate.
func (e Estimate) Lookup(name string) (PathEstimate, bool) {
	if i := e.find(name); i >= 0 {
		return e.Paths[i], true
	}
	return PathEstimate{}, false
}

// Mbps returns the named path's estimated throughput (0 if unknown).
func (e Estimate) Mbps(name string) float64 {
	p, _ := e.Lookup(name)
	return p.Mbps
}

// Ranked returns the paths best-first: higher throughput wins, ties
// broken by lower RTT, remaining ties by estimate order.
func (e Estimate) Ranked() []PathEstimate {
	out := append([]PathEstimate(nil), e.Paths...)
	sort.SliceStable(out, func(i, j int) bool {
		return pathLess(out[i], out[j])
	})
	return out
}

// pathLess is the ranking order: higher throughput first, RTT
// tie-break. Shared by Ranked and the allocation-free insertion sort
// in DecideInto so the two can never disagree.
func pathLess(a, b PathEstimate) bool {
	if a.Mbps != b.Mbps {
		return a.Mbps > b.Mbps
	}
	return a.RTT < b.RTT
}

// Best returns the name of the top-ranked path ("" for an empty
// estimate).
func (e Estimate) Best() string {
	r := e.Ranked()
	if len(r) == 0 {
		return ""
	}
	return r[0].Name
}

// PairDisparity returns the throughput ratio of the best path to the
// second-best — the quantity that decides whether MPTCP's extra
// subflow can help. With more than two paths it ignores the paths
// MPTCP's scheduler would starve anyway.
func (e Estimate) PairDisparity() float64 {
	r := e.Ranked()
	if len(r) < 2 || r[1].Mbps <= 0 {
		return hugeDisparity
	}
	return r[0].Mbps / r[1].Mbps
}

// Rationale values are fixed machine-readable slugs so the decide hot
// path never formats and API clients can switch on them.
const (
	// RationaleNoPaths: the estimate is empty — nothing to choose.
	RationaleNoPaths = "no-paths"
	// RationaleShortFlow: the flow is too small for MPTCP's extra
	// subflow to pay for its join (paper Figs. 7, 18/19); single-path
	// TCP on the best path.
	RationaleShortFlow = "short-flow"
	// RationaleDisparity: the best two paths are too unequal — MPTCP
	// underperforms the better single path (paper Fig. 7a).
	RationaleDisparity = "disparity"
	// RationaleAggregate: long flow over a comparable best pair —
	// MPTCP aggregates (paper Fig. 8).
	RationaleAggregate = "aggregate"
	// RationaleStaleTelemetry: every path estimate has been silent for
	// longer than the store's staleness floor, so the ranking is a
	// memory, not a measurement. The decision degrades to single-path
	// TCP on the best remembered path — opening a second subflow on
	// the strength of decayed numbers is exactly the mistake the
	// paper's adaptive conclusion warns against.
	RationaleStaleTelemetry = "stale-telemetry"
)

// Decision is the selector's answer for one flow: the full path
// preference order, whether to open an MPTCP connection across the
// best pair, and with which coupling and data scheduler. It is the
// single decision type consumed by the experiments (via
// core.ConfigFor) and by the online service (internal/serve).
type Decision struct {
	// Paths is every estimated path in preference order, best first.
	// Single-path TCP uses Paths[0]; MPTCP makes Paths[0] the primary
	// subflow.
	Paths []string
	// UseMPTCP reports whether MPTCP across the best pair beats the
	// best single path.
	UseMPTCP bool
	// CC is the recommended congestion coupling, always decoupled
	// (Figs. 13/14; meaningful only when UseMPTCP).
	CC mptcp.CongestionMode
	// Scheduler is the recommended MPTCP data scheduler (meaningful
	// only when UseMPTCP).
	Scheduler string
	// PairDisparity is the best-to-second-best throughput ratio that
	// drove the MPTCP gate.
	PairDisparity float64
	// Rationale is the finding behind the decision, one of the
	// Rationale* constants.
	Rationale string

	// ranked is the sort scratch, retained so pooled Decisions reuse
	// its capacity across requests.
	ranked []PathEstimate
}

// Primary returns the preferred path ("" when no path is estimated).
func (d *Decision) Primary() string {
	if len(d.Paths) == 0 {
		return ""
	}
	return d.Paths[0]
}

// The policy is the paper's conclusion, assembled from its empirical
// findings, and these are its two thresholds:
//
//   - Short flows gain nothing from MPTCP (Figs. 7, 18/19): use
//     single-path TCP on the better network.
//   - With a large rate disparity between the paths, MPTCP underper-
//     forms the better single path at every size (Fig. 7a): stay
//     single-path.
//   - Otherwise, long flows benefit from MPTCP with the primary on the
//     better network (Fig. 8), the min-SRTT scheduler and decoupled
//     congestion control, which outruns coupled on long flows
//     (Figs. 13/14).
//
// The policy ranks any number of paths: MPTCP is worthwhile when the
// best two paths are comparable, whatever the rest of the set does.
const (
	// shortFlowBytes is the flow size at or below which single-path TCP
	// is always chosen: 200 KB, between the paper's 100 KB "short" and
	// 1 MB "long" sizes (Figs. 7, 18/19).
	shortFlowBytes = 200 << 10
	// maxDisparity is the largest best-to-second-best rate ratio at
	// which MPTCP is still worthwhile (the Fig. 7a regime; Mohan et
	// al., arXiv:1909.02601, see the same collapse on disparate
	// dual-LTE carriers).
	maxDisparity = 4
)

// Decide evaluates the policy for a flow of the given size under the
// estimated conditions.
func Decide(e Estimate, flowBytes int) Decision {
	var d Decision
	DecideInto(&d, e, flowBytes)
	return d
}

// DecideInto is the allocation-free form of Decide: it fills d in
// place, reusing the capacity of d's slices. The online service calls
// it with pooled Decisions on the steady-state query path; after the
// first few requests warm a pooled Decision's capacity it never
// allocates again.
//
//multinet:hotpath
func DecideInto(d *Decision, e Estimate, flowBytes int) {
	d.Paths = d.Paths[:0] //lint:allow hotpath Paths capacity is amortised by the pooled Decision
	d.UseMPTCP = false
	d.CC = mptcp.Decoupled
	d.Scheduler = ""
	d.Rationale = RationaleNoPaths
	d.PairDisparity = hugeDisparity

	// Stable insertion sort into the retained scratch: the exact order
	// sort.SliceStable gives Ranked, without its allocations.
	d.ranked = d.ranked[:0] //lint:allow hotpath sort scratch capacity is amortised by the pooled Decision
	for _, p := range e.Paths {
		i := len(d.ranked)
		d.ranked = append(d.ranked, p) //lint:allow hotpath sort scratch capacity is amortised by the pooled Decision
		for i > 0 && pathLess(d.ranked[i], d.ranked[i-1]) {
			d.ranked[i], d.ranked[i-1] = d.ranked[i-1], d.ranked[i]
			i--
		}
	}
	for _, p := range d.ranked {
		d.Paths = append(d.Paths, p.Name) //lint:allow hotpath Paths capacity is amortised by the pooled Decision
	}
	if len(d.ranked) == 0 {
		return
	}
	if len(d.ranked) >= 2 && d.ranked[1].Mbps > 0 {
		d.PairDisparity = d.ranked[0].Mbps / d.ranked[1].Mbps
	}

	switch {
	case flowBytes <= shortFlowBytes:
		d.Rationale = RationaleShortFlow
	case d.PairDisparity > maxDisparity:
		d.Rationale = RationaleDisparity
	default:
		d.UseMPTCP = true
		d.Scheduler = mptcp.SchedMinSRTT
		d.Rationale = RationaleAggregate
	}
}
