// Package oracle implements the paper's Section 5 oracle schemes: for
// each network condition, an oracle picks the best configuration from
// the subset it controls (the network for single-path TCP, the primary
// subflow given a congestion controller, or the congestion controller
// given a primary). Figures 19 and 21 report each oracle's app
// response time averaged over the 20 conditions and normalised by
// single-path TCP over WiFi — the Android default the paper compares
// everything against.
package oracle

import (
	"math"
	"time"
)

// Scheme is one oracle policy.
type Scheme int

// The paper's five oracle schemes plus the WiFi-TCP baseline.
const (
	// WiFiTCPBaseline is plain TCP over WiFi (normalisation reference).
	WiFiTCPBaseline Scheme = iota
	// SinglePathTCP knows which network minimises response time.
	SinglePathTCP
	// DecoupledMPTCP uses decoupled CC and knows the best primary.
	DecoupledMPTCP
	// CoupledMPTCP uses coupled CC and knows the best primary.
	CoupledMPTCP
	// MPTCPWiFiPrimary uses WiFi primary and knows the best CC.
	MPTCPWiFiPrimary
	// MPTCPLTEPrimary uses LTE primary and knows the best CC.
	MPTCPLTEPrimary
)

// String names the scheme as in the paper's figure legends.
func (s Scheme) String() string {
	switch s {
	case WiFiTCPBaseline:
		return "WiFi-TCP"
	case SinglePathTCP:
		return "Single-Path-TCP Oracle"
	case DecoupledMPTCP:
		return "Decoupled-MPTCP Oracle"
	case CoupledMPTCP:
		return "Coupled-MPTCP Oracle"
	case MPTCPWiFiPrimary:
		return "MPTCP-WiFi-Primary Oracle"
	case MPTCPLTEPrimary:
		return "MPTCP-LTE-Primary Oracle"
	}
	return "unknown"
}

// Schemes lists all schemes in the paper's legend order.
var Schemes = []Scheme{
	WiFiTCPBaseline, SinglePathTCP, DecoupledMPTCP, CoupledMPTCP,
	MPTCPWiFiPrimary, MPTCPLTEPrimary,
}

// configs maps each scheme to the replay configuration names it may
// choose between (names from replay.Configs over replay.WiFiLTEPaths).
var configs = map[Scheme][]string{
	WiFiTCPBaseline:  {"WiFi-TCP"},
	SinglePathTCP:    {"WiFi-TCP", "LTE-TCP"},
	DecoupledMPTCP:   {"MPTCP-Decoupled-WiFi", "MPTCP-Decoupled-LTE"},
	CoupledMPTCP:     {"MPTCP-Coupled-WiFi", "MPTCP-Coupled-LTE"},
	MPTCPWiFiPrimary: {"MPTCP-Coupled-WiFi", "MPTCP-Decoupled-WiFi"},
	MPTCPLTEPrimary:  {"MPTCP-Coupled-LTE", "MPTCP-Decoupled-LTE"},
}

// PathScheme is an oracle over an explicit candidate set: it knows
// which of its Configs minimises response time for each condition.
// The enumerated two-path Schemes above are the paper's instances;
// ForPaths generates the same family for any path set.
type PathScheme struct {
	Name    string
	Configs []string
}

// ForPaths generates the paper's oracle family for an arbitrary path
// set, given the display labels used in the replay configuration
// names (e.g. {"WiFi", "LTE"} or {"LTE-A", "LTE-B"}): the
// first-label TCP baseline, the single-path oracle over all N
// alternatives, one per-CC MPTCP oracle choosing among N primaries,
// and one per-primary oracle choosing the CC. With labels
// {"WiFi", "LTE"} this reproduces the enumerated Schemes exactly.
func ForPaths(labels []string) (schemes []PathScheme, baseline string) {
	if len(labels) == 0 {
		return nil, ""
	}
	baseline = labels[0] + "-TCP"
	tcp := make([]string, len(labels))
	coupled := make([]string, len(labels))
	decoupled := make([]string, len(labels))
	for i, l := range labels {
		tcp[i] = l + "-TCP"
		coupled[i] = "MPTCP-Coupled-" + l
		decoupled[i] = "MPTCP-Decoupled-" + l
	}
	schemes = []PathScheme{
		{Name: baseline, Configs: []string{baseline}},
		{Name: "Single-Path-TCP Oracle", Configs: tcp},
		{Name: "Decoupled-MPTCP Oracle", Configs: decoupled},
		{Name: "Coupled-MPTCP Oracle", Configs: coupled},
	}
	for i, l := range labels {
		schemes = append(schemes, PathScheme{
			Name:    "MPTCP-" + l + "-Primary Oracle",
			Configs: []string{coupled[i], decoupled[i]},
		})
	}
	return schemes, baseline
}

// ForSchedulers generates the scheduler-comparison oracle family over
// the configuration names of replay.Configs with WithSchedulers: the
// first-label TCP baseline, the single-path oracle over all N
// alternatives (the N-path oracle every scheduler is normalised
// against), and one oracle per scheduler that knows the best primary
// for it ("MPTCP-<scheduler> Oracle" choosing among
// "MPTCP-<scheduler>-<Label>").
func ForSchedulers(labels, schedulers []string) (schemes []PathScheme, baseline string) {
	if len(labels) == 0 {
		return nil, ""
	}
	baseline = labels[0] + "-TCP"
	tcp := make([]string, len(labels))
	for i, l := range labels {
		tcp[i] = l + "-TCP"
	}
	schemes = []PathScheme{
		{Name: baseline, Configs: []string{baseline}},
		{Name: "Single-Path-TCP Oracle", Configs: tcp},
	}
	for _, s := range schedulers {
		cfgs := make([]string, len(labels))
		for i, l := range labels {
			cfgs[i] = "MPTCP-" + s + "-" + l
		}
		schemes = append(schemes, PathScheme{Name: "MPTCP-" + s + " Oracle", Configs: cfgs})
	}
	return schemes, baseline
}

// PickBest returns the minimum response time over the candidate
// configurations. ok is false if any candidate is missing.
func PickBest(perConfig map[string]time.Duration, candidates []string) (time.Duration, bool) {
	best := time.Duration(math.MaxInt64)
	for _, n := range candidates {
		d, ok := perConfig[n]
		if !ok {
			return 0, false
		}
		if d < best {
			best = d
		}
	}
	return best, true
}

// Pick returns the scheme's oracle response time for one condition:
// the minimum over the configurations it controls. ok is false if any
// needed configuration is missing.
func Pick(perConfig map[string]time.Duration, s Scheme) (time.Duration, bool) {
	return PickBest(perConfig, configs[s])
}

// NormalizedBy computes each scheme's mean response time across
// conditions, normalised by the named baseline configuration.
// Conditions missing the baseline or any scheme's configuration are
// skipped, so every scheme averages over the same condition set. The
// second return is how many conditions contributed.
func NormalizedBy(conditions []map[string]time.Duration, schemes []PathScheme, baseline string) (map[string]float64, int) {
	sums := map[string]float64{}
	n := 0
	for _, cond := range conditions {
		base, ok := cond[baseline]
		if !ok || base <= 0 {
			continue
		}
		complete := true
		vals := map[string]float64{}
		for _, s := range schemes {
			d, ok := PickBest(cond, s.Configs)
			if !ok {
				complete = false
				break
			}
			vals[s.Name] = float64(d) / float64(base)
		}
		if !complete {
			continue
		}
		for s, v := range vals {
			sums[s] += v
		}
		n++
	}
	out := map[string]float64{}
	if n == 0 {
		return out, 0
	}
	for s, v := range sums {
		out[s] = v / float64(n)
	}
	return out, n
}

// Normalized computes each scheme's mean response time across
// conditions, normalised by the WiFi-TCP baseline — the bars of the
// paper's Figs. 19 and 21. Conditions missing any configuration are
// skipped.
func Normalized(conditions []map[string]time.Duration) map[Scheme]float64 {
	named := make([]PathScheme, len(Schemes))
	for i, s := range Schemes {
		named[i] = PathScheme{Name: s.String(), Configs: configs[s]}
	}
	byName, _ := NormalizedBy(conditions, named, "WiFi-TCP")
	out := map[Scheme]float64{}
	for _, s := range Schemes {
		if v, ok := byName[s.String()]; ok {
			out[s] = v
		}
	}
	return out
}
