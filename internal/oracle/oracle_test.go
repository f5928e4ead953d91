package oracle

import (
	"math"
	"testing"
	"time"
)

func cond(wifi, lte, cw, cl, dw, dl float64) map[string]time.Duration {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return map[string]time.Duration{
		"WiFi-TCP":             sec(wifi),
		"LTE-TCP":              sec(lte),
		"MPTCP-Coupled-WiFi":   sec(cw),
		"MPTCP-Coupled-LTE":    sec(cl),
		"MPTCP-Decoupled-WiFi": sec(dw),
		"MPTCP-Decoupled-LTE":  sec(dl),
	}
}

// paper is the paper's two-path oracle family and its WiFi-TCP baseline.
func paper() ([]PathScheme, string) { return ForPaths([]string{"WiFi", "LTE"}) }

// normalized runs NormalizedBy over the paper's family.
func normalized(conds []map[string]time.Duration) map[string]float64 {
	schemes, baseline := paper()
	norm, _ := NormalizedBy(conds, schemes, baseline)
	return norm
}

func TestPickMinimum(t *testing.T) {
	c := cond(2.7, 5.5, 5.3, 4.0, 4.5, 4.2)
	want := map[string]time.Duration{
		"WiFi-TCP":                  2700 * time.Millisecond,
		"Single-Path-TCP Oracle":    2700 * time.Millisecond,
		"Coupled-MPTCP Oracle":      4 * time.Second,
		"Decoupled-MPTCP Oracle":    4200 * time.Millisecond,
		"MPTCP-WiFi-Primary Oracle": 4500 * time.Millisecond,
		"MPTCP-LTE-Primary Oracle":  4 * time.Second,
	}
	schemes, _ := paper()
	for _, s := range schemes {
		got, ok := PickBest(c, s.Configs)
		if !ok || got != want[s.Name] {
			t.Errorf("%s: got %v ok=%v, want %v", s.Name, got, ok, want[s.Name])
		}
	}
}

func TestPickMissingConfig(t *testing.T) {
	c := map[string]time.Duration{"WiFi-TCP": time.Second}
	if _, ok := PickBest(c, []string{"WiFi-TCP", "LTE-TCP"}); ok {
		t.Fatal("PickBest should fail with missing configs")
	}
}

func TestNormalizedBaselineIsOne(t *testing.T) {
	conds := []map[string]time.Duration{
		cond(2, 4, 3, 3.5, 3.2, 3.1),
		cond(7, 3, 6, 4, 5.5, 3.8),
	}
	norm := normalized(conds)
	if math.Abs(norm["WiFi-TCP"]-1) > 1e-9 {
		t.Fatalf("baseline = %v, want 1", norm["WiFi-TCP"])
	}
	// Every oracle is at most its baseline's superset minimum, so the
	// single-path oracle must be <= 1.
	if norm["Single-Path-TCP Oracle"] > 1 {
		t.Fatalf("single-path oracle %v > 1", norm["Single-Path-TCP Oracle"])
	}
}

func TestNormalizedAveragesAcrossConditions(t *testing.T) {
	conds := []map[string]time.Duration{
		cond(4, 2, 9, 9, 9, 9), // LTE halves the time: ratio 0.5
		cond(4, 4, 9, 9, 9, 9), // tie: ratio 1.0
	}
	if sp := normalized(conds)["Single-Path-TCP Oracle"]; math.Abs(sp-0.75) > 1e-9 {
		t.Fatalf("single-path oracle = %v, want 0.75", sp)
	}
}

func TestNormalizedSkipsIncomplete(t *testing.T) {
	conds := []map[string]time.Duration{
		cond(4, 2, 3, 3, 3, 3),
		{"WiFi-TCP": time.Second}, // incomplete
	}
	schemes, baseline := paper()
	norm, n := NormalizedBy(conds, schemes, baseline)
	if n != 1 || math.Abs(norm["Single-Path-TCP Oracle"]-0.5) > 1e-9 {
		t.Fatalf("incomplete condition not skipped: %v over %d conditions", norm["Single-Path-TCP Oracle"], n)
	}
}

func TestNormalizedEmpty(t *testing.T) {
	schemes, baseline := paper()
	if norm, n := NormalizedBy(nil, schemes, baseline); len(norm) != 0 || n != 0 {
		t.Fatal("empty input should give empty output")
	}
}

// TestSchemeStrings pins the paper's legend: ForPaths over {WiFi, LTE}
// names the baseline and the five oracles as Figs. 19 and 21 do, in
// their order.
func TestSchemeStrings(t *testing.T) {
	want := []string{"WiFi-TCP", "Single-Path-TCP Oracle", "Decoupled-MPTCP Oracle",
		"Coupled-MPTCP Oracle", "MPTCP-WiFi-Primary Oracle", "MPTCP-LTE-Primary Oracle"}
	schemes, baseline := paper()
	if baseline != "WiFi-TCP" || len(schemes) != len(want) {
		t.Fatalf("baseline %q, %d schemes; want WiFi-TCP and %d", baseline, len(schemes), len(want))
	}
	for i, s := range schemes {
		if s.Name != want[i] {
			t.Errorf("scheme %d = %q, want %q", i, s.Name, want[i])
		}
	}
}

func TestForSchedulers(t *testing.T) {
	scheds := []string{"minsrtt", "roundrobin", "redundant", "holaware"}
	schemes, baseline := ForSchedulers([]string{"WiFi", "LTE"}, scheds)
	if baseline != "WiFi-TCP" {
		t.Fatalf("baseline = %q, want WiFi-TCP", baseline)
	}
	if len(schemes) != 2+len(scheds) {
		t.Fatalf("schemes = %d, want baseline + single-path + %d scheduler oracles",
			len(schemes), len(scheds))
	}
	if schemes[1].Name != "Single-Path-TCP Oracle" || len(schemes[1].Configs) != 2 {
		t.Fatalf("second scheme = %+v, want the N-path single-path oracle", schemes[1])
	}
	for i, s := range scheds {
		got := schemes[2+i]
		if got.Name != "MPTCP-"+s+" Oracle" {
			t.Errorf("scheme %d name = %q, want MPTCP-%s Oracle", 2+i, got.Name, s)
		}
		want := []string{"MPTCP-" + s + "-WiFi", "MPTCP-" + s + "-LTE"}
		if len(got.Configs) != 2 || got.Configs[0] != want[0] || got.Configs[1] != want[1] {
			t.Errorf("scheme %q configs = %v, want %v", got.Name, got.Configs, want)
		}
	}
	if s, b := ForSchedulers(nil, scheds); s != nil || b != "" {
		t.Fatal("empty labels should give no schemes")
	}
}
