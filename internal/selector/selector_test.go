package selector

import (
	"slices"
	"testing"
	"time"

	"multinet/internal/mptcp"
)

func pair(aMbps, bMbps float64) Estimate {
	return Estimate{Paths: []PathEstimate{
		{Name: "wifi", Mbps: aMbps, RTT: 20 * time.Millisecond},
		{Name: "lte", Mbps: bMbps, RTT: 40 * time.Millisecond},
	}}
}

func TestDecideShortFlow(t *testing.T) {
	d := Decide(pair(3, 9), 50_000)
	if d.UseMPTCP {
		t.Fatal("short flow must stay single-path")
	}
	if d.Primary() != "lte" {
		t.Fatalf("primary = %q, want lte", d.Primary())
	}
	if d.Rationale != RationaleShortFlow {
		t.Fatalf("rationale = %q", d.Rationale)
	}
	if want := []string{"lte", "wifi"}; len(d.Paths) != 2 || d.Paths[0] != want[0] || d.Paths[1] != want[1] {
		t.Fatalf("paths = %v, want %v", d.Paths, want)
	}
}

func TestDecideLongFlowComparable(t *testing.T) {
	d := Decide(pair(6, 5), 5<<20)
	if !d.UseMPTCP || d.Primary() != "wifi" || d.CC != mptcp.Decoupled {
		t.Fatalf("decision = %+v, want MPTCP wifi-primary decoupled", d)
	}
	if d.Scheduler != mptcp.SchedMinSRTT {
		t.Fatalf("scheduler = %q, want minsrtt default", d.Scheduler)
	}
	if d.Rationale != RationaleAggregate {
		t.Fatalf("rationale = %q", d.Rationale)
	}
	if d.PairDisparity != 6.0/5 {
		t.Fatalf("disparity = %v", d.PairDisparity)
	}
}

func TestDecideDisparatePaths(t *testing.T) {
	d := Decide(pair(1, 10), 5<<20)
	if d.UseMPTCP || d.Primary() != "lte" {
		t.Fatalf("decision = %+v, want single-path lte (Fig. 7a regime)", d)
	}
	if d.Rationale != RationaleDisparity {
		t.Fatalf("rationale = %q", d.Rationale)
	}
}

func TestDecideEmptyEstimate(t *testing.T) {
	d := Decide(Estimate{}, 5<<20)
	if d.UseMPTCP || d.Primary() != "" || len(d.Paths) != 0 {
		t.Fatalf("decision = %+v, want empty no-MPTCP", d)
	}
	if d.Rationale != RationaleNoPaths {
		t.Fatalf("rationale = %q", d.Rationale)
	}
}

// TestDecideThresholds pins the policy's two constants at their edges:
// a flow of exactly 200 KB stays single-path and one byte more may not,
// and a pair exactly 4x apart still aggregates while a wider one does
// not.
func TestDecideThresholds(t *testing.T) {
	for _, c := range []struct {
		e         Estimate
		flowBytes int
		mptcp     bool
		rationale string
	}{
		{pair(6, 5), 200 << 10, false, RationaleShortFlow},
		{pair(6, 5), 200<<10 + 1, true, RationaleAggregate},
		{pair(8, 2), 5 << 20, true, RationaleAggregate},
		{pair(8.001, 2), 5 << 20, false, RationaleDisparity},
	} {
		d := Decide(c.e, c.flowBytes)
		if d.UseMPTCP != c.mptcp || d.Rationale != c.rationale {
			t.Errorf("Decide(%v, %d) = %+v, want UseMPTCP %v, rationale %q", c.e.Paths, c.flowBytes, d, c.mptcp, c.rationale)
		}
	}
}

// TestDecideMatchesRanked pins DecideInto's insertion sort to the
// exact order Ranked (sort.SliceStable) produces, ties included.
func TestDecideMatchesRanked(t *testing.T) {
	e := Estimate{Paths: []PathEstimate{
		{Name: "a", Mbps: 5, RTT: 30 * time.Millisecond},
		{Name: "b", Mbps: 9, RTT: 60 * time.Millisecond},
		{Name: "c", Mbps: 5, RTT: 30 * time.Millisecond}, // full tie with a
		{Name: "d", Mbps: 9, RTT: 45 * time.Millisecond},
		{Name: "e", Mbps: 0, RTT: 0},
	}}
	d := Decide(e, 5<<20)
	ranked := e.Ranked()
	if len(d.Paths) != len(ranked) {
		t.Fatalf("paths %v vs ranked %v", d.Paths, ranked)
	}
	for i := range ranked {
		if d.Paths[i] != ranked[i].Name {
			t.Fatalf("paths[%d] = %q, ranked = %q", i, d.Paths[i], ranked[i].Name)
		}
	}
	if d.PairDisparity != e.PairDisparity() {
		t.Fatalf("disparity %v vs %v", d.PairDisparity, e.PairDisparity())
	}
}

func TestDecideIntoReusesCapacity(t *testing.T) {
	e := pair(6, 5)
	var d Decision
	DecideInto(&d, e, 5<<20)
	if testing.AllocsPerRun(100, func() {
		DecideInto(&d, e, 5<<20)
	}) != 0 {
		t.Fatal("warm DecideInto must not allocate")
	}
}

// TestEstimateManyPaths: Set, Lookup and Mbps address a 12-path set by
// name — update in place, append when new — as they do the classic pair.
func TestEstimateManyPaths(t *testing.T) {
	var e Estimate
	for i := 0; i < 12; i++ {
		e.Set(string(rune('a'+i)), float64(i+1), time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < 12; i++ {
		name := string(rune('a' + i))
		if p, ok := e.Lookup(name); !ok || p.Mbps != float64(i+1) || p.RTT != time.Duration(i)*time.Millisecond {
			t.Fatalf("Lookup(%q) = %+v %v", name, p, ok)
		}
	}
	e.Set("k", 99, 0)
	if got := e.Mbps("k"); got != 99 || len(e.Paths) != 12 || e.Paths[10].Name != "k" {
		t.Fatalf("after Set(k): Mbps = %v, %d paths, Paths[10] = %q", got, len(e.Paths), e.Paths[10].Name)
	}
	if _, ok := e.Lookup("absent"); ok || e.Mbps("absent") != 0 {
		t.Fatal("an absent path was found")
	}
}

// TestDecidedSchedulersExist: every scheduler a Decision can name is one
// mptcp builds.
func TestDecidedSchedulersExist(t *testing.T) {
	known := mptcp.Schedulers()
	for _, e := range []Estimate{pair(6, 5), pair(9, 3)} {
		d := Decide(e, 5<<20)
		if !d.UseMPTCP || !slices.Contains(known[:], d.Scheduler) {
			t.Errorf("Decide(%v) = %+v: scheduler %q is not one of %v", e.Paths, d, d.Scheduler, known)
		}
	}
}
