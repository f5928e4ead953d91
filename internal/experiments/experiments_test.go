package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"multinet/internal/core"
	"multinet/internal/experiments/engine"
)

func TestTable1(t *testing.T) {
	r := Table1(Quick())
	if len(r.Rows) < 18 {
		t.Fatalf("clusters = %d, want ~22", len(r.Rows))
	}
	if r.Filtered == 0 {
		t.Fatal("expected incomplete runs to be filtered")
	}
	s := r.String()
	if !strings.Contains(s, "US (Boston, MA)") {
		t.Fatal("rendered table missing Boston")
	}
}

func TestFigure3HeadlineNumbers(t *testing.T) {
	r := Figure3(Quick())
	if math.Abs(r.LTEWinUp-0.42) > 0.05 {
		t.Fatalf("uplink win %.2f, want ~0.42", r.LTEWinUp)
	}
	if math.Abs(r.LTEWinDown-0.35) > 0.05 {
		t.Fatalf("downlink win %.2f, want ~0.35", r.LTEWinDown)
	}
	if math.Abs(r.Combined-0.40) > 0.05 {
		t.Fatalf("combined win %.2f, want ~0.40", r.Combined)
	}
	if len(r.Uplink.Points) == 0 || len(r.Downlink.Points) == 0 {
		t.Fatal("missing CDF points")
	}
}

func TestFigure4(t *testing.T) {
	r := Figure4(Quick())
	if math.Abs(r.LTELowerRTT-0.20) > 0.05 {
		t.Fatalf("LTE lower RTT %.2f, want ~0.20", r.LTELowerRTT)
	}
}

func TestTable2(t *testing.T) {
	r := Table2(Quick())
	if len(r.Locations) != 20 {
		t.Fatalf("locations = %d", len(r.Locations))
	}
	if !strings.Contains(r.String(), "Santa Barbara") {
		t.Fatal("rendered table incomplete")
	}
}

func TestFigure6CurvesClose(t *testing.T) {
	// The first few locations alone are unrepresentative; use half the
	// site list for a meaningful median comparison.
	r := Figure6(Options{Trials: 1, Locations: 10})
	// The 20-location median should land within a few Mbit/s of the
	// campaign median (paper: "curves are close").
	if r.MedianGapDown > 5 {
		t.Fatalf("downlink median gap %.2f Mbit/s too large", r.MedianGapDown)
	}
	if len(r.TwentyDown.Points) == 0 {
		t.Fatal("no 20-location samples")
	}
}

func TestFigure7Shapes(t *testing.T) {
	r := Figure7(Quick())
	if len(r.SeriesA) != 6 || len(r.SeriesB) != 6 {
		t.Fatalf("series counts %d/%d, want 6", len(r.SeriesA), len(r.SeriesB))
	}
	final := func(series []Figure7Series, name string) float64 {
		for _, s := range series {
			if s.Config == name {
				return s.Mbps[len(s.Mbps)-1]
			}
		}
		t.Fatalf("missing config %s", name)
		return 0
	}
	// Panel (a): large LTE advantage — LTE-TCP at 1 MB should beat
	// every MPTCP variant (paper: MPTCP always worse than best TCP).
	bestTCP := final(r.SeriesA, "lte-TCP")
	for _, s := range r.SeriesA {
		if strings.HasPrefix(s.Config, "MPTCP") {
			if s.Mbps[len(s.Mbps)-1] > bestTCP {
				t.Errorf("panel a: %s (%.2f) beats best single path (%.2f)",
					s.Config, s.Mbps[len(s.Mbps)-1], bestTCP)
			}
		}
	}
	// Panel (b): comparable paths — some MPTCP variant at 1 MB beats
	// the best single path.
	bestTCPb := math.Max(final(r.SeriesB, "wifi-TCP"), final(r.SeriesB, "lte-TCP"))
	bestMPTCP := 0.0
	for _, s := range r.SeriesB {
		if strings.HasPrefix(s.Config, "MPTCP") {
			bestMPTCP = math.Max(bestMPTCP, s.Mbps[len(s.Mbps)-1])
		}
	}
	if bestMPTCP <= bestTCPb {
		t.Errorf("panel b: best MPTCP %.2f does not beat best TCP %.2f", bestMPTCP, bestTCPb)
	}
	// Throughput grows with flow size for single-path TCP.
	for _, s := range r.SeriesB[:2] {
		if s.Mbps[0] >= s.Mbps[len(s.Mbps)-1] {
			t.Errorf("%s: throughput not growing with flow size", s.Config)
		}
	}
}

func TestFigure8Decreasing(t *testing.T) {
	r := Figure8(Quick())
	m10, m100, m1000 := r.MedianPct["10KB"], r.MedianPct["100KB"], r.MedianPct["1MB"]
	if !(m10 > m100 && m100 > m1000) {
		t.Fatalf("primary sensitivity should fall with flow size: %.0f/%.0f/%.0f", m10, m100, m1000)
	}
	// The paper's medians are 60/49/28: ours should be in the same
	// region (short flows dramatically more sensitive).
	if m10 < 25 {
		t.Fatalf("10KB median %.0f%% too small (paper 60%%)", m10)
	}
	if m1000 > 40 {
		t.Fatalf("1MB median %.0f%% too large (paper 28%%)", m1000)
	}
}

func TestFigure9And10(t *testing.T) {
	r9 := Figure9(Quick())
	// At the LTE-better location, LTE primary grows faster.
	if r9.LTEPrimary.FinalMbps <= r9.WiFiPrimary.FinalMbps {
		t.Errorf("Fig9: LTE-primary final %.2f should beat WiFi-primary %.2f",
			r9.LTEPrimary.FinalMbps, r9.WiFiPrimary.FinalMbps)
	}
	r10 := Figure10(Quick())
	if r10.WiFiPrimary.FinalMbps <= r10.LTEPrimary.FinalMbps {
		t.Errorf("Fig10: WiFi-primary final %.2f should beat LTE-primary %.2f",
			r10.WiFiPrimary.FinalMbps, r10.LTEPrimary.FinalMbps)
	}
	if len(r9.WiFiPrimary.MPTCP) < 10 {
		t.Fatal("too few evolution points")
	}
}

func TestFigure11And12Shapes(t *testing.T) {
	r11 := Figure11(Quick())
	// LTE-better location: MPTCP(LTE) above MPTCP(WiFi); the ratio
	// shrinks toward 1 as flows grow.
	first, last := r11.Ratio[0], r11.Ratio[len(r11.Ratio)-1]
	if first <= 1 {
		t.Errorf("Fig11: small-flow ratio %.2f should favour LTE primary", first)
	}
	if last >= first {
		t.Errorf("Fig11: ratio should shrink with flow size (%.2f -> %.2f)", first, last)
	}
	// The paper's absolute difference grows with flow size; in our
	// reproduction it stays roughly level (see EXPERIMENTS.md) — the
	// essential property is that it does not collapse to zero while
	// the RELATIVE ratio shrinks.
	dFirst := r11.LTEMbps[0] - r11.WiFiMbps[0]
	dLast := r11.LTEMbps[len(r11.LTEMbps)-1] - r11.WiFiMbps[len(r11.WiFiMbps)-1]
	if dLast < dFirst/3 {
		t.Errorf("Fig11: absolute gap collapsed (%.2f -> %.2f)", dFirst, dLast)
	}

	r12 := Figure12(Quick())
	if r12.Ratio[0] >= 1 {
		t.Errorf("Fig12: small-flow ratio %.2f should favour WiFi primary", r12.Ratio[0])
	}
}

func TestCouplingShapes(t *testing.T) {
	r := Coupling(Options{Trials: 1, Locations: 3})
	// Short flows: network choice dominates CC choice.
	if r.NetworkMedianPct["10KB"] <= r.CCMedianPct["10KB"] {
		t.Errorf("10KB: network median %.0f should exceed CC median %.0f",
			r.NetworkMedianPct["10KB"], r.CCMedianPct["10KB"])
	}
	// Long flows: CC choice grows in importance; network choice falls.
	if r.CCMedianPct["1MB"] <= r.CCMedianPct["10KB"] {
		t.Errorf("CC sensitivity should grow with size: %.0f -> %.0f",
			r.CCMedianPct["10KB"], r.CCMedianPct["1MB"])
	}
	if r.NetworkMedianPct["1MB"] >= r.NetworkMedianPct["10KB"] {
		t.Errorf("network sensitivity should fall with size: %.0f -> %.0f",
			r.NetworkMedianPct["10KB"], r.NetworkMedianPct["1MB"])
	}
}

func TestFigure15Panels(t *testing.T) {
	r := Figure15(Quick())
	if len(r.Panels) != 8 {
		t.Fatalf("panels = %d, want 8", len(r.Panels))
	}
	byName := map[string]Fig15Panel{}
	for _, p := range r.Panels {
		byName[p.Name] = p
	}
	// Full-MPTCP panels complete with traffic on both interfaces.
	for _, n := range []string{"a", "b"} {
		p := byName[n]
		if !p.Completed {
			t.Errorf("panel %s did not complete", n)
		}
		if len(p.WiFiEvents) < 100 || len(p.LTEEvents) < 100 {
			t.Errorf("panel %s: expected data on both interfaces", n)
		}
	}
	// Backup panels: the backup interface sees only handshake/teardown.
	if p := byName["c"]; len(p.WiFiEvents) > 40 {
		t.Errorf("panel c: backup WiFi saw %d events, want only SYN/FIN traffic", len(p.WiFiEvents))
	}
	// Panel e/f: explicit down mid-flow still completes (failover).
	for _, n := range []string{"e", "f"} {
		if !byName[n].Completed {
			t.Errorf("panel %s: failover transfer did not complete", n)
		}
	}
	// Panel g: silent unplug stalls past the 68 s replug.
	if p := byName["g"]; !p.Completed || p.CompletedAt < 68e9 {
		t.Errorf("panel g: want completion after replug at 68s, got %v (completed=%v)",
			p.CompletedAt, p.Completed)
	}
	// Panel h: detectable WiFi unplug fails over promptly.
	if p := byName["h"]; !p.Completed || p.CompletedAt > 60e9 {
		t.Errorf("panel h: want prompt completion, got %v", p.CompletedAt)
	}
}

func TestRasterStringBuckets(t *testing.T) {
	events := []time.Duration{0, time.Second, 9 * time.Second}
	strip := rasterString(events, 10*time.Second, 10)
	want := "||       |"
	if strip != want {
		t.Fatalf("strip = %q, want %q", strip, want)
	}
}

func TestFigure16Panels(t *testing.T) {
	r := Figure16(Quick())
	if len(r.Panels) != 4 {
		t.Fatalf("panels = %d, want 4", len(r.Panels))
	}
	get := func(n string) Fig16Panel {
		for _, p := range r.Panels {
			if p.Name == n {
				return p
			}
		}
		t.Fatalf("missing panel %s", n)
		return Fig16Panel{}
	}
	a, b, c, d := get("a"), get("b"), get("c"), get("d")
	// LTE active peaks at 3.2 W, WiFi lower (paper Fig. 16a/b).
	if a.PeakWatts < 3 {
		t.Errorf("LTE active peak %.1f W, want ~3.2", a.PeakWatts)
	}
	if b.PeakWatts >= a.PeakWatts {
		t.Errorf("WiFi active peak %.1f W should be below LTE %.1f", b.PeakWatts, a.PeakWatts)
	}
	// LTE backup still has a long tail; WiFi backup is negligible.
	if c.TailSecs < 10 {
		t.Errorf("LTE backup tail %.1f s, want ~15 (paper Fig. 16c)", c.TailSecs)
	}
	if d.Joules > c.Joules/5 {
		t.Errorf("WiFi backup energy %.1f J should be far below LTE backup %.1f J", d.Joules, c.Joules)
	}
}

func TestEnergyBackupBreakEven(t *testing.T) {
	r := EnergyBackup(Quick())
	// Savings must grow with flow duration and be small below 15 s.
	for i := 1; i < len(r.SavingPct); i++ {
		if r.SavingPct[i] < r.SavingPct[i-1]-1 {
			t.Fatalf("savings should grow with duration: %v", r.SavingPct)
		}
	}
	for i, d := range r.FlowSecs {
		if d < 15 && r.SavingPct[i] > 50 {
			t.Errorf("%.0fs flow: saving %.0f%% too large (paper: little saved under 15s)",
				d, r.SavingPct[i])
		}
	}
	if r.BreakEvenSecs < 15 {
		t.Errorf("break-even %.0f s, want >= 15", r.BreakEvenSecs)
	}
}

func TestFigure17Classification(t *testing.T) {
	r := Figure17(Quick())
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 panels", len(r.Rows))
	}
	labels := map[string]string{}
	for _, row := range r.Rows {
		labels[row.App+"/"+row.Interaction] = row.Label
	}
	if labels["cnn/launch"] != "short-flow dominated" {
		t.Error("CNN launch misclassified")
	}
	if labels["dropbox/click"] != "long-flow dominated" {
		t.Error("Dropbox click misclassified")
	}
	if labels["imdb/click"] != "long-flow dominated" {
		t.Error("IMDB click misclassified")
	}
}

func TestFigure18ShortFlowFindings(t *testing.T) {
	r := Figure18(Quick())
	if len(r.Secs) != 4 || len(r.Secs[0]) != 6 {
		t.Fatalf("shape = %dx%d, want 4x6", len(r.Secs), len(r.Secs[0]))
	}
	cfg := map[string]int{}
	for i, c := range r.Configs {
		cfg[c] = i
	}
	// NC1 (WiFi much better): WiFi-TCP beats LTE-TCP by ~2x.
	nc1 := r.Secs[0]
	if nc1[cfg["WiFi-TCP"]]*1.5 > nc1[cfg["LTE-TCP"]] {
		t.Errorf("NC1: WiFi-TCP %.1fs should be much faster than LTE-TCP %.1fs",
			nc1[cfg["WiFi-TCP"]], nc1[cfg["LTE-TCP"]])
	}
	// NC3 (LTE much better): LTE-TCP beats WiFi-TCP by ~2x.
	nc3 := r.Secs[2]
	if nc3[cfg["LTE-TCP"]]*1.5 > nc3[cfg["WiFi-TCP"]] {
		t.Errorf("NC3: LTE-TCP %.1fs should be much faster than WiFi-TCP %.1fs",
			nc3[cfg["LTE-TCP"]], nc3[cfg["WiFi-TCP"]])
	}
	// Short flows: MPTCP with the right primary is no better than the
	// right single path (within 15%).
	bestTCP := math.Min(nc1[cfg["WiFi-TCP"]], nc1[cfg["LTE-TCP"]])
	bestMPTCP := math.Inf(1)
	for name, i := range cfg {
		if strings.HasPrefix(name, "MPTCP") {
			bestMPTCP = math.Min(bestMPTCP, nc1[i])
		}
	}
	if bestMPTCP < bestTCP*0.85 {
		t.Errorf("NC1: best MPTCP %.1fs much faster than best TCP %.1fs on a short-flow app",
			bestMPTCP, bestTCP)
	}
}

func TestFigure19OracleOrdering(t *testing.T) {
	r := Figure19(Options{Trials: 1, Locations: 8})
	sp := r.Normalized["Single-Path-TCP Oracle"]
	if sp <= 0 || sp >= 1 {
		t.Fatalf("single-path oracle %.2f out of range", sp)
	}
	// Paper finding 4: "for short-flow dominated apps, MPTCP does not
	// outperform the best conventional single-path TCP". In our
	// simulation MPTCP lacks the real-system overheads that made it
	// strictly worse in the paper, so the faithful check is that its
	// advantage over the single-path oracle stays SMALL (the long-flow
	// counterpart test requires a LARGE advantage — the paper's core
	// contrast; see EXPERIMENTS.md).
	bestMPTCP := math.Min(r.Normalized["Decoupled-MPTCP Oracle"], r.Normalized["Coupled-MPTCP Oracle"])
	advantage := 1 - bestMPTCP/sp
	if advantage > 0.15 {
		t.Errorf("short-flow app: MPTCP oracle advantage %.0f%% over single-path, want < 15%%",
			advantage*100)
	}
}

func TestFigure20And21LongFlowFindings(t *testing.T) {
	r := Figure21(Options{Trials: 1, Locations: 8})
	sp := r.Normalized["Single-Path-TCP Oracle"]
	bestMPTCP := math.Inf(1)
	for _, name := range []string{"Decoupled-MPTCP Oracle", "Coupled-MPTCP Oracle"} {
		bestMPTCP = math.Min(bestMPTCP, r.Normalized[name])
	}
	// Paper: for the long-flow app, MPTCP oracles beat the single-path
	// oracle markedly (~50% vs 42% reduction). Require a LARGE
	// advantage, in contrast to the short-flow app's small one.
	advantage := 1 - bestMPTCP/sp
	if advantage < 0.15 {
		t.Errorf("long-flow app: MPTCP oracle advantage %.0f%% over single-path, want > 15%%",
			advantage*100)
	}
}

func TestAblationJoinDelay(t *testing.T) {
	r := AblationJoinDelay(Options{Trials: 1, Locations: 6})
	// Simultaneous joins must not INCREASE the sensitivity; they cannot
	// eliminate it either, because short-flow data is committed to the
	// primary subflow before the second path is usable (see the
	// AblationJoinResult doc comment).
	if r.MedianPctSimultaneous > r.MedianPctSequential*1.10 {
		t.Errorf("simultaneous join sensitivity %.0f%% should not exceed sequential %.0f%%",
			r.MedianPctSimultaneous, r.MedianPctSequential)
	}
	if r.MedianPctSequential < 20 {
		t.Errorf("sequential sensitivity %.0f%% too low — short flows must be primary-dominated",
			r.MedianPctSequential)
	}
}

func TestAblationScheduler(t *testing.T) {
	r := AblationScheduler(Options{Trials: 2})
	if r.RoundRobinMbps >= r.MinRTTMbps {
		t.Errorf("round-robin %.2f should underperform min-SRTT %.2f on disparate paths",
			r.RoundRobinMbps, r.MinRTTMbps)
	}
}

func TestAblationTailTime(t *testing.T) {
	r := AblationTailTime(Quick())
	// Savings shrink as the tail grows.
	for i := 1; i < len(r.SavingPct); i++ {
		if r.SavingPct[i] > r.SavingPct[i-1] {
			t.Fatalf("savings should fall with tail duration: %v", r.SavingPct)
		}
	}
	if r.SavingPct[0] < 80 {
		t.Errorf("zero-tail saving %.0f%%, want large", r.SavingPct[0])
	}
}

func TestAblationSelector(t *testing.T) {
	r := AblationSelector(Options{Trials: 1, Locations: 6})
	ad := r.MeanFCT["adaptive-selector"]
	if ad <= 0 {
		t.Fatal("no adaptive results")
	}
	// The adaptive policy must beat both static single-network
	// policies on the mixed workload.
	if ad >= r.MeanFCT["always-wifi"] {
		t.Errorf("adaptive %.2fs not better than always-wifi %.2fs", ad, r.MeanFCT["always-wifi"])
	}
	if ad >= r.MeanFCT["always-lte"] {
		t.Errorf("adaptive %.2fs not better than always-lte %.2fs", ad, r.MeanFCT["always-lte"])
	}
}

func TestRegistryUniqueAndRunnable(t *testing.T) {
	// Every harness must be registered exactly once — the registry is
	// the single source of truth iterated by cmd/report and the
	// benchmarks — and every registered experiment must run and render
	// under Quick() options.
	all := engine.All()
	if len(all) != 29 {
		t.Fatalf("registry holds %d experiments, want 24 paper + 5 scenario", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Meta.Name == "" || e.Meta.Title == "" {
			t.Fatalf("experiment with empty metadata: %+v", e.Meta)
		}
		if seen[e.Meta.Name] {
			t.Fatalf("duplicate experiment name %q", e.Meta.Name)
		}
		seen[e.Meta.Name] = true
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Meta.Order >= all[i].Meta.Order {
			t.Fatalf("registry order not strictly increasing at %q", all[i].Meta.Name)
		}
	}
	for _, e := range all {
		t.Run(e.Meta.Name, func(t *testing.T) {
			if out := e.Run(Quick()).String(); len(out) < 40 {
				t.Errorf("renderer output too short (%d bytes)", len(out))
			}
		})
	}
}

func TestScenarioShapes(t *testing.T) {
	dlte := ScenarioDualLTE(Quick())
	if len(dlte.Variants) != 2 {
		t.Fatalf("dual-lte variants = %d", len(dlte.Variants))
	}
	similar, disparate := dlte.Variants[0], dlte.Variants[1]
	// Similar twin carriers aggregate on bulk flows (Mohan et al.);
	// their probe disparity stays within the MPTCP-worthwhile bound.
	if similar.BestMPTCPMbps <= similar.BestTCPMbps {
		t.Errorf("similar carriers: MPTCP %.2f should beat best TCP %.2f",
			similar.BestMPTCPMbps, similar.BestTCPMbps)
	}
	if similar.Disparity >= disparate.Disparity {
		t.Errorf("disparity ordering: similar %.1f should be below disparate %.1f",
			similar.Disparity, disparate.Disparity)
	}

	dwlan := ScenarioDualWLAN(Quick())
	nearFar, overlap := dwlan.Variants[0], dwlan.Variants[1]
	// Next to a crowded far AP the selector must stay single-path at
	// every size; in the overlap zone bulk flows go multipath.
	for si, d := range nearFar.Decisions {
		if !strings.HasSuffix(d, "-TCP") {
			t.Errorf("near/far AP size %dKB: selector chose %s, want single-path", nearFar.KB[si], d)
		}
	}
	if d := overlap.Decisions[len(overlap.Decisions)-1]; !strings.HasPrefix(d, "MPTCP") {
		t.Errorf("overlap zone bulk flow: selector chose %s, want MPTCP", d)
	}
	if overlap.BestMPTCPMbps <= overlap.BestTCPMbps {
		t.Errorf("overlap zone: MPTCP %.2f should beat best TCP %.2f",
			overlap.BestMPTCPMbps, overlap.BestTCPMbps)
	}

	w2l := ScenarioWiFi2LTE(Quick())
	// Three subflows must out-aggregate the best single path.
	if w2l.Transfers.BestMPTCPMbps <= w2l.Transfers.BestTCPMbps {
		t.Errorf("wifi+2lte: MPTCP %.2f should beat best TCP %.2f",
			w2l.Transfers.BestMPTCPMbps, w2l.Transfers.BestTCPMbps)
	}
	if len(w2l.Transfers.Ranked) != 3 {
		t.Fatalf("wifi+2lte probe ranked %d paths, want 3", len(w2l.Transfers.Ranked))
	}
	// The generalized oracle must rank all 7 schemes (baseline + 3
	// single-path/CC oracles + 3 per-primary oracles) and some MPTCP
	// oracle must beat the single-path oracle on the long-flow app.
	if len(w2l.SchemeNames) != 7 {
		t.Fatalf("oracle schemes = %d, want 7", len(w2l.SchemeNames))
	}
	if w2l.Conditions == 0 {
		t.Fatal("no oracle conditions completed")
	}
	sp := w2l.Normalized["Single-Path-TCP Oracle"]
	dec := w2l.Normalized["Decoupled-MPTCP Oracle"]
	if sp <= 0 || dec <= 0 || dec >= sp {
		t.Errorf("3-path oracle: decoupled MPTCP %.2f should beat single-path %.2f", dec, sp)
	}
}

func TestScenarioSchedulers(t *testing.T) {
	r := ScenarioSchedulers(Quick())
	if len(r.Schedulers) < 4 {
		t.Fatalf("scheduler variants = %d, want >= 4", len(r.Schedulers))
	}
	if len(r.Variants) != 2 {
		t.Fatalf("variants = %d, want comparable + disparate", len(r.Variants))
	}
	comparable, disparate := r.Variants[0], r.Variants[1]
	if comparable.Disparity >= disparate.Disparity {
		t.Errorf("disparity ordering: comparable %.1f should be below disparate %.1f",
			comparable.Disparity, disparate.Disparity)
	}
	// Config columns: wifi-TCP, lte-TCP, then one MPTCP column per
	// scheduler in presentation order.
	wantCfgs := 2 + len(r.Schedulers)
	for _, v := range r.Variants {
		if len(v.Configs) != wantCfgs {
			t.Fatalf("%s: configs = %d, want %d", v.Name, len(v.Configs), wantCfgs)
		}
	}
	bulk := comparable.Mbps[len(comparable.Mbps)-1]
	minSRTTCol, redundantCol := 2, 4
	// Bulk flows on comparable paths: the default scheduler aggregates
	// past the best single path...
	if bulk[minSRTTCol] <= comparable.BestTCPMbps {
		t.Errorf("comparable bulk: min-SRTT MPTCP %.2f should beat best TCP %.2f",
			bulk[minSRTTCol], comparable.BestTCPMbps)
	}
	// ...while redundant duplication spends capacity on copies and must
	// land below it.
	if bulk[redundantCol] >= bulk[minSRTTCol] {
		t.Errorf("comparable bulk: redundant %.2f should trail min-SRTT %.2f (duplication cost)",
			bulk[redundantCol], bulk[minSRTTCol])
	}
	// Oracle: baseline + single-path oracle + one oracle per scheduler,
	// every scheduler compared against the N-path oracle.
	if want := 2 + len(r.Schedulers); len(r.SchemeNames) != want {
		t.Fatalf("oracle schemes = %d, want %d", len(r.SchemeNames), want)
	}
	if r.Conditions == 0 {
		t.Fatal("no oracle conditions completed")
	}
	for _, name := range r.SchemeNames {
		if v := r.Normalized[name]; v <= 0 {
			t.Errorf("scheme %q missing from the normalisation (got %.2f)", name, v)
		}
	}
	// The long-flow app is where MPTCP oracles win (paper Fig. 21): the
	// default scheduler's oracle must beat the single-path oracle.
	sp := r.Normalized["Single-Path-TCP Oracle"]
	ms := r.Normalized["MPTCP-minsrtt Oracle"]
	if ms >= sp {
		t.Errorf("minsrtt oracle %.2f should beat single-path oracle %.2f on the long-flow app", ms, sp)
	}
}

// quickGolden pins the SHA-256 of every experiment's Quick() output at
// the default seed. The 24 paper-experiment hashes were captured
// BEFORE the N-path PathSet refactor, so this test proves the refactor
// (and any future change — including the pluggable-scheduler refactor,
// whose default MinSRTT path must stay bit-identical) keeps their
// output unchanged; the scenario hashes pin the new experiments'
// determinism the same way.
// A mismatch here means experiment calibration changed: that is a
// deliberate act, never a side effect — recapture with
// `go run ./cmd/report -quick -json` and say so in the commit.
var quickGolden = map[string]string{
	"table1":              "da7ec171726744f9d7456421d6745e4938c3192403275c8ed89cd4aeb4699f62",
	"figure3":             "22446a640e675c83d4c9eec1f5e4ff2607bab2b4e029ccc1e193a268d753b0da",
	"figure4":             "1c11d072532616180c3c921182f7852015e7bd4cd41f23c2221669b045535489",
	"table2":              "04440cf4b58a539247910cd0ae4189985932c0941133169b5f5868839f9d7f1d",
	"figure6":             "dcb9df2bf0fb9db5ec36c6a44e83eaaf6b065d51f437631f9dd27881319184ab",
	"figure7":             "51c41c3740e44a1f1ca1b971759b3c945b46f65320fd5407f1dd9833946d2241",
	"figure8":             "3e5612b3fa567329c8af908fb79c3ab6d03b7bdf735a3d07139b5bbf51cb2f54",
	"figure9":             "11320924064f837b8d914e064a41c7e913600c716039b8642711be8c503ac418",
	"figure10":            "4fbbbaecb892aa3bfcc71bdb4a7b6f61b850de81f490b6514156c5076b168cfd",
	"figure11":            "486f44f39a0cd8f19c6b46610a168d1a62cc4f8895467fe086f851cd00eb5922",
	"figure12":            "3de96e1a4071f9f653d8ad57e7c139c6b9177ff708ca162f0798c17921a2d44d",
	"coupling":            "f2e12fbd77bf0b66f9598b5693e27f919ad051164be1a5742e2ba714b7409628",
	"figure15":            "f34518970449a0d664030f68f52ee40bb70b1c9f208754ee0db781b3d662ef42",
	"figure16":            "b56630d3237317f0798c697f6a2dd0944842a57e75840fb32742d9c7c7f64cdf",
	"energy-backup":       "05196a2ce6b95ac196085390b950ea426c349abe50d5dee03c233265f96646bf",
	"figure17":            "99bab977b60daa79a0176a1a294e3024b2f70f2e48ea0a248df2f0f6020b0f0d",
	"figure18":            "8af855d73dd470b0f50843520db6cdca6c1b1643959fc1ba572bdf4e590dae34",
	"figure19":            "e0bf556880af6a613db05e6b285f8c645bd6ff0dff9ad8f9773d8ef10675f994",
	"figure20":            "e4e09ba0eb6ad2d5103f80566dbb171e07242bd11e8922cd2702a414d714cd45",
	"figure21":            "a6993ee639d4c8e8d4b24780bf627c0e04f5669dcc39855761f08dee42211fd1",
	"ablation-join":       "9d42f291ac71e129bad716445c1a2570194e0647ecfaa4f8ef3fdaccfeda2615",
	"ablation-scheduler":  "c82fa75f9c64cb2c2a494f48c82834396cb78b3bda852ca322d91bb0f538c599",
	"ablation-tail":       "e1addebdf5efc48ef158d2733689a9fd7c6beef2b12038c847a1bdd2948e6c95",
	"ablation-selector":   "482d15dd59d71fd9774ab254a563a39572d644656212a6ec652e7f3fe56afc3a",
	"scenario-dual-lte":   "3a094d0f5193541f4eab9e787e272b9a326deb60e57da7093ee66e77d4bcb5e0",
	"scenario-dual-wlan":  "03c0de5058b4a76c07f021c0bd878196a84f25df348bda564e345a600aaeb8b6",
	"scenario-wifi-2lte":  "5e28cd2f73eac00db28d45bedc82639c45a8c7309199e3bc9478a470f47bff6b",
	"scenario-schedulers": "67643cc4e6ea3321ba0fb504d5ee4630f4f82c67394273aea973639d4075a024",
	"scenario-faults":     "516a09839dd3aeb791eb245d9bc4f32c2d9e8a792cddbc9df8bf48e1cadc0183",
}

func TestQuickOutputGolden(t *testing.T) {
	all := engine.All()
	if len(all) != len(quickGolden) {
		t.Fatalf("registry holds %d experiments, golden table %d", len(all), len(quickGolden))
	}
	o := Quick()
	o.Seed = engine.DefaultSeed
	// Every world a pass builds is audited at its Close, and a violation
	// panics there: a whole pass that audits fewer worlds than it did
	// skipped a Close.
	const quickWorlds = 621
	audited, ran := core.AuditedWorlds(), 0
	for _, e := range all {
		e := e
		t.Run(e.Meta.Name, func(t *testing.T) {
			ran++
			want, ok := quickGolden[e.Meta.Name]
			if !ok {
				t.Fatalf("no golden hash for %q — add one (see quickGolden doc)", e.Meta.Name)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(e.Run(o).String())))
			if got != want {
				t.Errorf("quick output changed: sha256 %s, golden %s", got, want)
			}
		})
	}
	if n := core.AuditedWorlds() - audited; ran == len(all) && n != quickWorlds {
		t.Errorf("the quick pass audited %d worlds, want %d", n, quickWorlds)
	}
}

func TestSweepDeterminism(t *testing.T) {
	// The sweep runner must produce byte-identical output at any worker
	// count. Figure7 exercises a flattened grid whose cells loop over
	// trials; Coupling exercises a three-deep flattening with variable-
	// length per-cell sample lists.
	for _, workers := range []int{runtime.GOMAXPROCS(0), 8} {
		o := Quick()
		seq, par := o, o
		seq.Workers = 1
		par.Workers = workers
		if a, b := Figure7(seq).String(), Figure7(par).String(); a != b {
			t.Errorf("Figure7: %d-worker output differs from sequential", workers)
		}
		if a, b := Coupling(seq).String(), Coupling(par).String(); a != b {
			t.Errorf("Coupling: %d-worker output differs from sequential", workers)
		}
	}
}
