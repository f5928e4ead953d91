package replay

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"multinet/internal/apps"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
)

// fastCond is a clean, fast symmetric condition for functional tests.
var fastCond = phy.Condition{
	Name: "fast",
	WiFi: phy.PathProfile{DownMbps: 20, UpMbps: 8, RTTms: 30},
	LTE:  phy.PathProfile{DownMbps: 15, UpMbps: 6, RTTms: 60},
}

// slowWiFiCond has much better LTE than WiFi.
var slowWiFiCond = phy.Condition{
	Name: "slowwifi",
	WiFi: phy.PathProfile{DownMbps: 1.2, UpMbps: 0.6, RTTms: 110},
	LTE:  phy.PathProfile{DownMbps: 10, UpMbps: 4, RTTms: 65},
}

func TestRecordingStoresAllPairs(t *testing.T) {
	rec := Record(apps.CNNLaunch)
	if rec.Pairs() != len(apps.CNNLaunch.Flows) {
		t.Fatalf("stored %d pairs, want %d", rec.Pairs(), len(apps.CNNLaunch.Flows))
	}
	f := apps.CNNLaunch.Flows[0]
	ex, ok := rec.Lookup(f.ID, f.RequestBytes)
	if !ok || ex.ResponseBytes != f.ResponseBytes {
		t.Fatal("lookup of recorded request failed")
	}
	if _, ok := rec.Lookup(999, 1); ok {
		t.Fatal("lookup of unknown request should fail")
	}
}

func TestReplayTCPCompletes(t *testing.T) {
	rec := Record(apps.CNNLaunch)
	res := Run(1, fastCond, rec, TransportConfig{Name: "WiFi-TCP", Kind: SinglePath, Iface: "wifi"})
	if !res.Completed {
		t.Fatal("replay did not complete")
	}
	if res.ResponseTime <= 0 {
		t.Fatal("bad response time")
	}
	if len(res.Flows) != len(apps.CNNLaunch.Flows) {
		t.Fatalf("flow stats = %d, want %d", len(res.Flows), len(apps.CNNLaunch.Flows))
	}
}

func TestReplayMPTCPCompletes(t *testing.T) {
	rec := Record(apps.CNNLaunch)
	res := Run(1, fastCond, rec, TransportConfig{
		Name: "MPTCP-Decoupled-WiFi", Kind: Multipath, Primary: "wifi",
	})
	if !res.Completed {
		t.Fatal("MPTCP replay did not complete")
	}
}

func TestAllStandardConfigsComplete(t *testing.T) {
	rec := Record(apps.DropboxClick)
	for _, tc := range Configs(WiFiLTEPaths()) {
		res := Run(2, fastCond, rec, tc)
		if !res.Completed {
			t.Fatalf("%s: replay incomplete", tc.Name)
		}
	}
}

func TestSinglePathNetworkChoiceMatters(t *testing.T) {
	// On a condition where LTE is much faster, LTE-TCP must beat
	// WiFi-TCP substantially (paper Fig. 18, conditions 3/4).
	rec := Record(apps.CNNLaunch)
	wifi := Run(3, slowWiFiCond, rec, TransportConfig{Name: "WiFi-TCP", Kind: SinglePath, Iface: "wifi"})
	lte := Run(3, slowWiFiCond, rec, TransportConfig{Name: "LTE-TCP", Kind: SinglePath, Iface: "lte"})
	if !wifi.Completed || !lte.Completed {
		t.Fatal("replays incomplete")
	}
	if float64(wifi.ResponseTime) < 1.5*float64(lte.ResponseTime) {
		t.Fatalf("WiFi-TCP %v should be >> LTE-TCP %v here", wifi.ResponseTime, lte.ResponseTime)
	}
}

func TestLongFlowAppBenefitsFromMPTCP(t *testing.T) {
	// Paper Section 5.2: with comparable paths, the Dropbox (long-flow)
	// replay over MPTCP beats the best single path.
	cond := phy.Condition{
		Name: "comparable",
		WiFi: phy.PathProfile{DownMbps: 6, UpMbps: 2.5, RTTms: 45},
		LTE:  phy.PathProfile{DownMbps: 5, UpMbps: 2, RTTms: 70},
	}
	rec := Record(apps.DropboxClick)
	best := time.Duration(1<<62 - 1)
	for _, name := range []string{"wifi", "lte"} {
		r := Run(4, cond, rec, TransportConfig{Name: name, Kind: SinglePath, Iface: name})
		if !r.Completed {
			t.Fatal("incomplete")
		}
		if r.ResponseTime < best {
			best = r.ResponseTime
		}
	}
	mp := Run(4, cond, rec, TransportConfig{
		Name: "MPTCP-Decoupled-WiFi", Kind: Multipath, Primary: "wifi",
	})
	if !mp.Completed {
		t.Fatal("MPTCP incomplete")
	}
	if mp.ResponseTime >= best {
		t.Fatalf("MPTCP %v not better than best single path %v on the long-flow app", mp.ResponseTime, best)
	}
}

func TestShortFlowAppGainsLittleFromMPTCP(t *testing.T) {
	// Paper Section 5.1: for the short-flow app, MPTCP on the right
	// primary is no better than simply using the right network.
	rec := Record(apps.CNNLaunch)
	lteTCP := Run(5, slowWiFiCond, rec, TransportConfig{Name: "LTE-TCP", Kind: SinglePath, Iface: "lte"})
	mp := Run(5, slowWiFiCond, rec, TransportConfig{
		Name: "MPTCP-Decoupled-LTE", Kind: Multipath, Primary: "lte",
	})
	if !lteTCP.Completed || !mp.Completed {
		t.Fatal("incomplete")
	}
	// MPTCP should not be more than ~15% better than the right single
	// path (it may well be slightly worse).
	if float64(mp.ResponseTime) < 0.85*float64(lteTCP.ResponseTime) {
		t.Fatalf("MPTCP %v unexpectedly much faster than LTE-TCP %v on short flows",
			mp.ResponseTime, lteTCP.ResponseTime)
	}
}

func TestDependentFlowsStartAfterParents(t *testing.T) {
	rec := Record(apps.CNNLaunch)
	res := Run(6, fastCond, rec, TransportConfig{Name: "WiFi-TCP", Kind: SinglePath, Iface: "wifi"})
	byID := map[int]FlowStat{}
	for _, f := range res.Flows {
		byID[f.ID] = f
	}
	for _, spec := range apps.CNNLaunch.Flows {
		if spec.DependsOn < 0 {
			continue
		}
		parent := byID[spec.DependsOn]
		child := byID[spec.ID]
		if child.Start < parent.End {
			t.Fatalf("flow %d started at %v before parent %d ended at %v",
				spec.ID, child.Start, spec.DependsOn, parent.End)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	rec := Record(apps.IMDBClick)
	tc := TransportConfig{Name: "MPTCP-Coupled-WiFi", Kind: Multipath, Primary: "wifi", CC: 1}
	a := Run(7, fastCond, rec, tc)
	b := Run(7, fastCond, rec, tc)
	if a.ResponseTime != b.ResponseTime {
		t.Fatalf("non-deterministic replay: %v vs %v", a.ResponseTime, b.ResponseTime)
	}
}

func TestFlowStatRate(t *testing.T) {
	f := FlowStat{Start: 0, End: time.Second, Bytes: 125_000}
	if got := f.RateKbps(); got < 999 || got > 1001 {
		t.Fatalf("rate = %.1f kbit/s, want 1000", got)
	}
}

func TestSchedulerConfigsForShape(t *testing.T) {
	scheds := []string{"minsrtt", "holaware"}
	tcs := Configs(WiFiLTEPaths(), WithSchedulers(scheds...))
	if want := 2 + len(scheds)*2; len(tcs) != want {
		t.Fatalf("configs = %d, want %d (N TCP + S*N MPTCP)", len(tcs), want)
	}
	if tcs[0].Name != "WiFi-TCP" || tcs[0].Kind != SinglePath ||
		tcs[1].Name != "LTE-TCP" || tcs[1].Kind != SinglePath {
		t.Fatalf("leading TCP configs wrong: %+v %+v", tcs[0], tcs[1])
	}
	want := []struct{ name, primary, sched string }{
		{"MPTCP-minsrtt-WiFi", "wifi", "minsrtt"},
		{"MPTCP-minsrtt-LTE", "lte", "minsrtt"},
		{"MPTCP-holaware-WiFi", "wifi", "holaware"},
		{"MPTCP-holaware-LTE", "lte", "holaware"},
	}
	for i, w := range want {
		tc := tcs[2+i]
		if tc.Name != w.name || tc.Primary != w.primary || tc.Scheduler != w.sched ||
			tc.Kind != Multipath || tc.CC != mptcp.Decoupled {
			t.Errorf("config %d = %+v, want %+v (decoupled CC)", 2+i, tc, w)
		}
	}
}

func TestSchedulerConfigsReplayComplete(t *testing.T) {
	// Every scheduler variant must drive a full replay to completion.
	rec := Record(apps.DropboxClick)
	for _, tc := range Configs(WiFiLTEPaths(), WithSchedulers(mptcp.SchedulerNames()...)) {
		if tc.Kind != Multipath {
			continue
		}
		if res := Run(3, fastCond, rec, tc); !res.Completed {
			t.Fatalf("%s: replay incomplete", tc.Name)
		}
	}
}

// TestConfigsFamilySizes pins the N-path generalisation: N TCP + 2N
// MPTCP configurations for the coupling family, N + S*N for the
// scheduler family.
func TestConfigsFamilySizes(t *testing.T) {
	paths := append(WiFiLTEPaths(), PathName{Iface: "eth", Label: "Eth"})
	if got := len(Configs(paths)); got != 9 {
		t.Fatalf("coupling family over 3 paths = %d configs, want 9", got)
	}
	scheds := mptcp.SchedulerNames()
	if got, want := len(Configs(paths, WithSchedulers(scheds...))), len(paths)*(1+len(scheds)); got != want {
		t.Fatalf("scheduler family over 3 paths = %d configs, want %d", got, want)
	}
}

func TestConfigsWithCouplings(t *testing.T) {
	tcs := Configs(WiFiLTEPaths(), WithCouplings(mptcp.Decoupled))
	if len(tcs) != 4 {
		t.Fatalf("configs = %d, want 2 TCP + 2 MPTCP", len(tcs))
	}
	if tcs[2].Name != "MPTCP-Decoupled-WiFi" || tcs[2].CC != mptcp.Decoupled ||
		tcs[3].Name != "MPTCP-Decoupled-LTE" {
		t.Fatalf("coupling block = %+v %+v", tcs[2], tcs[3])
	}
}

// TestParseFlowConnID holds the hand-written parser to the fmt.Sscanf it
// replaced, on everything flowConnID produces (the only producer), on ids
// carrying a subflow suffix, and on malformed ids both must refuse.
func TestParseFlowConnID(t *testing.T) {
	sscanf := func(s string) (int, bool) {
		var id int
		_, err := fmt.Sscanf(s, "app-f%d", &id)
		return id, err == nil
	}
	ids := []string{
		flowConnID(0), flowConnID(17), flowConnID(1 << 40), "app-f0", "app-f17", "app-f007",
		"app-f17/wifi", "app-f3/lte-b", "app-f5x", "app-f12 ",
		"", "app-f", "app-", "app", "f3", "3", "app-fx", "app-f/wifi", "APP-F3", "xapp-f3", " app-f3",
		"app-f99999999999999999999",
	}
	for _, s := range ids {
		id, ok := parseFlowConnID(s)
		wantID, wantOK := sscanf(s)
		if ok != wantOK || (ok && id != wantID) {
			t.Errorf("parseFlowConnID(%q) = (%d, %v), Sscanf gives (%d, %v)", s, id, ok, wantID, wantOK)
		}
	}
	for _, id := range []int{0, 1, 9, 10, 17, 123456} {
		if got, ok := parseFlowConnID(flowConnID(id)); !ok || got != id {
			t.Errorf("parseFlowConnID(flowConnID(%d)) = (%d, %v)", id, got, ok)
		}
	}
	// Stricter on purpose: Sscanf also took a sign and skipped blanks
	// before the number. No producer writes either, and a negative id
	// indexes no flow.
	for _, s := range []string{"app-f-3", "app-f+3", "app-f 3"} {
		if id, ok := parseFlowConnID(s); ok {
			t.Errorf("parseFlowConnID(%q) = (%d, true), want it refused", s, id)
		}
	}
}

// TestReplayCellBytes pins what one warm cell of the app-replay sweep
// allocates: the short-flow apps over the paper's six transports, each
// world built on the arena the previous one released. The connection
// handles, the per-flow state, the demux tables and the subscription
// lists are the slab's; what is left is the world's fixed frame (Sim,
// host, links, stacks), the flow names and the Result: 4.5 KB in 68
// objects, where the parent commit's cell cost 74.9 KB in 458 and ISSUE
// 22 asked for 12 KB in 250. A sweep that allocates this little runs at
// its scheduling bound on any worker count, because the collector has
// next to nothing to do.
func TestReplayCellBytes(t *testing.T) {
	type cell struct {
		cond phy.Condition
		rec  *Recording
		tc   TransportConfig
		seed int64
	}
	var cells []cell
	for l, loc := range phy.Locations[:5] {
		cond := loc.Condition()
		for a, app := range apps.All {
			if app.LongFlowDominated() {
				continue
			}
			rec := Record(app)
			for c, tc := range Configs(WiFiLTEPaths()) {
				cells = append(cells, cell{cond, rec, tc, int64(1000*l + 10*a + c)})
			}
		}
	}
	pass := func() {
		for _, c := range cells {
			if !Run(c.seed, c.cond, c.rec, c.tc).Completed {
				t.Fatalf("%s on %s at %s did not complete", c.rec.App.Name, c.tc.Name, c.cond.Name)
			}
		}
	}
	pass() // grows the arena to the largest cell
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	n := uint64(len(cells))
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("%d warm cells: %d bytes, %d objects each", n, bytes, objects)
	const maxBytes, maxObjects = 6 << 10, 100
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("a warm replay cell allocates %d bytes in %d objects, want at most %d in %d", bytes, objects, maxBytes, maxObjects)
	}
}
