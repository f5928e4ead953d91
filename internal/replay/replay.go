// Package replay is the reproduction's Mahimahi (paper Sections 4-5):
// RecordShell captures an app's HTTP exchanges as request/response
// pairs; ReplayShell answers each request on its connection with the
// recorded response, one core.Flow per exchange; MpShell emulates the
// WiFi and LTE links of a network condition so the same app traffic can
// be replayed under every transport configuration the paper compares
// (single-path TCP on either network, and the four MPTCP variants).
//
// The app response time metric matches the paper's: the time between
// the start of the first HTTP connection and the end of the last one.
package replay

import (
	"slices"
	"strconv"
	"time"

	"multinet/internal/apps"
	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
)

// Recording is the stored result of recording one app interaction: its
// request/response exchanges, one connection each, as RecordShell
// captured them.
type Recording struct {
	App apps.App
	// connIDs names the connection of each flow, in App.Flows order. The
	// names are the same in every replay, so they are built here once.
	connIDs []string
}

// Record captures the app's exchanges into a replayable store.
func Record(app apps.App) *Recording {
	r := &Recording{App: app, connIDs: make([]string, len(app.Flows))}
	for i := range app.Flows {
		r.connIDs[i] = "app-f" + strconv.Itoa(i)
	}
	return r
}

// TransportConfig is one replay transport configuration (the paper's
// Section 5 uses six of them over the WiFi+LTE pair): the transfer
// configuration every connection of the replay uses, and its label.
type TransportConfig struct {
	// Name labels results ("WiFi-TCP", "MPTCP-Coupled-LTE", ...).
	Name string
	core.Config
}

// PathName pairs an interface name with the display label used in
// configuration names ("wifi" → "WiFi").
type PathName struct {
	Iface, Label string
}

// WiFiLTEPaths is the paper's classic pair.
func WiFiLTEPaths() []PathName {
	return []PathName{{Iface: "wifi", Label: "WiFi"}, {Iface: "lte", Label: "LTE"}}
}

// Configs generates the paper's transport-configuration family for an
// arbitrary path set, in its legend order: single-path TCP per path,
// then coupled and then decoupled MPTCP per primary — N + 2N
// configurations for N paths, the family of Figs. 18-21.
func Configs(paths []PathName) []TransportConfig {
	out := singlePathConfigs(paths, 2)
	for _, cc := range [...]struct {
		mode  mptcp.CongestionMode
		label string
	}{{mptcp.Coupled, "Coupled"}, {mptcp.Decoupled, "Decoupled"}} {
		for _, p := range paths {
			out = append(out, TransportConfig{
				Name: "MPTCP-" + cc.label + "-" + p.Label, Config: core.Config{Transport: core.MPTCP, Primary: p.Iface, CC: cc.mode},
			})
		}
	}
	return out
}

// SchedulerConfigs generates the scheduler-comparison family: single-path
// TCP per path, then per named scheduler, in order, one decoupled-CC
// MPTCP configuration per primary ("MPTCP-<scheduler>-<Label>").
// Decoupled CC isolates the scheduler effect from congestion coupling
// (the paper's Figs. 19/21 show decoupled is the stronger MPTCP
// variant).
func SchedulerConfigs(paths []PathName, schedulers []string) []TransportConfig {
	out := singlePathConfigs(paths, len(schedulers))
	for _, s := range schedulers {
		for _, p := range paths {
			out = append(out, TransportConfig{
				Name:   "MPTCP-" + s + "-" + p.Label,
				Config: core.Config{Transport: core.MPTCP, Primary: p.Iface, CC: mptcp.Decoupled, Scheduler: s},
			})
		}
	}
	return out
}

// singlePathConfigs starts a family with single-path TCP on every path,
// with room for perPath MPTCP configurations per path after it.
func singlePathConfigs(paths []PathName, perPath int) []TransportConfig {
	out := make([]TransportConfig, 0, len(paths)*(1+perPath))
	for _, p := range paths {
		out = append(out, TransportConfig{Name: p.Label + "-TCP", Config: core.Config{Transport: core.TCP, Iface: p.Iface}})
	}
	return out
}

// FlowStat records one replayed connection's timing.
type FlowStat struct {
	ID    int
	Start time.Duration
	End   time.Duration
	Bytes int
}

// RateKbps returns the flow's average rate over its active time in
// kbit/s (the unit of the paper's Fig. 17 legend).
func (f FlowStat) RateKbps() float64 {
	d := (f.End - f.Start).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.Bytes) * 8 / d / 1e3
}

// Result is the outcome of one replay.
type Result struct {
	Config       string
	Condition    string
	ResponseTime time.Duration
	Completed    bool
	Flows        []FlowStat
}

// Run replays a recording under a network condition with the given
// transport configuration and returns the app response time. Each
// exchange is one core.Flow; root flows start after their start delay,
// and a dependent one after its own once its parent is done.
func Run(seed int64, cond phy.Condition, rec *Recording, tc TransportConfig) Result {
	fs := core.NewFlows(core.NewWorld(seed, cond))
	defer fs.Close()
	fs.Open(len(rec.App.Flows))
	for i := range rec.App.Flows {
		spec := &rec.App.Flows[i]
		f := fs.Flow(i)
		*f = core.Flow{Name: rec.connIDs[i], Config: tc.Config, Request: spec.RequestBytes,
			Response: spec.ResponseBytes, Think: spec.Think, OnDone: startDependents, Owner: rec}
		if spec.DependsOn < 0 {
			fs.StartAfter(f, spec.Start)
		}
	}
	// Safety horizon: no replayed interaction should take this long.
	fs.Sim.RunUntil(10 * time.Minute)

	// The flow records are the world's and go with it; the result is the
	// caller's.
	res := Result{Config: tc.Name, Condition: cond.Name, Completed: true,
		Flows: make([]FlowStat, 0, len(rec.App.Flows))}
	var first, last time.Duration
	for i := range rec.App.Flows {
		f := fs.Flow(i)
		if f.Done == 0 {
			res.Completed = false
			continue
		}
		if len(res.Flows) == 0 || f.Started < first {
			first = f.Started
		}
		last = max(last, f.Done)
		res.Flows = append(res.Flows, FlowStat{
			ID: rec.App.Flows[i].ID, Start: f.Started, End: f.Done, Bytes: f.Request + f.Response,
		})
	}
	if res.Completed {
		res.ResponseTime = last - first
	}
	return res
}

// startDependents releases the flows waiting on f.
//
//multinet:hotpath
func startDependents(fs *core.Flows, f *core.Flow) {
	rec := f.Owner.(*Recording)
	id := rec.App.Flows[slices.Index(rec.connIDs, f.Name)].ID
	for i := range rec.App.Flows {
		if spec := &rec.App.Flows[i]; spec.DependsOn == id {
			fs.StartAfter(fs.Flow(i), spec.Start)
		}
	}
}
