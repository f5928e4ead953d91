// Package replay is the reproduction's Mahimahi (paper Sections 4-5):
// RecordShell captures an app's HTTP exchanges as request/response
// pairs; ReplayShell serves matched responses; MpShell emulates the
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
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// Exchange is one stored request/response pair (RecordShell output).
type Exchange struct {
	FlowID        int
	RequestBytes  int
	ResponseBytes int
	Think         time.Duration
}

// Recording is the stored result of recording one app interaction.
type Recording struct {
	App   apps.App
	pairs map[requestKey]Exchange
	// connIDs names the connection of each flow, in App.Flows order. The
	// names are the same in every replay, so they are built here once.
	connIDs []string
}

// requestKey identifies a request the way ReplayShell matches them:
// by stable request attributes (here: flow ID and request size),
// ignoring time-sensitive header fields.
type requestKey struct{ flowID, reqBytes int }

// Record captures the app's exchanges into a replayable store.
func Record(app apps.App) *Recording {
	r := &Recording{
		App:     app,
		pairs:   make(map[requestKey]Exchange, len(app.Flows)),
		connIDs: make([]string, len(app.Flows)),
	}
	for i, f := range app.Flows {
		r.pairs[requestKey{f.ID, f.RequestBytes}] = Exchange{
			FlowID:        f.ID,
			RequestBytes:  f.RequestBytes,
			ResponseBytes: f.ResponseBytes,
			Think:         f.Think,
		}
		r.connIDs[i] = flowConnID(i)
	}
	return r
}

// Lookup matches a request to its stored response, ReplayShell-style.
func (r *Recording) Lookup(flowID, reqBytes int) (Exchange, bool) {
	e, ok := r.pairs[requestKey{flowID, reqBytes}]
	return e, ok
}

// Pairs returns the number of stored exchanges.
func (r *Recording) Pairs() int { return len(r.pairs) }

// TransportKind selects single-path TCP or MPTCP for a replay.
type TransportKind int

// Transport kinds.
const (
	SinglePath TransportKind = iota
	Multipath
)

// TransportConfig is one replay transport configuration (the paper's
// Section 5 uses six of them over the WiFi+LTE pair).
type TransportConfig struct {
	// Name labels results ("WiFi-TCP", "MPTCP-Coupled-LTE", ...).
	Name string
	// Kind selects TCP or MPTCP.
	Kind TransportKind
	// Iface is the interface used by single-path TCP.
	Iface string
	// Primary is the MPTCP primary-subflow network (subflows open on
	// every interface the emulated host has).
	Primary string
	// CC is the MPTCP congestion coupling.
	CC mptcp.CongestionMode
	// Scheduler names the MPTCP data scheduler, applied at both ends
	// (empty: mptcp.SchedMinSRTT).
	Scheduler string
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
				Name: "MPTCP-" + cc.label + "-" + p.Label, Kind: Multipath, Primary: p.Iface, CC: cc.mode,
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
				Name: "MPTCP-" + s + "-" + p.Label, Kind: Multipath,
				Primary: p.Iface, CC: mptcp.Decoupled, Scheduler: s,
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
		out = append(out, TransportConfig{Name: p.Label + "-TCP", Kind: SinglePath, Iface: p.Iface})
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

// Duration returns the flow's active time.
func (f FlowStat) Duration() time.Duration { return f.End - f.Start }

// RateKbps returns the flow's average rate in kbit/s (the unit of the
// paper's Fig. 17 legend).
func (f FlowStat) RateKbps() float64 {
	d := f.Duration().Seconds()
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
// transport configuration and returns the app response time.
func Run(seed int64, cond phy.Condition, rec *Recording, tc TransportConfig) Result {
	e := &engine{World: core.NewWorld(seed, cond), rec: rec, tc: tc}
	defer e.Close()
	e.flows = simnet.SlabOf[flowState](e.Sim).Make(len(rec.App.Flows))
	if tc.Kind == Multipath {
		srv := mptcp.NewServer(e.Sim, e.Server, mptcp.ServerConfig{CC: tc.CC, Scheduler: tc.Scheduler})
		srv.OnConn = e.acceptMPTCP
	} else {
		e.iface = e.Host.Iface(tc.Iface)
		if e.iface == nil {
			panic("replay: unknown iface " + tc.Iface)
		}
		e.Server.Accept = e.acceptTCP
	}
	for i := range e.flows {
		e.flows[i] = flowState{eng: e, spec: &rec.App.Flows[i], connID: rec.connIDs[i]}
	}
	// Start root flows; dependents start as their parents complete.
	for i := range e.flows {
		if st := &e.flows[i]; st.spec.DependsOn < 0 {
			e.scheduleStart(st)
		}
	}
	// Safety horizon: no replayed interaction should take this long.
	e.Sim.RunUntil(10 * time.Minute)

	// The flow states are the world's and go with it; the result is the
	// caller's.
	res := Result{Config: tc.Name, Condition: cond.Name, Completed: true,
		Flows: make([]FlowStat, 0, len(e.flows))}
	var first, last time.Duration
	for i := range e.flows {
		st := &e.flows[i]
		if !st.done {
			res.Completed = false
			continue
		}
		if len(res.Flows) == 0 || st.started < first {
			first = st.started
		}
		if st.ended > last {
			last = st.ended
		}
		res.Flows = append(res.Flows, FlowStat{
			ID: st.spec.ID, Start: st.started, End: st.ended,
			Bytes: st.spec.RequestBytes + st.spec.ResponseBytes,
		})
	}
	if res.Completed {
		res.ResponseTime = last - first
	}
	return res
}

// flowState is one flow of the replay in progress. The states are a
// slice on the Sim's slab in App.Flows order. Each is the owner of both
// ends of its flow's connection, so a hook finds its flow from the
// connection it is handed and no flow needs hooks of its own.
type flowState struct {
	eng     *engine
	spec    *apps.Flow
	connID  string
	started time.Duration
	ended   time.Duration
	running bool
	done    bool
	// The server's end of the flow's connection (one of the two) and the
	// response it owes once the think time is over.
	srvTCP   *tcp.Conn
	srvMP    *mptcp.Conn
	response int
}

// engine is one replay in progress: the world it runs on (released by
// Run).
type engine struct {
	core.World
	iface *netem.Iface // single-path replays dial here
	rec   *Recording
	tc    TransportConfig
	flows []flowState
}

// scheduleStart opens st's connection after the flow's start delay.
func (e *engine) scheduleStart(st *flowState) {
	e.Sim.AfterArg(st.spec.Start, startFlow, st)
}

func startFlow(a any) {
	st := a.(*flowState)
	e := st.eng
	if st.running || st.done {
		return
	}
	st.running = true
	st.started = e.Sim.Now()
	if e.tc.Kind == Multipath {
		mptcp.Dial(e.Sim, e.Client, e.Host, mptcp.Config{
			ConnID:    st.connID,
			Primary:   e.tc.Primary,
			CC:        e.tc.CC,
			Scheduler: e.tc.Scheduler,
		}, mptcp.Callbacks{OnEstablished: mpEstablished, OnData: mpResponseData}).SetOwner(st)
	} else {
		e.Client.Dial(e.iface, st.connID, tcp.Config{
			Callbacks: tcp.Callbacks{OnEstablished: tcpEstablished, OnData: tcpResponseData},
			Owner:     st,
		})
	}
}

// flowConnID names the connection of the i-th flow of a recording.
func flowConnID(i int) string { return "app-f" + strconv.Itoa(i) }

// flowNamed is the flow whose connection is named connID; nil for a
// stranger. An accept asks once per connection.
func (e *engine) flowNamed(connID string) *flowState {
	if i := slices.Index(e.rec.connIDs, connID); i >= 0 {
		return &e.flows[i]
	}
	return nil
}

// Every connection of every replay is wired with the same hooks, plain
// functions that build no closure. Each finds its flow as the
// connection's owner, set once: at Dial on the client, at accept on the
// server.

func tcpEstablished(c *tcp.Conn) { c.Send(c.Owner().(*flowState).spec.RequestBytes) }

func tcpResponseData(c *tcp.Conn, total int64) { c.Owner().(*flowState).responseData(total) }

func mpEstablished(c *mptcp.Conn) { c.Send(c.Owner().(*flowState).spec.RequestBytes) }

func mpResponseData(c *mptcp.Conn, total int64) { c.Owner().(*flowState).responseData(total) }

// responseData is the client's OnData: the flow is complete once the
// whole response has arrived.
func (st *flowState) responseData(total int64) {
	if total >= int64(st.spec.ResponseBytes) {
		st.eng.completeFlow(st)
	}
}

func (e *engine) acceptTCP(c *tcp.Conn) {
	if st := e.flowNamed(c.Flow()); st != nil {
		st.srvTCP = c
		c.SetOwner(st)
		c.SetCallbacks(tcp.Callbacks{OnData: tcpRequestData})
	}
}

func (e *engine) acceptMPTCP(c *mptcp.Conn) {
	if st := e.flowNamed(c.ConnID()); st != nil {
		st.srvMP = c
		c.SetOwner(st)
		c.SetCallbacks(mptcp.Callbacks{OnData: mpRequestData})
	}
}

func tcpRequestData(c *tcp.Conn, total int64) { c.Owner().(*flowState).requestData(total) }

func mpRequestData(c *mptcp.Conn, total int64) { c.Owner().(*flowState).requestData(total) }

// requestData is the server's OnData: once the whole request has
// arrived it is matched ReplayShell-style and answered after the
// recorded think time.
func (st *flowState) requestData(total int64) {
	if total < int64(st.spec.RequestBytes) {
		return
	}
	ex, ok := st.eng.rec.Lookup(st.spec.ID, st.spec.RequestBytes)
	if !ok {
		return // unmatched request: ReplayShell would 404
	}
	st.response = ex.ResponseBytes
	st.eng.Sim.AfterArg(ex.Think, respond, st)
}

func respond(a any) {
	st := a.(*flowState)
	if st.srvMP != nil {
		st.srvMP.Send(st.response)
		st.srvMP.Close()
	} else {
		st.srvTCP.Send(st.response)
		st.srvTCP.Close()
	}
}

func (e *engine) completeFlow(st *flowState) {
	if st.done {
		return
	}
	st.done = true
	st.ended = e.Sim.Now()
	// Release dependents.
	for i := range e.flows {
		if dep := &e.flows[i]; dep.spec.DependsOn == st.spec.ID {
			e.scheduleStart(dep)
		}
	}
}
