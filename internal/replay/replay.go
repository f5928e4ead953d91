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
	"strconv"
	"strings"
	"time"

	"multinet/internal/apps"
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

// ConfigsOption customises the family Configs generates.
type ConfigsOption func(*configsOptions)

type configsOptions struct {
	couplings  []mptcp.CongestionMode
	schedulers []string
}

// WithCouplings selects which congestion couplings the MPTCP block
// enumerates, in order. The default is Coupled then Decoupled — the
// paper's legend order.
func WithCouplings(modes ...mptcp.CongestionMode) ConfigsOption {
	return func(o *configsOptions) { o.couplings = modes }
}

// WithSchedulers switches the MPTCP block to the scheduler-comparison
// family: per named scheduler, in order, one decoupled-CC MPTCP
// configuration per primary ("MPTCP-<scheduler>-<Label>"). Decoupled
// CC isolates the scheduler effect from congestion coupling (the
// paper's Figs. 19/21 show decoupled is the stronger MPTCP variant).
func WithSchedulers(names ...string) ConfigsOption {
	return func(o *configsOptions) { o.schedulers = names }
}

// Configs generates the transport-configuration family for an
// arbitrary path set, in the paper's legend order: single-path TCP per
// path first, then the MPTCP block. Without options the MPTCP block
// enumerates congestion couplings (coupled then decoupled MPTCP per
// primary — N + 2N configurations for N paths, the paper's Fig. 18/20
// family); WithSchedulers replaces it with the scheduler comparison
// and WithCouplings narrows or reorders the couplings.
func Configs(paths []PathName, opts ...ConfigsOption) []TransportConfig {
	o := configsOptions{couplings: []mptcp.CongestionMode{mptcp.Coupled, mptcp.Decoupled}}
	for _, opt := range opts {
		opt(&o)
	}
	out := make([]TransportConfig, 0, len(paths)*(1+len(o.couplings)+len(o.schedulers)))
	for _, p := range paths {
		out = append(out, TransportConfig{Name: p.Label + "-TCP", Kind: SinglePath, Iface: p.Iface})
	}
	if o.schedulers != nil {
		for _, s := range o.schedulers {
			for _, p := range paths {
				out = append(out, TransportConfig{
					Name: "MPTCP-" + s + "-" + p.Label, Kind: Multipath,
					Primary: p.Iface, CC: mptcp.Decoupled, Scheduler: s,
				})
			}
		}
		return out
	}
	for _, cc := range o.couplings {
		label := "Coupled"
		if cc == mptcp.Decoupled {
			label = "Decoupled"
		}
		for _, p := range paths {
			out = append(out, TransportConfig{
				Name: "MPTCP-" + label + "-" + p.Label, Kind: Multipath, Primary: p.Iface, CC: cc,
			})
		}
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
	sim := simnet.New(seed)
	defer sim.Release()
	host := phy.BuildHost(sim, cond)
	e := &engine{
		sim:   sim,
		host:  host,
		rec:   rec,
		tc:    tc,
		flows: simnet.SlabOf[flowState](sim).Make(len(rec.App.Flows)),
	}
	e.clientStack = tcp.NewStack(sim, tcp.ClientSide)
	e.serverStack = tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range host.Ifaces() {
		e.clientStack.Bind(ifc)
		e.serverStack.Bind(ifc)
	}
	// Every connection of the replay is wired with the same hooks, built
	// here once: each finds its flow by the connection's name.
	if tc.Kind == Multipath {
		e.mpClient = mptcp.Callbacks{OnEstablished: e.mpEstablished, OnData: e.mpResponseData}
		e.mpServer = mptcp.Callbacks{OnData: e.mpRequestData}
		srv := mptcp.NewServer(sim, e.serverStack, mptcp.ServerConfig{CC: tc.CC, Scheduler: tc.Scheduler})
		srv.OnConn = e.acceptMPTCP
	} else {
		e.iface = host.Iface(tc.Iface)
		if e.iface == nil {
			panic("replay: unknown iface " + tc.Iface)
		}
		e.tcpClient = tcp.Callbacks{OnEstablished: e.tcpEstablished, OnData: e.tcpResponseData}
		e.tcpServer = tcp.Callbacks{OnData: e.tcpRequestData}
		e.serverStack.Accept = e.acceptTCP
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
	sim.RunUntil(10 * time.Minute)

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
// slice on the Sim's slab in App.Flows order, which is also the number
// in the connection's name (flowConnID), so a hook finds its flow from
// the connection it is handed and no flow needs hooks of its own.
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

type engine struct {
	sim         *simnet.Sim
	host        *netem.Host
	iface       *netem.Iface // single-path replays dial here
	rec         *Recording
	tc          TransportConfig
	clientStack *tcp.Stack
	serverStack *tcp.Stack
	flows       []flowState

	tcpClient, tcpServer tcp.Callbacks
	mpClient, mpServer   mptcp.Callbacks
}

// scheduleStart opens st's connection after the flow's start delay.
func (e *engine) scheduleStart(st *flowState) {
	e.sim.AfterArg(st.spec.Start, startFlow, st)
}

func startFlow(a any) {
	st := a.(*flowState)
	e := st.eng
	if st.running || st.done {
		return
	}
	st.running = true
	st.started = e.sim.Now()
	if e.tc.Kind == Multipath {
		mptcp.Dial(e.sim, e.clientStack, e.host, mptcp.Config{
			ConnID:    st.connID,
			Primary:   e.tc.Primary,
			CC:        e.tc.CC,
			Scheduler: e.tc.Scheduler,
		}, e.mpClient)
	} else {
		e.clientStack.Dial(e.iface, st.connID, tcp.Config{Callbacks: e.tcpClient})
	}
}

const flowConnPrefix = "app-f"

// flowConnID names the connection of the i-th flow of a recording.
func flowConnID(i int) string { return flowConnPrefix + strconv.Itoa(i) }

// flowOf is the flow whose connection is named connID; nil for a
// stranger.
func (e *engine) flowOf(connID string) *flowState {
	i, ok := parseFlowConnID(connID)
	if !ok || i >= len(e.flows) {
		return nil
	}
	return &e.flows[i]
}

func (e *engine) tcpEstablished(c *tcp.Conn) { c.Send(e.flowOf(c.Flow()).spec.RequestBytes) }

func (e *engine) tcpResponseData(c *tcp.Conn, total int64) { e.flowOf(c.Flow()).responseData(total) }

func (e *engine) mpEstablished(c *mptcp.Conn) { c.Send(e.flowOf(c.ConnID()).spec.RequestBytes) }

func (e *engine) mpResponseData(c *mptcp.Conn, total int64) {
	e.flowOf(c.ConnID()).responseData(total)
}

// responseData is the client's OnData: the flow is complete once the
// whole response has arrived.
func (st *flowState) responseData(total int64) {
	if total >= int64(st.spec.ResponseBytes) {
		st.eng.completeFlow(st)
	}
}

func (e *engine) acceptTCP(c *tcp.Conn) {
	if st := e.flowOf(c.Flow()); st != nil {
		st.srvTCP = c
		c.SetCallbacks(e.tcpServer)
	}
}

func (e *engine) acceptMPTCP(c *mptcp.Conn) {
	if st := e.flowOf(c.ConnID()); st != nil {
		st.srvMP = c
		c.SetCallbacks(e.mpServer)
	}
}

func (e *engine) tcpRequestData(c *tcp.Conn, total int64) { e.flowOf(c.Flow()).requestData(total) }

func (e *engine) mpRequestData(c *mptcp.Conn, total int64) {
	e.flowOf(c.ConnID()).requestData(total)
}

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
	st.eng.sim.AfterArg(ex.Think, respond, st)
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
	st.ended = e.sim.Now()
	// Release dependents.
	for i := range e.flows {
		if dep := &e.flows[i]; dep.spec.DependsOn == st.spec.ID {
			e.scheduleStart(dep)
		}
	}
}

// parseFlowConnID reads the flow's number back out of a connection
// name: the decimal after the prefix, whatever follows it. It runs for
// every hook call, hence no fmt scanner.
func parseFlowConnID(s string) (int, bool) {
	rest, ok := strings.CutPrefix(s, flowConnPrefix)
	if !ok {
		return 0, false
	}
	end := 0
	for end < len(rest) && '0' <= rest[end] && rest[end] <= '9' {
		end++
	}
	id, err := strconv.Atoi(rest[:end])
	return id, err == nil
}
