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
	"fmt"
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
	pairs map[string]Exchange // keyed by request key
}

// requestKey identifies a request the way ReplayShell matches them:
// by stable request attributes (here: flow ID and request size),
// ignoring time-sensitive header fields.
func requestKey(flowID int, reqBytes int) string {
	return fmt.Sprintf("f%d:%d", flowID, reqBytes)
}

// Record captures the app's exchanges into a replayable store.
func Record(app apps.App) *Recording {
	r := &Recording{App: app, pairs: make(map[string]Exchange)}
	for _, f := range app.Flows {
		r.pairs[requestKey(f.ID, f.RequestBytes)] = Exchange{
			FlowID:        f.ID,
			RequestBytes:  f.RequestBytes,
			ResponseBytes: f.ResponseBytes,
			Think:         f.Think,
		}
	}
	return r
}

// Lookup matches a request to its stored response, ReplayShell-style.
func (r *Recording) Lookup(flowID, reqBytes int) (Exchange, bool) {
	e, ok := r.pairs[requestKey(flowID, reqBytes)]
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
		state: make(map[int]*flowState),
	}
	e.clientStack = tcp.NewStack(sim, tcp.ClientSide)
	e.serverStack = tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range host.Ifaces() {
		e.clientStack.Bind(ifc)
		e.serverStack.Bind(ifc)
	}
	if tc.Kind == Multipath {
		e.mpServer = mptcp.NewServer(sim, e.serverStack, mptcp.ServerConfig{CC: tc.CC, Scheduler: tc.Scheduler})
		e.mpServer.OnConn = e.acceptMPTCP
	} else {
		e.serverStack.Accept = e.acceptTCP
	}
	for _, f := range rec.App.Flows {
		e.state[f.ID] = &flowState{spec: f}
	}
	// Start root flows; dependents start as their parents complete.
	for _, f := range rec.App.Flows {
		if f.DependsOn < 0 {
			e.scheduleStart(f.ID, f.Start)
		}
	}
	// Safety horizon: no replayed interaction should take this long.
	sim.RunUntil(10 * time.Minute)

	res := Result{Config: tc.Name, Condition: cond.Name, Completed: true}
	var first, last time.Duration
	firstSet := false
	for _, f := range rec.App.Flows {
		st := e.state[f.ID]
		if !st.done {
			res.Completed = false
			continue
		}
		if !firstSet || st.started < first {
			first = st.started
			firstSet = true
		}
		if st.ended > last {
			last = st.ended
		}
		res.Flows = append(res.Flows, FlowStat{
			ID: f.ID, Start: st.started, End: st.ended,
			Bytes: f.RequestBytes + f.ResponseBytes,
		})
	}
	if res.Completed {
		res.ResponseTime = last - first
	}
	return res
}

type flowState struct {
	spec    apps.Flow
	started time.Duration
	ended   time.Duration
	running bool
	done    bool
}

type engine struct {
	sim         *simnet.Sim
	host        *netem.Host
	rec         *Recording
	tc          TransportConfig
	clientStack *tcp.Stack
	serverStack *tcp.Stack
	mpServer    *mptcp.Server
	state       map[int]*flowState
}

func (e *engine) scheduleStart(flowID int, delay time.Duration) {
	e.sim.After(delay, func() { e.startFlow(flowID) })
}

func (e *engine) startFlow(flowID int) {
	st := e.state[flowID]
	if st.running || st.done {
		return
	}
	st.running = true
	st.started = e.sim.Now()
	if e.tc.Kind == Multipath {
		e.startMPTCPFlow(st)
	} else {
		e.startTCPFlow(st)
	}
}

const flowConnPrefix = "app-f"

// flowConnID names a flow's connection.
func flowConnID(id int) string { return flowConnPrefix + strconv.Itoa(id) }

func (e *engine) startTCPFlow(st *flowState) {
	iface := e.host.Iface(e.tc.Iface)
	if iface == nil {
		panic("replay: unknown iface " + e.tc.Iface)
	}
	spec := st.spec
	e.clientStack.Dial(iface, flowConnID(spec.ID), tcp.Config{Callbacks: tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			c.Send(spec.RequestBytes)
		},
		OnData: func(c *tcp.Conn, total int64) {
			if total >= int64(spec.ResponseBytes) {
				e.completeFlow(spec.ID)
			}
		},
	}})
}

func (e *engine) acceptTCP(c *tcp.Conn) {
	id, ok := parseFlowConnID(c.Flow())
	if !ok {
		return
	}
	spec := e.state[id].spec
	c.SetCallbacks(tcp.Callbacks{
		OnData: func(c *tcp.Conn, total int64) {
			if total >= int64(spec.RequestBytes) {
				ex, ok := e.rec.Lookup(spec.ID, spec.RequestBytes)
				if !ok {
					return // unmatched request: ReplayShell would 404
				}
				e.sim.After(ex.Think, func() {
					c.Send(ex.ResponseBytes)
					c.Close()
				})
			}
		},
	})
}

func (e *engine) startMPTCPFlow(st *flowState) {
	spec := st.spec
	mptcp.Dial(e.sim, e.clientStack, e.host, mptcp.Config{
		ConnID:    flowConnID(spec.ID),
		Primary:   e.tc.Primary,
		CC:        e.tc.CC,
		Scheduler: e.tc.Scheduler,
	}, mptcp.Callbacks{
		OnEstablished: func(c *mptcp.Conn) { c.Send(spec.RequestBytes) },
		OnData: func(c *mptcp.Conn, total int64) {
			if total >= int64(spec.ResponseBytes) {
				e.completeFlow(spec.ID)
			}
		},
	})
}

func (e *engine) acceptMPTCP(c *mptcp.Conn) {
	id, ok := parseFlowConnID(c.ConnID())
	if !ok {
		return
	}
	spec := e.state[id].spec
	c.SetCallbacks(mptcp.Callbacks{
		OnData: func(c *mptcp.Conn, total int64) {
			if total >= int64(spec.RequestBytes) {
				ex, ok := e.rec.Lookup(spec.ID, spec.RequestBytes)
				if !ok {
					return
				}
				e.sim.After(ex.Think, func() {
					c.Send(ex.ResponseBytes)
					c.Close()
				})
			}
		},
	})
}

func (e *engine) completeFlow(id int) {
	st := e.state[id]
	if st.done {
		return
	}
	st.done = true
	st.ended = e.sim.Now()
	// Release dependents.
	for _, f := range e.rec.App.Flows {
		if f.DependsOn == id {
			e.scheduleStart(f.ID, f.Start)
		}
	}
}

// parseFlowConnID is flowConnID's inverse: the decimal id after the
// prefix, whatever follows it. It runs for every accepted connection,
// hence no fmt scanner.
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
