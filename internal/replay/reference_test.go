package replay

import (
	"slices"
	"time"

	"multinet/internal/apps"
	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// refRun is the replay engine as it was before replay ran on core's flow
// record, kept as the reference FuzzReplayMatchesReference holds Run to:
// its own flow state, accept functions, hooks and dial switch. Its
// domain is flows with a request and a response of at least one byte.
// Two things changed from the original: the transport comes from
// TransportConfig's core.Config, and the server answers from the flow's
// own exchange instead of a lookup table that always held it.
func refRun(seed int64, cond phy.Condition, rec *Recording, tc TransportConfig) Result {
	e := &refEngine{World: core.NewWorld(seed, cond), rec: rec, tc: tc}
	defer e.Close()
	e.flows = simnet.SlabOf[refFlow](e.Sim).Make(len(rec.App.Flows))
	if tc.Transport == core.MPTCP {
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
		e.flows[i] = refFlow{eng: e, spec: &rec.App.Flows[i], connID: rec.connIDs[i]}
	}
	// Start root flows; dependents start as their parents complete.
	for i := range e.flows {
		if st := &e.flows[i]; st.spec.DependsOn < 0 {
			e.scheduleStart(st)
		}
	}
	// Safety horizon: no replayed interaction should take this long.
	e.Sim.RunUntil(10 * time.Minute)

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

// refFlow is one flow of the replay in progress. The states are a slice
// on the Sim's slab in App.Flows order. Each is the owner of both ends of
// its flow's connection.
type refFlow struct {
	eng     *refEngine
	spec    *apps.Flow
	connID  string
	started time.Duration
	ended   time.Duration
	running bool
	done    bool
	// The server's end of the flow's connection (one of the two).
	srvTCP *tcp.Conn
	srvMP  *mptcp.Conn
}

// refEngine is one replay in progress: the world it runs on.
type refEngine struct {
	core.World
	iface *netem.Iface // single-path replays dial here
	rec   *Recording
	tc    TransportConfig
	flows []refFlow
}

func (e *refEngine) scheduleStart(st *refFlow) {
	e.Sim.AfterArg(st.spec.Start, refStartFlow, st)
}

func refStartFlow(a any) {
	st := a.(*refFlow)
	e := st.eng
	if st.running || st.done {
		return
	}
	st.running = true
	st.started = e.Sim.Now()
	if e.tc.Transport == core.MPTCP {
		mptcp.Dial(e.Sim, e.Client, e.Host, mptcp.Config{
			ConnID:    st.connID,
			Primary:   e.tc.Primary,
			CC:        e.tc.CC,
			Scheduler: e.tc.Scheduler,
		}, mptcp.Callbacks{OnEstablished: refMPEstablished, OnData: refMPResponseData}).SetOwner(st)
	} else {
		e.Client.Dial(e.iface, st.connID, tcp.Config{
			Callbacks: tcp.Callbacks{OnEstablished: refTCPEstablished, OnData: refTCPResponseData},
			Owner:     st,
		})
	}
}

func (e *refEngine) flowNamed(connID string) *refFlow {
	if i := slices.Index(e.rec.connIDs, connID); i >= 0 {
		return &e.flows[i]
	}
	return nil
}

func refTCPEstablished(c *tcp.Conn) { c.Send(c.Owner().(*refFlow).spec.RequestBytes) }

func refTCPResponseData(c *tcp.Conn, total int64) { c.Owner().(*refFlow).responseData(total) }

func refMPEstablished(c *mptcp.Conn) { c.Send(c.Owner().(*refFlow).spec.RequestBytes) }

func refMPResponseData(c *mptcp.Conn, total int64) { c.Owner().(*refFlow).responseData(total) }

func (st *refFlow) responseData(total int64) {
	if total >= int64(st.spec.ResponseBytes) {
		st.eng.completeFlow(st)
	}
}

func (e *refEngine) acceptTCP(c *tcp.Conn) {
	if st := e.flowNamed(c.Flow()); st != nil {
		st.srvTCP = c
		c.SetOwner(st)
		c.SetCallbacks(tcp.Callbacks{OnData: refTCPRequestData})
	}
}

func (e *refEngine) acceptMPTCP(c *mptcp.Conn) {
	if st := e.flowNamed(c.ConnID()); st != nil {
		st.srvMP = c
		c.SetOwner(st)
		c.SetCallbacks(mptcp.Callbacks{OnData: refMPRequestData})
	}
}

func refTCPRequestData(c *tcp.Conn, total int64) { c.Owner().(*refFlow).requestData(total) }

func refMPRequestData(c *mptcp.Conn, total int64) { c.Owner().(*refFlow).requestData(total) }

// requestData is the server's OnData: once the whole request has
// arrived it is answered after the recorded think time.
func (st *refFlow) requestData(total int64) {
	if total < int64(st.spec.RequestBytes) {
		return
	}
	st.eng.Sim.AfterArg(st.spec.Think, refRespond, st)
}

func refRespond(a any) {
	st := a.(*refFlow)
	if st.srvMP != nil {
		st.srvMP.Send(st.spec.ResponseBytes)
		st.srvMP.Close()
	} else {
		st.srvTCP.Send(st.spec.ResponseBytes)
		st.srvTCP.Close()
	}
}

func (e *refEngine) completeFlow(st *refFlow) {
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
