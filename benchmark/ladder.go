package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"multinet/internal/experiments/engine"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/selector"
	"multinet/internal/serve"
	"multinet/internal/simnet"
)

// The traced run measures every layer. Spans recorded from the
// benchmark's side cannot see inside Sim.Run, which encloses simnet,
// netem, tcp and mptcp, so self time comes from a ladder: rung k drives
// layer k over the layers below it, and
//
//	self(k) = time(k) − Σ counts × unit cost(rungs below k).
//
// Rungs 0 and 1 (simnet, netem) are loops of their own; rungs 2 to 4
// are one pass of tcp-bulk, mptcp-bulk and app-replay. The numbers are
// estimates: a rung's unit cost is measured on a hot loop and the
// workload pays it on a colder cache.

// tracedRun is the --trace 1 run: one pass of the workload without
// spans and one with, then one traced pass of every other rung, the
// in-process selector and serve probes, and a short run against the
// real server. Its work is fixed; --seconds does not size it.
func tracedRun(cfg config, w workloadDef) (result, error) {
	host, err := newHostSpeed(cfg.scale, 1)
	if err != nil {
		return result{}, err
	}
	defer host.close()
	rec := newRecorder()
	inst, err := w.setup(cfg)
	if err != nil {
		return result{}, err
	}
	host.sampleSerial()
	// Sweep cells are traced one at a time; HTTP latency is defined at
	// nproc connections.
	workers := 1
	if w.kind == "serve" {
		workers = cfg.nproc
	}
	plain, err := inst.pass(workers, nil)
	if err != nil {
		inst.close()
		return result{}, err
	}
	spansBefore := rec.count()
	own, err := inst.pass(workers, rec)
	if err != nil {
		inst.close()
		return result{}, err
	}
	spans := rec.count() - spansBefore
	host.sampleSerial()
	attempted, failed := plain.ops+own.ops, plain.failed+own.failed
	fin, err := inst.close()
	if err != nil {
		return result{}, err
	}
	failed += fin.failed

	p, err := runLadder(cfg, rec, host, w.kind, own)
	if err != nil {
		return result{}, err
	}
	attempted += p.attempted
	failed += p.failed
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: p.metrics}
	// The difference between one traced and one untraced pass is far
	// below what two passes differ by on this box (±10 %), so the
	// overhead is computed from its cause: the spans the traced pass
	// recorded, at the measured cost of recording one.
	res.put("trace.overhead_share", ratio(float64(spans)*spanCostNS(), float64(plain.wall.Nanoseconds())))
	fmt.Fprintf(os.Stderr, "benchmark: %s: untraced pass %.4f s, traced pass %.4f s, %d spans\n",
		cfg.workload, plain.wall.Seconds(), own.wall.Seconds(), spans)
	res.put("allocs_per_pass", float64(plain.mallocs))
	host.correct(res.Metrics)
	res.put("host.speed_factor", host.factor(host.serial))
	path, err := rec.write(cfg, res.Metrics)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: trace written to %s\n", path)
	return res, nil
}

// ladderOut is what the ladder measured.
type ladderOut struct {
	metrics           map[string]metric
	attempted, failed int
}

// runLadder measures every layer and assembles the per-layer metrics.
// own is the last traced pass of the workload being run; the rung that
// workload is the home of uses it in place of a pass of its own.
func runLadder(cfg config, rec *recorder, host *hostSpeed, kind string, own passStats) (ladderOut, error) {
	out := ladderOut{metrics: map[string]metric{}}
	res := result{Metrics: out.metrics}
	homePass := func(k string, setup func(config) (instance, error)) (passStats, error) {
		if k == kind {
			return own, nil
		}
		inst, err := setup(cfg)
		if err != nil {
			return passStats{}, err
		}
		st, err := inst.pass(1, rec)
		if err != nil {
			inst.close()
			return passStats{}, err
		}
		fin, err := inst.close()
		out.attempted += st.ops
		out.failed += st.failed + fin.failed
		host.sampleSerial()
		return st, err
	}

	// Rung 0: simnet.
	evNS := simnetRung(cfg.scale.rungEvents)
	res.put("simnet.ns_per_event", evNS)

	// Rung 1: netem over simnet, on both link kinds.
	wifi := phy.Locations[0].WiFi
	wifi.LossPct = 0
	varNS, varEv := netemRung(wifi, cfg.scale.rungPackets)
	wifi.Variability = 0
	fixNS, fixEv := netemRung(wifi, cfg.scale.rungPackets)
	res.put("netem.fixed.ns_per_pkt", fixNS)
	res.put("netem.var.ns_per_pkt", varNS)
	res.put("phy.ns_per_opportunity", opportunityRung(cfg.scale.rungPackets))
	host.sampleSerial()

	// Rung 2: tcp over netem, one tcp-bulk pass.
	t, err := homePass("tcp", setupTCP)
	if err != nil {
		return out, err
	}
	c := t.sim
	wall := float64(t.wall.Nanoseconds())
	res.put("simnet.events", float64(c.events))
	res.put("simnet.events_per_pkt", ratio(float64(c.events), float64(c.pktsSent)))
	res.put("simnet.sim_s_per_wall_s", ratio(c.simTime.Seconds(), t.wall.Seconds()))
	res.put("simnet.est_share", ratio(float64(c.events)*evNS, wall))
	res.put("netem.pkts_sent", float64(c.pktsSent))
	res.put("netem.pkts_delivered", float64(c.pktsDelivered))
	res.put("netem.drop_queue", float64(c.dropQueue))
	res.put("netem.drop_loss", float64(c.dropLoss))
	res.put("netem.elided_share", ratio(float64(c.elided), float64(c.pktsSent)))
	netemSelf := float64(c.pktsFixed)*(fixNS-fixEv*evNS) + float64(c.pktsVar)*(varNS-varEv*evNS)
	res.put("netem.est_share", max(0, ratio(netemSelf, wall)))
	res.put("phy.ns_per_host", ratio(float64(c.hostWall.Nanoseconds()), float64(t.ops)))
	res.put("tcp.segments", float64(c.segments))
	res.put("tcp.retransmits", float64(c.retransmits))
	res.put("tcp.rtos", float64(c.rtos))
	res.put("tcp.fast_recovers", float64(c.fastRecovers))
	res.put("tcp.fixed.wall_s", c.wallFixed.Seconds())
	res.put("tcp.var.wall_s", c.wallVar.Seconds())
	res.put("tcp.ns_per_segment", ratio(float64(c.runWall.Nanoseconds()), float64(c.segments)))
	tcpSelf := ratio(selfNS(c, evNS, fixNS, fixEv, varNS, varEv), float64(c.segments))
	res.put("tcp.self_ns_per_segment", tcpSelf)
	res.put("tcp.allocs_per_cell", ratio(float64(t.mallocs), float64(t.ops)))

	// Rung 3: mptcp over tcp, one mptcp-bulk pass.
	m, err := homePass("mptcp", setupMPTCP)
	if err != nil {
		return out, err
	}
	c = m.sim
	res.put("mptcp.segments", float64(c.segments))
	res.put("mptcp.reinjections", float64(c.reinjections))
	res.put("mptcp.stalls", float64(c.stalls))
	res.put("mptcp.primary_byte_share", ratio(float64(c.primaryBytes), float64(c.dataBytes)))
	res.put("mptcp.ns_per_segment", ratio(float64(c.runWall.Nanoseconds()), float64(c.segments)))
	mpSelf := ratio(selfNS(c, evNS, fixNS, fixEv, varNS, varEv), float64(c.segments)) - tcpSelf
	res.put("mptcp.self_ns_per_segment", max(0, mpSelf))
	res.put("mptcp.allocs_per_cell", ratio(float64(m.mallocs), float64(m.ops)))
	for i, name := range schedulers {
		res.put("mptcp.sched."+name+".ns_per_segment",
			ratio(float64(c.schedWall[i].Nanoseconds()), float64(c.schedSegs[i])))
	}

	// Rung 4: replay over tcp and mptcp, one app-replay pass.
	r, err := homePass("replay", setupReplay)
	if err != nil {
		return out, err
	}
	res.put("replay.flows", float64(r.flows))
	res.put("replay.incomplete", float64(r.failed))
	res.put("replay.ns_per_flow", ratio(float64(r.wall.Nanoseconds()), float64(r.flows)))
	res.put("replay.allocs_per_flow", ratio(float64(r.mallocs), float64(r.flows)))
	res.put("phy.setup_share", ratio(float64(r.ops)*res.Metrics["phy.ns_per_host"].Value, float64(r.wall.Nanoseconds())))

	// The engine and the 29 harnesses: one sweep at the canonical seed,
	// so that outputs can be compared with expected.json, at one worker
	// and at nproc.
	sweep, err := newSweepInstance(cfg.scale, canonicalSeed)
	if err != nil {
		return out, err
	}
	s1, err := sweep.pass(1, rec)
	if err != nil {
		return out, err
	}
	host.sampleSerial()
	sN, err := sweep.pass(cfg.nproc, rec)
	if err != nil {
		return out, err
	}
	host.sampleSerial()
	out.attempted += s1.ops + sN.ops
	out.failed += s1.failed + sN.failed + crossCheck(s1, sN)
	for i, name := range experimentNames {
		ms := 0.0 // a smoke run skips the long harnesses
		if i < len(s1.expMS) {
			ms = s1.expMS[i]
		}
		res.put("experiments."+name+".wall_ms", ms)
	}
	changed, err := outputsChanged(s1.hashes)
	if err != nil {
		return out, err
	}
	if cfg.scale.sweepLocations != fullScale.sweepLocations {
		changed = 0 // expected.json is recorded at full scale only
	}
	res.put("experiments.outputs_changed", float64(changed))
	speedup := ratio(s1.wall.Seconds(), sN.wall.Seconds())
	res.put("engine.par_speedup", speedup)
	res.put("engine.par_efficiency", speedup/float64(cfg.nproc))
	res.put("engine.ns_per_cell_dispatch", dispatchRung(cfg.nproc, cfg.scale.rungEvents))

	selectorProbes(cfg, rec, &res)
	host.sampleSerial()
	handlerNS, bad := serveProbes(cfg, rec, &res)
	host.sampleSerial()
	out.attempted += 4 * cfg.scale.probeCalls
	out.failed += bad

	// The real server: the workload's own passes, or a short
	// serve-decide run.
	var lat []float64
	var sc serveCounts
	if kind == "serve" {
		lat, sc = own.latUS, own.serve
	} else {
		inst, err := setupServeDecide(cfg)
		if err != nil {
			return out, err
		}
		for i := 0; i < 2; i++ {
			st, err := inst.pass(cfg.nproc, rec)
			if err != nil {
				inst.close()
				return out, err
			}
			lat = append(lat, st.latUS...)
			sc.add(st.serve)
			out.attempted += st.ops
			out.failed += st.failed
			host.sampleSerial()
		}
		fin, err := inst.close()
		if err != nil {
			return out, err
		}
		out.failed += fin.failed
	}
	sort.Float64s(lat)
	res.put("serve.http_overhead_us", max(0, percentile(lat, 0.50)-handlerNS/1e3))
	res.put("serve.p50_us", percentile(lat, 0.50))
	res.put("serve.p99_us", percentile(lat, 0.99))
	res.put("serve.p999_us", percentile(lat, 0.999))
	res.put("serve.max_us", sc.maxUS)
	res.put("serve.status_2xx", float64(sc.status2xx))
	res.put("serve.status_4xx", float64(sc.status4xx))
	res.put("serve.status_5xx", float64(sc.status5xx))
	return out, nil
}

// selfNS subtracts from a pass's time inside Sim.Run what the rungs
// below say its packets and its remaining events cost.
func selfNS(c simCounts, evNS, fixNS, fixEv, varNS, varEv float64) float64 {
	pf, pv := float64(c.pktsFixed), float64(c.pktsVar)
	ownEvents := max(0, float64(c.events)-pf*fixEv-pv*varEv)
	return max(0, float64(c.runWall.Nanoseconds())-pf*fixNS-pv*varNS-ownEvents*evNS)
}

// chain is one self-re-arming timer of the simnet rung.
type chain struct {
	sim   *simnet.Sim
	left  *int
	delay time.Duration
}

func chainFire(a any) {
	c := a.(*chain)
	if *c.left > 0 {
		*c.left--
		c.sim.AfterArg(c.delay, chainFire, c)
	}
}

// simnetRung fires n events through 64 timer chains of different
// periods and returns the wall ns per event.
func simnetRung(n int) float64 {
	sim := simnet.New(1)
	left := n
	for i := 0; i < 64; i++ {
		c := &chain{sim: sim, left: &left, delay: time.Duration(i+1) * 37 * time.Microsecond}
		sim.AfterArg(c.delay, chainFire, c)
	}
	t0 := time.Now()
	sim.Run()
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(sim.Processed()))
}

// netemRung pushes n MTU packets down a phy-built interface, 32 in
// flight, into a sink that releases each delivered packet exactly once
// (as tcp.Stack's dispatch does). It returns wall ns and simnet events
// per packet.
func netemRung(p phy.PathProfile, n int) (nsPerPkt, eventsPerPkt float64) {
	sim := simnet.New(1)
	ifc := phy.BuildIface(sim, "wifi", p)
	sent := 0
	send := func() {
		if sent < n {
			sent++
			ifc.SendDown(netem.MTU, nil)
		}
	}
	ifc.OnClientRecv(func(pkt *netem.Packet) {
		netem.ReleasePacket(pkt)
		send()
	})
	for i := 0; i < 32; i++ {
		send()
	}
	t0 := time.Now()
	sim.Run()
	wall := time.Since(t0)
	delivered := float64(ifc.DownLink().Stats().Delivered)
	return ratio(float64(wall.Nanoseconds()), delivered), ratio(float64(sim.Processed()), delivered)
}

// opportunityRung times ARRateSource.Next, the per-slot cost of a
// delivery-opportunity link.
func opportunityRung(n int) float64 {
	src := phy.NewARRateSource(simnet.New(1), "bench", 10, 0.3)
	var at time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		at = src.Next(at)
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(n))
}

// dispatchRung times engine.Sweep over cells that do nothing: the
// engine's own cost per cell at nproc workers.
func dispatchRung(workers, n int) float64 {
	t0 := time.Now()
	engine.Sweep(engine.Options{Workers: workers}, n, func(i int) struct{} { return struct{}{} })
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(n))
}

// probeClock is the fixed instant the in-process probes decide at: one
// second after their telemetry.
const probeClock = 2 * time.Second

// timeCalls runs fn n times inside one span and returns ns per call.
func timeCalls(rec *recorder, layer, name string, n int, fn func(i int)) float64 {
	sp := rec.begin(rec.op(), 0, layer, name)
	defer sp.end()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(n))
}

// selectorProbes times selector.Store directly.
func selectorProbes(cfg config, rec *recorder, res *result) {
	sites := make([][]byte, cfg.scale.fillSites)
	for i := range sites {
		sites[i] = siteName(nil, i)
	}
	wifi, lte := []byte("wifi"), []byte("lte")
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	store := selector.NewStore(selector.StoreConfig{})
	newSite := timeCalls(rec, "selector", "Observe-new-site", len(sites), func(i int) {
		store.Observe(sites[i], wifi, 12.5, 25*time.Millisecond, time.Second)
		store.Observe(sites[i], lte, 10, 45*time.Millisecond, time.Second)
	})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.put("selector.observe_new_site_ns", newSite)
	res.put("selector.bytes_per_site", ratio(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), float64(len(sites))))
	res.put("selector.sites", float64(store.Sites()))

	n := cfg.scale.probeCalls
	res.put("selector.observe_ns", timeCalls(rec, "selector", "Observe", n, func(i int) {
		store.Observe(sites[i%len(sites)], wifi, 12, 25*time.Millisecond, probeClock)
	}))
	var d selector.Decision
	res.put("selector.decide_ns", timeCalls(rec, "selector", "Decide", n, func(i int) {
		store.Decide(sites[i%len(sites)], flowBytes, probeClock, &d)
	}))
	// nproc goroutines over disjoint sites: what one Decide costs while
	// the others run.
	var wg sync.WaitGroup
	sp := rec.begin(rec.op(), 0, "selector", "Decide-parallel")
	t0 := time.Now()
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d selector.Decision
			for i := w; i < n*cfg.nproc; i += cfg.nproc {
				store.Decide(sites[i%len(sites)], flowBytes, probeClock, &d)
			}
		}(w)
	}
	wg.Wait()
	res.put("selector.decide_parallel_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(n)))
	sp.end()
	runtime.KeepAlive(store)
}

// memWriter is the in-memory http.ResponseWriter of the handler probes.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// serveProbes times the service in process — the parse/decide/render
// cores and the whole handler path — and returns the decide handler's
// ns per request, which serve.http_overhead_us is measured against, and
// how many calls answered with the wrong status.
func serveProbes(cfg config, rec *recorder, res *result) (handlerDecideNS float64, bad int) {
	store := selector.NewStore(selector.StoreConfig{})
	srv := serve.New(serve.Config{Store: store, Now: func() time.Duration { return probeClock }})
	sc := srv.GetScratch()
	defer srv.PutScratch(sc)
	sites := cfg.scale.prewarmSites
	decides := make([][]byte, sites)
	tels := make([][]byte, sites)
	for i := range decides {
		for k := 0; k < 2; k++ {
			srv.TelemetryBytes(telemetryFor(nil, cfg.seed, i, k), sc)
		}
		decides[i] = appendDecide(nil, i)
		tels[i] = telemetryFor(nil, cfg.seed, i, 2)
	}
	n := cfg.scale.probeCalls
	res.put("serve.decide_bytes_ns", timeCalls(rec, "serve", "DecideBytes", n, func(i int) {
		if srv.DecideBytes(decides[i%sites], sc) != http.StatusOK {
			bad++
		}
	}))
	res.put("serve.telemetry_bytes_ns", timeCalls(rec, "serve", "TelemetryBytes", n, func(i int) {
		if srv.TelemetryBytes(tels[i%sites], sc) != http.StatusNoContent {
			bad++
		}
	}))

	h := srv.Handler()
	w := &memWriter{h: http.Header{}}
	body := bytes.NewReader(nil)
	handle := func(path string, bodies [][]byte, want int) func(i int) {
		req, err := http.NewRequest("POST", path, nil)
		if err != nil {
			panic(err) // the method and the path are constants
		}
		req.Body = io.NopCloser(body)
		return func(i int) {
			body.Reset(bodies[i%sites])
			w.body.Reset()
			h.ServeHTTP(w, req)
			if w.status != want {
				bad++
			}
		}
	}
	m0 := mallocs()
	handlerDecideNS = timeCalls(rec, "serve", "ServeHTTP-decide", n, handle("/v1/decide", decides, http.StatusOK))
	m1 := mallocs()
	res.put("serve.handler_decide_ns", handlerDecideNS)
	res.put("serve.allocs_per_request", float64(m1-m0)/float64(n))
	res.put("serve.handler_telemetry_ns", timeCalls(rec, "serve", "ServeHTTP-telemetry", n,
		handle("/v1/telemetry", tels, http.StatusNoContent)))
	return handlerDecideNS, bad
}
