package main

// metricDef names one metric as BENCHMARK.json lists it. The package
// test holds BENCHMARK.json, these tables and what the runs print to
// one another.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd is what a --trace 0 run reports, on every workload. An
// operation is one experiment, one transfer, one replay or one HTTP
// request; a pass is one fixed unit of the workload's work (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"wall_parN_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer is what a --trace 1 run reports.
func perLayer() []metricDef {
	defs := []metricDef{
		{name: "simnet.events", unit: "count", better: "lower"},
		{name: "simnet.events_per_pkt", unit: "ratio", better: "lower"},
		{name: "simnet.sim_s_per_wall_s", unit: "ratio", better: "higher"},
		{name: "simnet.ns_per_event", unit: "ns", better: "lower"},
		{name: "simnet.est_share", unit: "share", better: "lower"},
		{name: "netem.pkts_sent", unit: "count", better: "lower"},
		{name: "netem.pkts_delivered", unit: "count", better: "lower"},
		{name: "netem.drop_queue", unit: "count", better: "lower"},
		{name: "netem.drop_loss", unit: "count", better: "lower"},
		{name: "netem.elided_share", unit: "share", better: "higher"},
		{name: "netem.fixed.ns_per_pkt", unit: "ns", better: "lower"},
		{name: "netem.var.ns_per_pkt", unit: "ns", better: "lower"},
		{name: "netem.est_share", unit: "share", better: "lower"},
		{name: "phy.ns_per_host", unit: "ns", better: "lower"},
		{name: "phy.ns_per_opportunity", unit: "ns", better: "lower"},
		{name: "phy.setup_share", unit: "share", better: "lower"},
		{name: "tcp.segments", unit: "count", better: "lower"},
		{name: "tcp.retransmits", unit: "count", better: "lower"},
		{name: "tcp.rtos", unit: "count", better: "lower"},
		{name: "tcp.fast_recovers", unit: "count", better: "lower"},
		{name: "tcp.fixed.wall_s", unit: "s", better: "lower"},
		{name: "tcp.var.wall_s", unit: "s", better: "lower"},
		{name: "tcp.ns_per_segment", unit: "ns", better: "lower"},
		{name: "tcp.self_ns_per_segment", unit: "ns", better: "lower"},
		{name: "tcp.allocs_per_cell", unit: "count", better: "lower"},
		{name: "mptcp.segments", unit: "count", better: "lower"},
		{name: "mptcp.reinjections", unit: "count", better: "lower"},
		{name: "mptcp.stalls", unit: "count", better: "lower"},
		{name: "mptcp.primary_byte_share", unit: "share", better: "higher"},
		{name: "mptcp.ns_per_segment", unit: "ns", better: "lower"},
		{name: "mptcp.self_ns_per_segment", unit: "ns", better: "lower"},
		{name: "mptcp.allocs_per_cell", unit: "count", better: "lower"},
	}
	for _, s := range schedulers {
		defs = append(defs, metricDef{name: "mptcp.sched." + s + ".ns_per_segment", unit: "ns", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "replay.flows", unit: "count", better: "lower"},
		metricDef{name: "replay.incomplete", unit: "count", better: "lower"},
		metricDef{name: "replay.ns_per_flow", unit: "ns", better: "lower"},
		metricDef{name: "replay.allocs_per_flow", unit: "count", better: "lower"},
		metricDef{name: "engine.ns_per_cell_dispatch", unit: "ns", better: "lower"},
		metricDef{name: "engine.par_speedup", unit: "ratio", better: "higher"},
		metricDef{name: "engine.par_efficiency", unit: "ratio", better: "higher"},
	)
	for _, e := range experimentNames {
		defs = append(defs, metricDef{name: "experiments." + e + ".wall_ms", unit: "ms", better: "lower"})
	}
	return append(defs,
		metricDef{name: "experiments.outputs_changed", unit: "count", better: "lower"},
		metricDef{name: "selector.decide_ns", unit: "ns", better: "lower"},
		metricDef{name: "selector.observe_ns", unit: "ns", better: "lower"},
		metricDef{name: "selector.observe_new_site_ns", unit: "ns", better: "lower"},
		metricDef{name: "selector.decide_parallel_ns", unit: "ns", better: "lower"},
		metricDef{name: "selector.bytes_per_site", unit: "B", better: "lower"},
		metricDef{name: "selector.sites", unit: "count", better: "lower"},
		metricDef{name: "serve.decide_bytes_ns", unit: "ns", better: "lower"},
		metricDef{name: "serve.telemetry_bytes_ns", unit: "ns", better: "lower"},
		metricDef{name: "serve.handler_decide_ns", unit: "ns", better: "lower"},
		metricDef{name: "serve.handler_telemetry_ns", unit: "ns", better: "lower"},
		metricDef{name: "serve.allocs_per_request", unit: "count", better: "lower"},
		metricDef{name: "serve.http_overhead_us", unit: "us", better: "lower"},
		metricDef{name: "serve.p50_us", unit: "us", better: "lower"},
		metricDef{name: "serve.p99_us", unit: "us", better: "lower"},
		metricDef{name: "serve.p999_us", unit: "us", better: "lower"},
		metricDef{name: "serve.max_us", unit: "us", better: "lower"},
		metricDef{name: "serve.status_2xx", unit: "count", better: "higher"},
		metricDef{name: "serve.status_4xx", unit: "count", better: "lower"},
		metricDef{name: "serve.status_5xx", unit: "count", better: "lower"},
		metricDef{name: "allocs_per_pass", unit: "count", better: "lower"},
		metricDef{name: "trace.overhead_share", unit: "share", better: "lower"},
		metricDef{name: "host.speed_factor", unit: "ratio", better: "higher"},
	)
}

// exactCounts are the per-layer counts that must repeat bit for bit
// for a seed, whichever workload the traced run is for.
var exactCounts = []string{
	"simnet.events", "netem.pkts_sent", "netem.pkts_delivered", "netem.drop_queue", "netem.drop_loss",
	"tcp.segments", "tcp.retransmits", "tcp.rtos", "tcp.fast_recovers",
	"mptcp.segments", "mptcp.reinjections", "mptcp.stalls", "mptcp.primary_byte_share",
	"replay.flows", "replay.incomplete", "selector.sites",
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		m[d.name] = d.unit
	}
	return m
}()
