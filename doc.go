// Package multinet is a full reproduction of "WiFi, LTE, or Both?
// Measuring Multi-Homed Wireless Internet Performance" (Deng,
// Netravali, Sivaraman, Balakrishnan — IMC 2014) as a Go library.
//
// The paper's physical measurement infrastructure (Android phones, a
// WiFi+LTE testbed at 20 US locations, a Monsoon power monitor, and
// the Linux MPTCP v0.88 kernel) is substituted by deterministic
// simulation substrates built from scratch in this module:
//
//   - internal/simnet: a discrete-event simulation kernel
//   - internal/netem: links, queues, loss, interface failure semantics
//   - internal/phy: calibrated WiFi/LTE radio models and the paper's
//     20 measurement locations
//   - internal/tcp: a userspace TCP (NewReno + SACK + RFC 6298)
//   - internal/mptcp: Multipath TCP (MP_CAPABLE/MP_JOIN, DSS mappings
//     carried by value in tcp's segments, min-SRTT scheduler, LIA
//     coupled congestion control, backup mode)
//   - internal/energy: the radio power model of the paper's Fig. 16
//   - internal/dataset: the synthetic crowd-sourced campaign
//   - internal/apps + internal/replay: the Mahimahi-style record and
//     replay harness and the app traffic models
//   - internal/oracle: the Section 5 oracle schemes
//   - internal/experiments: one harness per table/figure
//   - internal/experiments/engine: the experiment registry and the
//     deterministic parallel trial-sweep runner
//   - internal/core: the paper's testbed (World), the one flow record
//     every measurement runs on it, and the public Session API
//   - internal/selector: the per-flow path-selection policy and its
//     sharded, decaying estimate store
//   - internal/serve/httpd: the policy as an HTTP/JSON service on its
//     own HTTP/1.1 loop, importing no net/http, which cmd/serve runs
//   - internal/serve: the net/http adapter over httpd's route table
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results. cmd/report regenerates
// every table and figure; cmd/bench holds each of them, and the
// simulator's micro-benchmarks, to the committed allocation baseline.
package multinet
