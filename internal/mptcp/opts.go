// Package mptcp implements Multipath TCP over the tcp and netem
// substrates, modelling the Linux MPTCP v0.88 implementation the paper
// measured (Section 3.1):
//
//   - The primary subflow is established first (MP_CAPABLE) on the
//     configured interface; once it completes its handshake, an
//     additional subflow (MP_JOIN) is initiated on each remaining
//     interface — so the second path joins at least one handshake late,
//     the mechanism behind the paper's central short-flow finding.
//   - Data is striped across subflows by a pluggable Scheduler
//     (min-SRTT by default, as in Linux; round-robin, redundant, and
//     BLEST/ECF-style HoL-aware policies are registered alongside it)
//     with per-subflow congestion windows; DSS options map subflow
//     bytes to the connection-level sequence space, and the receiver
//     reassembles in data-sequence order (head-of-line blocking across
//     subflows is therefore real).
//   - Congestion control is either decoupled (per-subflow Reno) or
//     coupled (LIA, RFC 6356).
//   - Full-MPTCP mode uses all subflows; Backup mode (MP_PRIO) keeps
//     backup subflows idle unless every regular subflow is
//     administratively down. An administrative down (iproute) triggers
//     immediate failover with reinjection; a silent blackhole (pulling
//     the cable) does not — reproducing the paper's Fig. 15 anomaly.
package mptcp

import (
	"fmt"
	"sync/atomic"

	"multinet/internal/simnet"
)

// MPCapable is the option on the primary subflow's SYN.
type MPCapable struct {
	// ConnID identifies the MPTCP connection.
	ConnID string
}

// String renders the option for captures.
func (o *MPCapable) String() string { return fmt.Sprintf("MP_CAPABLE(%s)", o.ConnID) }

// MPJoin is the option on an additional subflow's SYN.
type MPJoin struct {
	// ConnID is the connection being joined.
	ConnID string
	// Backup marks the subflow as backup-priority (MP_PRIO semantics).
	Backup bool
}

// String renders the option for captures.
func (o *MPJoin) String() string {
	if o.Backup {
		return fmt.Sprintf("MP_JOIN(%s,backup)", o.ConnID)
	}
	return fmt.Sprintf("MP_JOIN(%s)", o.ConnID)
}

// DSS is the Data Sequence Signal option: it maps the segment's payload
// into the connection-level sequence space and carries the cumulative
// connection-level acknowledgement.
//
// The DSS a Conn sends are recycled through its Sim's free list, by
// holder count (tcp.SharedOpt). A pure ACK's DSS has one holder, the
// wire segment. A data mapping's DSS starts with that one and gains the
// sender's scoreboard entry and every retransmitted copy; the receiver
// reads a copy that may arrive after the entry was acknowledged, and a
// late ACK reads the entry after every copy is gone, so only the last
// holder to let go may free it. The count belongs to package tcp — it
// alone stores references — and this package only sets it to one. A
// holder that never lets go (a code path that forgets to) keeps the DSS
// off the list for good: it is collected, never reused early.
type DSS struct {
	// DataSeq is the connection-level sequence of the first payload
	// byte (valid when Len > 0).
	DataSeq uint64
	// Len is the number of payload bytes mapped.
	Len int
	// DataAck is the cumulative connection-level acknowledgement.
	DataAck uint64

	holders int32
	// home is the free list the DSS was taken from; nil for a literal
	// and for a DSS that has been abandoned.
	home *simnet.FreeList[DSS]
}

// leakTrack gates live-DSS accounting, as netem's and tcp's do for
// packets and segments.
var leakTrack atomic.Bool

var liveDSS atomic.Int64

// SetLeakTracking enables or disables live-DSS accounting and resets
// the counter (enable before building the simulation under test).
func SetLeakTracking(on bool) {
	leakTrack.Store(on)
	liveDSS.Store(0)
}

// LiveDSS returns the recycled DSS currently held by someone: taken
// from a free list since SetLeakTracking(true) and neither returned nor
// abandoned. Zero at quiescence means every holder let go; a negative
// value means one let go twice.
func LiveDSS() int64 { return liveDSS.Load() }

// newDSS takes a DSS with one holder — the wire segment it is about to
// ride — from the connection's free list.
func (c *Conn) newDSS(dataSeq uint64, n int) *DSS {
	if leakTrack.Load() {
		liveDSS.Add(1)
	}
	d := c.dss.Get()
	d.DataSeq, d.Len, d.DataAck, d.holders, d.home = dataSeq, n, c.rcvNxt, 1, c.dss
	return d
}

// RetainOpt implements tcp.SharedOpt.
func (o *DSS) RetainOpt() { o.holders++ }

// RecycleOpt implements tcp.RecyclableOpt: one holder lets go, and the
// last returns the DSS to its free list.
func (o *DSS) RecycleOpt() {
	o.holders--
	if o.holders != 0 || o.home == nil {
		return
	}
	if leakTrack.Load() {
		liveDSS.Add(-1)
	}
	home := o.home
	*o = DSS{}
	home.Put(o)
}

// AbandonOpt implements tcp.SharedOpt: the DSS stays readable for
// whoever still refers to it and is never recycled.
func (o *DSS) AbandonOpt() {
	if o.home == nil {
		return
	}
	if leakTrack.Load() {
		liveDSS.Add(-1)
	}
	o.home = nil
}

// String renders the option for captures.
func (o *DSS) String() string {
	if o.Len > 0 {
		return fmt.Sprintf("DSS(seq=%d,len=%d,ack=%d)", o.DataSeq, o.Len, o.DataAck)
	}
	return fmt.Sprintf("DSS(ack=%d)", o.DataAck)
}

// CongestionMode selects the MPTCP congestion-control coupling.
type CongestionMode int

// Congestion modes (paper Section 3.5).
const (
	// Decoupled runs independent Reno on each subflow.
	Decoupled CongestionMode = iota
	// Coupled runs LIA (RFC 6356): subflow increases are coupled so the
	// MPTCP connection takes no more capacity than a single TCP on the
	// best path.
	Coupled
)

// String names the mode.
func (m CongestionMode) String() string {
	if m == Coupled {
		return "coupled"
	}
	return "decoupled"
}

// Mode selects Full-MPTCP or Backup operation (paper Section 3.6).
type Mode int

// Operation modes.
const (
	// FullMPTCP transmits on all subflows at all times.
	FullMPTCP Mode = iota
	// Backup transmits on regular subflows only, activating
	// backup-priority subflows when every regular subflow is
	// administratively down.
	Backup
)

// String names the mode.
func (m Mode) String() string {
	if m == Backup {
		return "backup"
	}
	return "full"
}
