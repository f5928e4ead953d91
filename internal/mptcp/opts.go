// Package mptcp implements Multipath TCP over the tcp and netem
// substrates, modelling the Linux MPTCP v0.88 implementation the paper
// measured (Section 3.1):
//
//   - The primary subflow is established first (MP_CAPABLE) on the
//     configured interface; once it completes its handshake, an
//     additional subflow (MP_JOIN) is initiated on each remaining
//     interface — so the second path joins at least one handshake late,
//     the mechanism behind the paper's central short-flow finding.
//   - Data is striped across subflows by one of a closed set of
//     Schedulers (min-SRTT by default, as in Linux; round-robin,
//     redundant, and a BLEST/ECF-style HoL-aware policy beside it)
//     with per-subflow congestion windows; DSS options (netem.DSS, carried
//     by value) map subflow bytes to the connection-level sequence
//     space, and the receiver reassembles in data-sequence order
//     (head-of-line blocking across subflows is therefore real).
//   - Congestion control is either decoupled (per-subflow Reno) or
//     coupled (LIA, RFC 6356).
//   - Full-MPTCP mode uses all subflows; Backup mode (MP_PRIO) keeps
//     backup subflows idle unless every regular subflow is
//     administratively down. An administrative down (iproute) triggers
//     immediate failover with reinjection; a silent blackhole (pulling
//     the cable) does not — reproducing the paper's Fig. 15 anomaly.
package mptcp

import "fmt"

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
