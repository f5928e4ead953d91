package faults

import (
	"fmt"

	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// Violation is one failed invariant.
type Violation struct {
	Rule   string
	Detail string
}

// String renders "rule: detail".
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Checker asserts the conservation invariants of a drained simulation:
//
//   - Link conservation: on every registered link, every admitted
//     packet was either delivered or died in flight —
//     Sent == Delivered + LostInFlight.
//   - Exactly-once delivery: a receiver never advances past what its
//     peer queued, and a gracefully completed transfer delivered every
//     byte.
//   - No stranded mappings: on a live connection, every scheduled but
//     un-acked byte is covered by a mapping record something can still
//     retransmit (Conn.UncoveredBytes == 0).
//   - No silent stalls: at quiescence a connection with undelivered
//     data must have been closed or aborted — a watchdog abort counts;
//     simply hanging does not.
//   - No recycled-object leaks: in every registered world, every packet
//     and segment taken from a free list went back to it. The counts are
//     the world's own (simnet.FreeList.Live), so worlds run side by side
//     do not see each other's.
//   - Scoreboard accounting: on every subflow, the sender's
//     incrementally maintained pipe and pending-loss count equal a full
//     scan of its SACK scoreboard (tcp.Conn.AuditScoreboard).
//
// Call Check only after the simulation has drained (or at a known
// quiescent point) and before its Sim is released; mid-flight the link
// identity does not hold. The scoreboard rule alone holds between any
// two events, so CheckScoreboards may be called while the run is in
// progress.
type Checker struct {
	links  []checkedLink
	worlds []checkedWorld
	pairs  []connPair
}

type checkedLink struct {
	name string
	link netem.Link
}

// checkedWorld is one registered world's lists of recycled objects.
type checkedWorld struct {
	packets  *simnet.FreeList[netem.Packet]
	segments *simnet.FreeList[tcp.Segment]
}

type connPair struct {
	label string
	a, b  *mptcp.Conn
}

// AddWorld registers one world: both directions of every interface of
// h for link conservation, and sim's free lists of packets and segments
// for the leak rules.
//
//lint:allow unusedapi ROADMAP item 1 registers every world at Close
func (c *Checker) AddWorld(sim *simnet.Sim, h *netem.Host) {
	for _, ifc := range h.Ifaces() {
		c.links = append(c.links,
			checkedLink{name: ifc.Name + "/up", link: ifc.UpLink()},
			checkedLink{name: ifc.Name + "/down", link: ifc.DownLink()})
	}
	c.worlds = append(c.worlds, checkedWorld{
		packets:  simnet.FreeListOf[netem.Packet](sim),
		segments: simnet.FreeListOf[tcp.Segment](sim),
	})
}

// AddPair registers the two endpoints of one MPTCP connection.
//
//lint:allow unusedapi ROADMAP item 1 walks the connection pairs
func (c *Checker) AddPair(label string, a, b *mptcp.Conn) {
	c.pairs = append(c.pairs, connPair{label: label, a: a, b: b})
}

// Check runs every registered invariant and returns the violations
// (empty means all invariants hold).
//
//lint:allow unusedapi ROADMAP item 1 checks every world at Close
func (c *Checker) Check() []Violation {
	var out []Violation
	for _, cl := range c.links {
		st := cl.link.Stats()
		if st.Sent != st.Delivered+st.LostInFlight {
			out = append(out, Violation{
				Rule: "link-conservation",
				Detail: fmt.Sprintf("%s: sent=%d delivered=%d lost-in-flight=%d",
					cl.name, st.Sent, st.Delivered, st.LostInFlight),
			})
		}
	}
	for _, p := range c.pairs {
		out = c.checkDir(out, p.label+" a->b", p.a, p.b)
		out = c.checkDir(out, p.label+" b->a", p.b, p.a)
	}
	out = append(out, c.CheckScoreboards()...)
	for _, w := range c.worlds {
		if n := w.packets.Live(); n != 0 {
			out = append(out, Violation{
				Rule:   "packet-leak",
				Detail: fmt.Sprintf("%d pooled packets unaccounted for", n),
			})
		}
		if n := w.segments.Live(); n != 0 {
			out = append(out, Violation{
				Rule:   "segment-leak",
				Detail: fmt.Sprintf("%d pooled segments unaccounted for", n),
			})
		}
	}
	return out
}

// CheckScoreboards runs the scoreboard-accounting rule over every
// subflow of every registered connection. Unlike Check it is valid at
// any event boundary, so a harness can step the simulation and audit
// the senders mid-recovery, where the accounting actually moves.
func (c *Checker) CheckScoreboards() []Violation {
	var out []Violation
	for _, p := range c.pairs {
		for _, mc := range []*mptcp.Conn{p.a, p.b} {
			for _, sf := range mc.Subflows() {
				if err := sf.TCP.AuditScoreboard(); err != nil {
					out = append(out, Violation{
						Rule:   "scoreboard-accounting",
						Detail: p.label + " " + err.Error(),
					})
				}
			}
		}
	}
	return out
}

// checkDir asserts the sender→receiver invariants for one direction of
// one connection pair.
func (c *Checker) checkDir(out []Violation, label string, snd, rcv *mptcp.Conn) []Violation {
	if rcv.RcvNxt() > snd.SendTotal() {
		out = append(out, Violation{
			Rule: "over-delivery",
			Detail: fmt.Sprintf("%s: receiver advanced to %d of %d queued bytes",
				label, rcv.RcvNxt(), snd.SendTotal()),
		})
	}
	if !snd.Closed() {
		if u := snd.UncoveredBytes(); u != 0 {
			out = append(out, Violation{
				Rule: "stranded-mapping",
				Detail: fmt.Sprintf("%s: %d scheduled bytes covered by no live mapping",
					label, u),
			})
		}
		if snd.DataAcked() < snd.SendTotal() {
			out = append(out, Violation{
				Rule: "silent-stall",
				Detail: fmt.Sprintf("%s: %d of %d bytes undelivered on an open connection at quiescence",
					label, snd.SendTotal()-snd.DataAcked(), snd.SendTotal()),
			})
		}
	}
	if snd.Closed() && !snd.Aborted() && rcv.Closed() && !rcv.Aborted() {
		if rcv.RecvTotal() != int64(snd.SendTotal()) {
			out = append(out, Violation{
				Rule: "incomplete-delivery",
				Detail: fmt.Sprintf("%s: delivered %d of %d bytes on a gracefully closed connection",
					label, rcv.RecvTotal(), snd.SendTotal()),
			})
		}
	}
	return out
}
