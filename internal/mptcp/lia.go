package mptcp

import (
	"time"

	"multinet/internal/tcp"
)

// liaIncrease returns the RFC 6356 Linked Increases Algorithm
// congestion-avoidance increase for one subflow.
//
// For an ACK of `acked` bytes on subflow i the window grows by
//
//	min( alpha * acked * MSS / cwnd_total ,  acked * MSS / cwnd_i )
//
// with
//
//	alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2
//
// which couples the subflows so the MPTCP connection takes no more
// capacity than one TCP on its best path — the "coupled" algorithm of
// the paper's Section 3.5. Slow start remains uncoupled, as in Linux.
//
// It is a tcp.IncreaseFn for any subflow: the connection whose windows
// it couples is the one tc's Subflow belongs to.
func liaIncrease(tc *tcp.Conn, acked int) float64 {
	alpha, total := subflowOf(tc).conn.liaAlpha()
	if total <= 0 {
		return tcp.RenoIncrease(tc, acked)
	}
	coupled := alpha * float64(acked) * tcp.MSS / total
	solo := float64(acked) * tcp.MSS / float64(tc.CwndBytes())
	if coupled < solo {
		return coupled
	}
	return solo
}

// liaAlpha computes the LIA alpha and the total window over subflows
// that currently participate (established, not dead, with an RTT
// estimate).
func (c *Conn) liaAlpha() (alpha, totalCwnd float64) {
	var sumRatio, maxTerm float64
	for _, sf := range c.subflows {
		if !sf.established || sf.dead {
			continue
		}
		rtt := sf.TCP.SRTT()
		if rtt <= 0 {
			rtt = 100 * time.Millisecond // pre-estimate default
		}
		w := float64(sf.TCP.CwndBytes())
		r := rtt.Seconds()
		totalCwnd += w
		sumRatio += w / r
		if t := w / (r * r); t > maxTerm {
			maxTerm = t
		}
	}
	if sumRatio == 0 || totalCwnd == 0 {
		return 0, 0
	}
	alpha = totalCwnd * maxTerm / (sumRatio * sumRatio)
	return alpha, totalCwnd
}
