package mptcp

import (
	"errors"
	"fmt"

	"multinet/internal/tcp"
)

// AuditPairs checks the MPTCP connections of the world whose stacks are
// client and server, and returns an error naming every broken rule, nil
// (allocating nothing) when all hold. Every server end, superseded and
// torn-down ones included (a stack's Conns yields what it forgot),
// pairs with the client end one of its subflows last heard from. In
// each direction of each pair:
//
//   - over-delivery: the receiver advanced past what the sender queued;
//   - incomplete-delivery: both ends closed gracefully, and the receiver
//     did not get exactly what the sender queued;
//   - silent-stall: the sender is open and bytes it queued are not
//     acknowledged;
//   - stranded-mapping: likewise, and scheduled bytes have no mapping
//     left to retransmit them (UncoveredBytes).
//
// The last two run only when no event is pending: mid-flight, bytes
// delivered above a data-sequence hole are subflow-acked but not
// data-acked, so no mapping covers them. They read the sender's DATA_ACK
// when its watchdog is armed (Config.WatchdogRTOs), which aborts a
// sender that makes no progress. Without one, nothing repeats a last
// DATA_ACK that rode on a lost pure ACK, since a FIN carries no DSS, so
// there they read what the receiver has.
func AuditPairs(client, server *tcp.Stack) error {
	var errs []error
	for stc := range server.Conns() {
		sf, ok := stc.Owner().(*Subflow)
		if !ok || sf.conn.subflows[0].TCP != stc {
			continue // meet each connection once, at its first subflow
		}
		s := sf.conn
		for _, o := range s.subflows {
			if ctc := client.Peer(o.TCP); ctc != nil {
				if csf, ok := ctc.Owner().(*Subflow); ok {
					errs = auditDir(auditDir(errs, csf.conn, s), s, csf.conn)
					break
				}
			}
		}
	}
	return errors.Join(errs...)
}

// auditDir appends what AuditPairs finds broken from snd to rcv.
func auditDir(errs []error, snd, rcv *Conn) []error {
	dir := "server->client"
	if snd.client() {
		dir = "client->server"
	}
	if rcv.rcvNxt > snd.sendTotal {
		errs = append(errs, fmt.Errorf("over-delivery: %s %s: receiver advanced to %d of %d queued bytes",
			snd.cfg.ConnID, dir, rcv.rcvNxt, snd.sendTotal))
	}
	if snd.closed && !snd.aborted && rcv.closed && !rcv.aborted && rcv.recvTotal != int64(snd.sendTotal) {
		errs = append(errs, fmt.Errorf("incomplete-delivery: %s %s: delivered %d of %d bytes on a gracefully closed connection",
			snd.cfg.ConnID, dir, rcv.recvTotal, snd.sendTotal))
	}
	acked := snd.dataUna
	if snd.cfg.WatchdogRTOs <= 0 {
		acked = rcv.rcvNxt
	}
	if snd.closed || acked >= snd.sendTotal || snd.sim.Pending() > 0 {
		return errs
	}
	if u := snd.UncoveredBytes(); u != 0 {
		errs = append(errs, fmt.Errorf("stranded-mapping: %s %s: %d scheduled bytes covered by no live mapping",
			snd.cfg.ConnID, dir, u))
	}
	return append(errs, fmt.Errorf("silent-stall: %s %s: %d of %d bytes unacknowledged on an open connection at quiescence",
		snd.cfg.ConnID, dir, snd.sendTotal-acked, snd.sendTotal))
}
