package tcp

import (
	"testing"
	"time"
)

// TestBlackholeMidTransferRecoversByRTO pins single-path robustness
// through a silent fault: an established bulk flow is blackholed
// mid-transfer. Nothing tells the sender, so it must take RTOs while the
// path is dark, resume when the path returns, and hand the receiver
// every byte exactly once — in-order progress never steps back and ends
// at exactly the transfer size.
func TestBlackholeMidTransferRecoversByRTO(t *testing.T) {
	n := newTestNet(t, 11, 10, 15*time.Millisecond, 0)
	const size = 4 << 20
	const dark, light = 800 * time.Millisecond, 2500 * time.Millisecond
	var sender *Conn
	var done time.Duration
	var last, atDark int64
	rtos := 0
	n.server.Accept = func(c *Conn) {
		sender = c
		c.cb.OnEstablished = func(c *Conn) {
			c.Send(size)
			c.Close()
		}
		c.cb.OnRTO = func(c *Conn, count int) { rtos++ }
	}
	receiver := n.client.Dial(n.iface, "f", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) {
			if total <= last {
				t.Fatalf("in-order total went %d -> %d at %v", last, total, n.sim.Now())
			}
			last = total
			if total >= size && done == 0 {
				done = n.sim.Now()
			}
		},
	}})
	n.sim.Schedule(dark, func() {
		atDark = last
		n.iface.SetBlackhole(true)
	})
	n.sim.Schedule(light, func() {
		if last != atDark {
			t.Errorf("receiver advanced %d -> %d through a blackhole", atDark, last)
		}
		n.iface.SetBlackhole(false)
	})
	n.sim.Run()

	if atDark == 0 || atDark >= size {
		t.Fatalf("blackhole fell outside the transfer (%d of %d bytes delivered before it)", atDark, size)
	}
	if done < light {
		t.Fatalf("completed at %v, want after the blackhole lifted at %v", done, light)
	}
	if got := receiver.RecvTotal(); got != size {
		t.Fatalf("receiver holds %d bytes, want exactly %d", got, size)
	}
	if rtos == 0 || sender.Retransmits == 0 {
		t.Fatalf("rtos=%d retransmits=%d: a silent blackhole is only recoverable by timeout", rtos, sender.Retransmits)
	}
}
