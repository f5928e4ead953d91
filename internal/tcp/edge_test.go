package tcp

import (
	"testing"
	"time"

	"multinet/internal/netem"
)

// Edge-case and failure-injection tests beyond the core suite in
// conn_test.go.

func TestBidirectionalData(t *testing.T) {
	// Both sides send simultaneously on one connection.
	n := newTestNet(t, 21, 10, 10*time.Millisecond, 0)
	const size = 150_000
	var upDone, downDone bool
	n.server.Accept = func(c *Conn) {
		c.SetCallbacks(Callbacks{
			OnEstablished: func(c *Conn) { c.Send(size) },
			OnData: func(c *Conn, total int64) {
				if total >= size {
					upDone = true
				}
			},
		})
	}
	n.client.Dial(n.iface, "bidi", Config{Callbacks: Callbacks{
		OnEstablished: func(c *Conn) { c.Send(size) },
		OnData: func(c *Conn, total int64) {
			if total >= size {
				downDone = true
			}
		},
	}})
	n.sim.Run()
	if !upDone || !downDone {
		t.Fatalf("bidirectional transfer incomplete: up=%v down=%v", upDone, downDone)
	}
}

func TestAbortStopsActivity(t *testing.T) {
	n := newTestNet(t, 22, 10, 10*time.Millisecond, 0)
	var srv *Conn
	closed := false
	n.server.Accept = func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{
			OnEstablished: func(c *Conn) { c.Send(5 << 20) },
			OnClosed:      func(c *Conn) { closed = true },
		})
	}
	n.client.Dial(n.iface, "abort", Config{})
	n.sim.RunFor(500 * time.Millisecond)
	sent := srv.SegmentsSent()
	srv.Abort()
	if !closed {
		t.Fatal("Abort should fire OnClosed")
	}
	if srv.State() != StateDone {
		t.Fatalf("state after Abort = %v", srv.State())
	}
	n.sim.RunFor(5 * time.Second)
	if srv.SegmentsSent() != sent {
		t.Fatal("aborted connection kept transmitting")
	}
	// Idempotent.
	srv.Abort()
}

func TestMaxConsecutiveRTOsAborts(t *testing.T) {
	n := newTestNet(t, 23, 10, 10*time.Millisecond, 0)
	var srv *Conn
	aborted := false
	n.server.Accept = func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{
			OnEstablished: func(c *Conn) { c.Send(1 << 20) },
			OnClosed:      func(c *Conn) { aborted = true },
		})
	}
	n.client.Dial(n.iface, "giveup", Config{})
	n.sim.RunFor(300 * time.Millisecond)
	n.iface.SetBlackhole(true)
	// Let the retry budget exhaust (backoff sums to a few minutes).
	n.sim.RunFor(20 * time.Minute)
	if !aborted {
		t.Fatalf("connection should abort after %d consecutive RTOs (count=%d)",
			MaxConsecutiveRTOs, srv.RTOCount())
	}
}

func TestHyStartExitsSlowStartOnDelayRise(t *testing.T) {
	// A deep-buffered slow link: slow start must exit via HyStart well
	// before cwnd reaches the huge initial ssthresh.
	n := newTestNet(t, 24, 5, 30*time.Millisecond, 0)
	var srv *Conn
	n.server.Accept = func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{OnEstablished: func(c *Conn) { c.Send(4 << 20) }})
	}
	n.client.Dial(n.iface, "hystart", Config{})
	n.sim.RunFor(3 * time.Second)
	if srv.InSlowStart() {
		t.Fatal("still in slow start after 3s on a bloated 5 Mbit/s link")
	}
	if srv.SsthreshBytes() >= DefaultWindow {
		t.Fatal("ssthresh never reduced: HyStart did not trigger")
	}
}

func TestTailLossProbeAvoidsFullRTO(t *testing.T) {
	// Drop exactly the tail of a burst: TLP should recover noticeably
	// faster than the ~1s RTO backoff on first loss.
	n := newTestNet(t, 25, 50, 20*time.Millisecond, 0)
	const size = 60_000 // ~41 segments; tail drop via short blackhole
	var done time.Duration
	n.server.Accept = func(c *Conn) {
		c.SetCallbacks(Callbacks{OnEstablished: func(c *Conn) { c.Send(size); c.Close() }})
	}
	n.client.Dial(n.iface, "tlp", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= size && done == 0 {
				done = n.sim.Now()
			}
		},
	}})
	// Blackhole a short window that eats the tail of the second data
	// burst (handshake ~60 ms, first burst acked ~100 ms).
	n.sim.Schedule(105*time.Millisecond, func() { n.iface.SetBlackhole(true) })
	n.sim.Schedule(135*time.Millisecond, func() { n.iface.SetBlackhole(false) })
	n.sim.Run()
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
	// With only RTO recovery this takes > 1s (initial RTO); with the
	// probe it should finish well under that.
	if done > 900*time.Millisecond {
		t.Fatalf("tail recovery took %v — TLP apparently not firing", done)
	}
}

func TestPeerWindowLimitsSender(t *testing.T) {
	// A tiny advertised window must cap the in-flight bytes.
	n := newTestNet(t, 26, 100, 5*time.Millisecond, 0)
	var srv *Conn
	n.server.Accept = func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{OnEstablished: func(c *Conn) { c.Send(1 << 20) }})
	}
	n.client.Dial(n.iface, "rwnd", Config{})
	n.sim.RunFor(50 * time.Millisecond)
	// Shrink the peer window via a crafted ACK (simulating a slow
	// application at the receiver).
	srv.handle(&Segment{Flow: "rwnd", Flags: FlagACK, Ack: uint64(srv.sndUna), Wnd: 4 * MSS})
	n.sim.RunFor(200 * time.Millisecond)
	if got := srv.BytesInFlight(); got > 4*MSS+MSS {
		t.Fatalf("in-flight %d exceeds advertised window %d", got, 4*MSS)
	}
}

func TestZeroAndNegativeSendIgnored(t *testing.T) {
	n := newTestNet(t, 27, 10, 5*time.Millisecond, 0)
	n.server.Accept = func(c *Conn) {}
	c := n.client.Dial(n.iface, "zero", Config{})
	c.Send(0)
	c.Send(-5)
	n.sim.Run()
	if c.BytesInFlight() != 0 {
		t.Fatal("zero-size sends should be ignored")
	}
}

func TestDuplicateDataReACKed(t *testing.T) {
	// A duplicated (spuriously retransmitted) segment must elicit an
	// ACK without corrupting the byte count.
	n := newTestNet(t, 28, 10, 5*time.Millisecond, 0)
	const size = 30_000
	var total int64
	n.server.Accept = func(c *Conn) {
		c.SetCallbacks(Callbacks{OnEstablished: func(c *Conn) { c.Send(size); c.Close() }})
	}
	cli := n.client.Dial(n.iface, "dup", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, tot int64) { total = tot },
	}})
	n.sim.Run()
	if total != size {
		t.Fatalf("received %d, want %d", total, size)
	}
	// Replay an old data segment.
	cli.handle(&Segment{Flow: "dup", Flags: FlagACK, Seq: 1, Ack: 1, PayloadLen: MSS, Wnd: DefaultWindow})
	if cli.RecvTotal() != size {
		t.Fatalf("duplicate segment changed RecvTotal to %d", cli.RecvTotal())
	}
}

func TestStackForgetAndConnLookup(t *testing.T) {
	n := newTestNet(t, 29, 10, 5*time.Millisecond, 0)
	n.server.Accept = func(c *Conn) {}
	c := n.client.Dial(n.iface, "x", Config{})
	if n.client.Conn("x") != c {
		t.Fatal("Conn lookup failed")
	}
	n.client.Forget("x")
	if n.client.Conn("x") != nil {
		t.Fatal("Forget did not remove the conn")
	}
	// A new dial with the same flow id is now allowed.
	n.client.Dial(n.iface, "x", Config{})
}

// TestDispatchFlowCacheFollowsDemuxTable pins the Bind closures'
// one-entry flow cache to the demux table: a hit skips the search, and
// every change to the table — passive accept, Forget, Register — or a
// segment of another flow makes the next delivery look again.
func TestDispatchFlowCacheFollowsDemuxTable(t *testing.T) {
	n := newTestNet(t, 31, 10, 5*time.Millisecond, 0)
	var accepted []*Conn
	n.server.Accept = func(c *Conn) { accepted = append(accepted, c) }
	fc := new(flowCache)
	syn := func(flow string) {
		seg := NewSegment(n.sim)
		seg.Flow, seg.Flags, seg.Wnd = flow, FlagSYN, DefaultWindow
		p := netem.NewPacket(n.sim)
		p.Payload = seg
		n.server.dispatch(n.iface, p, fc)
	}
	syn("f")
	syn("f") // a hit: the retransmitted SYN reaches the same conn
	if len(accepted) != 1 || fc.conn != accepted[0] {
		t.Fatalf("after two SYNs of one flow: %d conns accepted, cache holds %p", len(accepted), fc.conn)
	}
	n.server.Forget("f")
	syn("f") // the cached conn is gone from the table: a fresh accept
	if len(accepted) != 2 || n.server.Conn("f") != accepted[1] || fc.conn != accepted[1] {
		t.Fatalf("after Forget: %d conns accepted, cache holds %p", len(accepted), fc.conn)
	}
	syn("g")
	syn("f") // another flow in between: back through the table, no new conn
	if len(accepted) != 3 || fc.conn != accepted[1] {
		t.Fatalf("after interleaving flows: %d conns accepted, cache holds %p", len(accepted), fc.conn)
	}
	n.server.Forget("f")
	replaced := NewConn(n.sim, n.iface, netem.Down, "f", Config{})
	n.server.Register(replaced)
	syn("f")
	if len(accepted) != 3 || fc.conn != replaced {
		t.Fatalf("after Register: %d conns accepted, cache holds %p, want the registered conn", len(accepted), fc.conn)
	}
}

func TestDialDuplicateFlowPanics(t *testing.T) {
	n := newTestNet(t, 30, 10, 5*time.Millisecond, 0)
	n.server.Accept = func(c *Conn) {}
	n.client.Dial(n.iface, "dup-flow", Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Dial should panic")
		}
	}()
	n.client.Dial(n.iface, "dup-flow", Config{})
}
