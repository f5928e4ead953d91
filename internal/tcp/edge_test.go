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
			MaxConsecutiveRTOs, srv.rtoCount)
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
	if srv.cwnd < srv.ssthresh {
		t.Fatal("still in slow start after 3s on a bloated 5 Mbit/s link")
	}
	if srv.ssthresh >= DefaultWindow {
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
	srv.handle(&netem.Segment{Flow: "rwnd", Flags: netem.FlagACK, Ack: uint64(srv.sndUna), Wnd: 4 * MSS})
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
	cli.handle(&netem.Segment{Flow: "dup", Flags: netem.FlagACK, Seq: 1, Ack: 1, PayloadLen: MSS, Wnd: DefaultWindow})
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

// TestDemuxByHandleMatchesName holds dispatch to a reference demux that
// knows only names: every segment of a live exchange must reach the
// connection the reference names — or a fresh accept for a SYN it has
// no connection for, or nobody. The exchange covers what handles could
// get wrong: a retransmitted SYN (its SYN-ACK is lost), a flow forgotten
// on both sides mid-transfer and dialled again under the same name,
// segments the forgotten incarnation keeps retransmitting, and segments
// addressed to the handles Forget freed.
func TestDemuxByHandleMatchesName(t *testing.T) {
	n := newTestNet(t, 31, 10, 5*time.Millisecond, 0)
	type side struct {
		st  *Stack
		ref map[string]*Conn // the reference: the live connection of each name
		got *Conn            // who the last dispatch handed its segment to
	}
	cli := &side{st: n.client, ref: map[string]*Conn{}}
	srv := &side{st: n.server, ref: map[string]*Conn{}}
	received := func(c *Conn, _ netem.Segment) { c.Owner().(*side).got = c }
	const size = 200_000
	n.server.Accept = func(c *Conn) {
		srv.ref[c.Flow()] = c
		c.SetOwner(srv)
		c.SetCallbacks(Callbacks{OnSegment: received, OnEstablished: func(c *Conn) { c.Send(size); c.Close() }})
	}
	dial := func(flow string) *Conn {
		c := n.client.Dial(n.iface, flow, Config{Owner: cli, Callbacks: Callbacks{OnSegment: received}})
		cli.ref[flow] = c
		return c
	}
	forget := func(s *side, flow string) {
		s.st.Forget(flow)
		delete(s.ref, flow)
	}
	// dead reports whether h is a handle st has freed.
	dead := func(st *Stack, h uint32) bool { return h != 0 && st.table[h-1].forgotten }

	var byHandle, synRtx, stale, freed int
	lostSynAck := false
	deliver := func(s, peer *side) func(*netem.Packet) {
		return func(p *netem.Packet) {
			seg := p.Seg // dispatch releases p
			if !lostSynAck && seg.Flags == netem.FlagSYN|netem.FlagACK && seg.Flow == "a" {
				lostSynAck = true // the client's SYN goes again, still unaddressed
				netem.ReleasePacket(p)
				return
			}
			flow, syn := seg.Flow, seg.Flags == netem.FlagSYN
			want, known := s.ref[flow]
			switch {
			case dead(s.st, seg.DstPort):
				freed++
			case seg.DstPort != 0:
				byHandle++
			case syn && known:
				synRtx++
			}
			if dead(peer.st, seg.SrcPort) {
				stale++
			}
			filed := len(s.st.table)
			s.got = nil
			s.st.dispatch(n.iface, p)
			switch {
			case known:
				if s.got != want {
					t.Fatalf("%q (ports %d→%d) reached %p, by name it goes to %p", flow, seg.SrcPort, seg.DstPort, s.got, want)
				}
			case syn && s.st.Accept != nil:
				if len(s.st.table) != filed+1 || s.got != s.st.table[filed] || s.ref[flow] != s.got {
					t.Fatalf("SYN of %q reached %p, by name it is a fresh accept", flow, s.got)
				}
			case s.got != nil:
				t.Fatalf("%q (ports %d→%d) reached %p, by name it has no connection", flow, seg.SrcPort, seg.DstPort, s.got)
			}
		}
	}
	n.iface.OnClientRecv(deliver(cli, srv))
	n.iface.OnServerRecv(deliver(srv, cli))

	a, b := dial("a"), dial("b")
	for a.RecvTotal() < size/4 {
		n.sim.RunFor(5 * time.Millisecond)
	}
	// Both ends forget "a" with its data in flight: the old server end
	// keeps retransmitting to a client handle that is gone, from one of
	// its own that is gone, and the new incarnation meets those segments.
	forget(cli, "a")
	forget(srv, "a")
	n.sim.RunFor(50 * time.Millisecond)
	a2 := dial("a")
	n.sim.Run()

	if b.RecvTotal() != size || a2.State() == StateSynSent {
		t.Fatalf("b received %d of %d bytes, the second a is %v", b.RecvTotal(), size, a2.State())
	}
	if a2.port == a.port || srv.ref["a"].port == 0 {
		t.Fatalf("the second incarnation of a reuses handle %d", a.port)
	}
	t.Logf("by handle %d, retransmitted SYNs %d, from forgotten handles %d, to freed handles %d", byHandle, synRtx, stale, freed)
	if byHandle == 0 || synRtx == 0 || stale == 0 || freed == 0 {
		t.Fatal("coverage hole: a kind of segment above never occurred")
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
