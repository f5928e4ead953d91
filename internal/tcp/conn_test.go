package tcp

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// testNet wires a client and server stack over one duplex interface.
type testNet struct {
	sim    *simnet.Sim
	iface  *netem.Iface
	client *Stack
	server *Stack
}

func newTestNet(t testing.TB, seed int64, mbps float64, owd time.Duration, loss float64) *testNet {
	sim := simnet.New(seed)
	cfg := func(stream string) netem.LinkConfig {
		return netem.LinkConfig{
			PropDelay:  owd,
			LossProb:   loss,
			RNG:        sim.RNG(stream),
			QueueLimit: 200,
		}
	}
	up := netem.NewFixedLink(sim, mbps, cfg("loss/up"))
	down := netem.NewFixedLink(sim, mbps, cfg("loss/down"))
	iface := netem.NewIface(sim, "wifi", up, down)
	n := &testNet{
		sim:    sim,
		iface:  iface,
		client: NewStack(sim, ClientSide),
		server: NewStack(sim, ServerSide),
	}
	n.client.Bind(iface)
	n.server.Bind(iface)
	return n
}

// download runs a server→client transfer of size bytes and returns the
// completion time (all bytes in order at the client).
func download(t testing.TB, n *testNet, size int) time.Duration {
	t.Helper()
	var done time.Duration
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) {
			c.Send(size)
			c.Close()
		}
	}
	n.client.Dial(n.iface, "flow1", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= int64(size) && done == 0 {
				done = n.sim.Now()
			}
		},
	}})
	n.sim.Run()
	if done == 0 {
		t.Fatalf("download of %d bytes did not complete", size)
	}
	return done
}

func TestHandshakeTiming(t *testing.T) {
	n := newTestNet(t, 1, 10, 20*time.Millisecond, 0)
	var clientEst, serverEst time.Duration
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) { serverEst = n.sim.Now() }
	}
	n.client.Dial(n.iface, "f", Config{Callbacks: Callbacks{
		OnEstablished: func(c *Conn) { clientEst = n.sim.Now() },
	}})
	n.sim.Run()
	// One RTT is 2*20ms + tiny serialization. Client established after
	// SYN-ACK (1 RTT), server after final ACK (1.5 RTT).
	if clientEst < 40*time.Millisecond || clientEst > 45*time.Millisecond {
		t.Fatalf("client established at %v, want ~40ms", clientEst)
	}
	if serverEst < 60*time.Millisecond || serverEst > 66*time.Millisecond {
		t.Fatalf("server established at %v, want ~60ms", serverEst)
	}
}

func TestDownloadCompletes(t *testing.T) {
	n := newTestNet(t, 1, 10, 10*time.Millisecond, 0)
	d := download(t, n, 100_000)
	if d <= 0 {
		t.Fatal("no completion")
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	// A 1 MB transfer on a clean 10 Mbit/s, 10 ms OWD link should
	// achieve most of the link rate despite slow start.
	n := newTestNet(t, 1, 10, 10*time.Millisecond, 0)
	const size = 1 << 20
	d := download(t, n, size)
	mbps := float64(size) * 8 / d.Seconds() / 1e6
	if mbps < 7 || mbps > 10.1 {
		t.Fatalf("1MB goodput = %.2f Mbit/s, want 7-10 on a 10 Mbit/s link", mbps)
	}
}

func TestShortFlowDominatedByRTT(t *testing.T) {
	// A 10 KB flow takes ~1 RTT handshake + ~1 RTT data on a fast
	// link: it is RTT-bound, not rate-bound.
	fast := newTestNet(t, 1, 100, 50*time.Millisecond, 0)
	d := download(t, fast, 10_000)
	// Expect roughly 2 RTT = 200 ms, certainly under 3 RTT.
	if d < 150*time.Millisecond || d > 320*time.Millisecond {
		t.Fatalf("10KB FCT = %v, want ~200-300ms (RTT-bound)", d)
	}
}

func TestLargerFlowHigherThroughput(t *testing.T) {
	// Throughput (size/FCT) grows with flow size as slow start
	// amortises — the effect behind the paper's Fig. 7 x-axis.
	var prev float64
	for _, size := range []int{10_000, 100_000, 1_000_000} {
		n := newTestNet(t, 1, 20, 25*time.Millisecond, 0)
		d := download(t, n, size)
		mbps := float64(size) * 8 / d.Seconds() / 1e6
		if mbps <= prev {
			t.Fatalf("throughput not increasing with flow size: %v Mbit/s after %v", mbps, prev)
		}
		prev = mbps
	}
}

func TestUploadDirection(t *testing.T) {
	n := newTestNet(t, 1, 10, 10*time.Millisecond, 0)
	const size = 200_000
	var done time.Duration
	n.server.Accept = func(c *Conn) {
		c.cb.OnData = func(c *Conn, total int64) {
			if total >= size && done == 0 {
				done = n.sim.Now()
			}
		}
	}
	c := n.client.Dial(n.iface, "up1", Config{Callbacks: Callbacks{
		OnEstablished: func(c *Conn) {
			c.Send(size)
			c.Close()
		},
	}})
	n.sim.Run()
	if done == 0 {
		t.Fatal("upload did not complete")
	}
	if c.State() == StateEstablished {
		t.Fatalf("client state after close = %v", c.State())
	}
}

func TestLossRecovery(t *testing.T) {
	// 2% loss: the transfer must still complete, with retransmissions.
	n := newTestNet(t, 3, 10, 10*time.Millisecond, 0.02)
	const size = 500_000
	var done time.Duration
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) { c.Send(size); c.Close() }
	}
	n.client.Dial(n.iface, "lossy", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= size && done == 0 {
				done = n.sim.Now()
			}
		},
	}})
	n.sim.Run()
	if done == 0 {
		t.Fatal("lossy download did not complete")
	}
	srv := n.server.Conn("lossy")
	if srv.Retransmits == 0 {
		t.Fatal("expected retransmissions under 2% loss")
	}
}

func TestFastRetransmitUsedBeforeRTO(t *testing.T) {
	// Moderate loss on a long flow should trigger fast recovery.
	n := newTestNet(t, 5, 20, 15*time.Millisecond, 0.01)
	const size = 1 << 20
	done := false
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) { c.Send(size); c.Close() }
	}
	n.client.Dial(n.iface, "fr", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) { done = total >= size || done },
	}})
	n.sim.Run()
	if !done {
		t.Fatal("transfer incomplete")
	}
	if n.server.Conn("fr").FastRecovers == 0 {
		t.Fatal("expected at least one fast recovery")
	}
}

func TestSYNRetransmission(t *testing.T) {
	// Link down at connect time: SYN is retried with backoff and the
	// connection eventually establishes when the link comes up.
	n := newTestNet(t, 1, 10, 10*time.Millisecond, 0)
	n.iface.SetBlackhole(true)
	established := time.Duration(0)
	n.server.Accept = func(c *Conn) {}
	n.client.Dial(n.iface, "syn", Config{Callbacks: Callbacks{
		OnEstablished: func(c *Conn) { established = n.sim.Now() },
	}})
	n.sim.Schedule(n.sim.Now()+2500*time.Millisecond, func() { n.iface.SetBlackhole(false) })
	n.sim.Run()
	if established == 0 {
		t.Fatal("connection never established after link recovery")
	}
	// SYN at 0 lost; retries at ~1s (lost), ~3s (delivered).
	if established < 2900*time.Millisecond {
		t.Fatalf("established at %v, expected ≥3s (backoff schedule)", established)
	}
}

func TestRTOCollapsesWindow(t *testing.T) {
	n := newTestNet(t, 1, 10, 10*time.Millisecond, 0)
	var srv *Conn
	n.server.Accept = func(c *Conn) {
		srv = c
		c.cb.OnEstablished = func(c *Conn) { c.Send(5 << 20) }
	}
	n.client.Dial(n.iface, "rto", Config{})
	n.sim.RunFor(2 * time.Second)
	before := srv.CwndBytes()
	if before <= InitialCwndSegments*MSS {
		t.Fatalf("cwnd did not grow: %d", before)
	}
	n.iface.SetBlackhole(true)
	n.sim.RunFor(5 * time.Second)
	if srv.rtoCount == 0 {
		t.Fatal("no RTO during blackhole")
	}
	if got := srv.CwndBytes(); got != MSS {
		t.Fatalf("cwnd after RTO = %d, want %d (one MSS)", got, MSS)
	}
}

func TestRTTEstimate(t *testing.T) {
	n := newTestNet(t, 1, 50, 30*time.Millisecond, 0)
	var srv *Conn
	n.server.Accept = func(c *Conn) {
		srv = c
		c.cb.OnEstablished = func(c *Conn) { c.Send(300_000); c.Close() }
	}
	n.client.Dial(n.iface, "rtt", Config{})
	n.sim.Run()
	srtt := srv.SRTT()
	// True RTT is 60 ms + queueing; SRTT should be in a sane band.
	if srtt < 60*time.Millisecond || srtt > 120*time.Millisecond {
		t.Fatalf("SRTT = %v, want 60-120ms", srtt)
	}
	if srv.RTO() < MinRTO {
		t.Fatalf("RTO %v below floor %v", srv.RTO(), MinRTO)
	}
}

func TestFINHandshakeClosesBothSides(t *testing.T) {
	n := newTestNet(t, 1, 10, 5*time.Millisecond, 0)
	closedServer := false
	closedClient := false
	var cli *Conn
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) { c.Send(10_000); c.Close() }
		c.cb.OnClosed = func(c *Conn) { closedServer = true }
	}
	cli = n.client.Dial(n.iface, "fin", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= 10_000 {
				c.Close()
			}
		},
		OnClosed: func(c *Conn) { closedClient = true },
	}})
	n.sim.Run()
	if !closedServer || !closedClient {
		t.Fatalf("closed: server=%v client=%v", closedServer, closedClient)
	}
	if cli.State() != StateDone {
		t.Fatalf("client state = %v, want done", cli.State())
	}
}

func TestConcurrentFlowsShareLink(t *testing.T) {
	n := newTestNet(t, 1, 10, 10*time.Millisecond, 0)
	const size = 300_000
	done := map[string]time.Duration{}
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) { c.Send(size); c.Close() }
	}
	for _, f := range []string{"a", "b", "c"} {
		f := f
		n.client.Dial(n.iface, f, Config{Callbacks: Callbacks{
			OnData: func(c *Conn, total int64) {
				if total >= size {
					if _, ok := done[f]; !ok {
						done[f] = n.sim.Now()
					}
				}
			},
		}})
	}
	n.sim.Run()
	if len(done) != 3 {
		t.Fatalf("completed %d flows, want 3", len(done))
	}
	// Aggregate goodput should be near link rate.
	var last time.Duration
	for _, d := range done {
		if d > last {
			last = d
		}
	}
	agg := float64(3*size) * 8 / last.Seconds() / 1e6
	if agg < 7 {
		t.Fatalf("aggregate goodput %.1f Mbit/s too low", agg)
	}
}

// TestOnMappedAck: the hook fires once per cumulative ACK that covers a
// mapped segment, never for the ACK of a SYN or a FIN alone, and while
// it runs the covered segments are still yielded by Mappings (mptcp's
// wake runs there, and its sends must see the pipe that still holds
// them).
func TestOnMappedAck(t *testing.T) {
	type mapped struct {
		dss netem.DSS
		n   int
	}
	var calls [][]mapped // what Mappings yielded during each call
	onMappedAck := func(c *Conn) {
		var in []mapped
		for dss, n := range c.Mappings() {
			in = append(in, mapped{dss, n})
		}
		calls = append(calls, in)
	}

	// Driven directly: SYN, two mapped segments and a FIN, acked in
	// three cumulative steps.
	c := &Conn{sim: simnet.New(1), cb: Callbacks{OnMappedAck: onMappedAck}}
	a, b := mapped{netem.DSS{DataSeq: 100, DataAck: 7}, 1000}, mapped{netem.DSS{DataSeq: 5000, DataAck: 9}, 600}
	c.sb.push(c.sim, sbEntry{seq: 0, flags: netem.FlagSYN})
	c.sb.push(c.sim, sbEntry{seq: 1, dss: a.dss, payload: int32(a.n), flags: netem.FlagACK | netem.FlagDSS})
	c.sb.push(c.sim, sbEntry{seq: 1001, dss: b.dss, payload: int32(b.n), flags: netem.FlagACK | netem.FlagDSS})
	c.sb.push(c.sim, sbEntry{seq: 1601, flags: netem.FlagFIN | netem.FlagACK})
	c.ackScoreboard(1) // the SYN alone
	if len(calls) != 0 {
		t.Fatalf("the ACK of a SYN fired the hook: %v", calls)
	}
	c.ackScoreboard(1601) // both mapped segments at once
	if want := [][]mapped{{a, b}}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("covering ACK: calls %v, want %v (once, covered segments still yielded)", calls, want)
	}
	c.ackScoreboard(1602) // the FIN alone
	if len(calls) != 1 {
		t.Fatalf("the ACK of a FIN fired the hook: %v", calls)
	}

	// Over a link: the peer ACKs each segment, so each covering ACK
	// fires once and sees its own segment at the head; the handshake
	// and FIN ACKs fire nothing.
	calls = nil
	n := newTestNet(t, 1, 10, 5*time.Millisecond, 0)
	src := &scriptSource{chunks: []scriptChunk{{n: a.n, dss: a.dss}, {n: b.n, dss: b.dss}}}
	n.server.Accept = func(c *Conn) {}
	cli := NewConn(n.sim, n.iface, netem.Up, "opt", Config{
		Callbacks: Callbacks{Pull: src.pull, OnMappedAck: onMappedAck},
	})
	n.client.Register(cli)
	cli.Connect()
	cli.Close()
	n.sim.Run()
	if want := [][]mapped{{a, b}, {b}}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("calls %v, want %v", calls, want)
	}
	if !cli.finAcked {
		t.Fatal("the FIN was never acknowledged: the run proves nothing about its ACK")
	}
}

// scriptSource feeds a fixed list of (size, DSS) chunks through its
// pull, a Callbacks.Pull.
type scriptSource struct {
	chunks []scriptChunk
	i      int
}
type scriptChunk struct {
	n   int
	dss netem.DSS
}

func (s *scriptSource) pull(_ *Conn, max int) (int, netem.DSS, bool) {
	if s.i >= len(s.chunks) {
		return 0, netem.DSS{}, false
	}
	c := s.chunks[s.i]
	if c.n > max {
		return 0, netem.DSS{}, false // chunks are not split in this test source
	}
	s.i++
	return c.n, c.dss, true
}

func TestDeterministicTransfer(t *testing.T) {
	run := func() time.Duration {
		n := newTestNet(t, 77, 15, 20*time.Millisecond, 0.01)
		return download(t, n, 400_000)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// Property: for any flow size, the receiver ends with exactly the sent
// byte count — no duplication or loss at the reliability layer, even
// over a lossy link.
func TestPropertyReliableDelivery(t *testing.T) {
	f := func(sizeRaw uint32, seed int64) bool {
		size := int(sizeRaw%900_000) + 1
		n := newTestNet(t, seed, 12, 15*time.Millisecond, 0.03)
		var got int64
		n.server.Accept = func(c *Conn) {
			c.cb.OnEstablished = func(c *Conn) { c.Send(size); c.Close() }
		}
		n.client.Dial(n.iface, "p", Config{Callbacks: Callbacks{
			OnData: func(c *Conn, total int64) { got = total },
		}})
		n.sim.Run()
		return got == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative in-order byte counts reported via OnData are
// strictly increasing.
func TestPropertyMonotonicDelivery(t *testing.T) {
	f := func(seed int64) bool {
		n := newTestNet(t, seed, 8, 10*time.Millisecond, 0.05)
		var prev int64 = -1
		okMono := true
		n.server.Accept = func(c *Conn) {
			c.cb.OnEstablished = func(c *Conn) { c.Send(200_000); c.Close() }
		}
		n.client.Dial(n.iface, "m", Config{Callbacks: Callbacks{
			OnData: func(c *Conn, total int64) {
				if total <= prev {
					okMono = false
				}
				prev = total
			},
		}})
		n.sim.Run()
		return okMono && prev == 200_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
