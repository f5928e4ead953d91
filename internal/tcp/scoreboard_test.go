package tcp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// scanScoreboard is the reference for the incremental sender
// accounting: the O(window) scoreboard scan pipe() used to run on every
// send opportunity, kept verbatim as the oracle, plus the pending-loss
// count lostPending stands for.
func scanScoreboard(c *Conn) (pipe, lostPending int) {
	for i := 0; i < c.sb.n; i++ {
		e := c.sb.at(i)
		switch {
		case e.sacked:
		case e.lost:
			if e.rtxed {
				pipe += int(e.payload)
			} else {
				lostPending++
			}
		default:
			pipe += int(e.payload)
		}
	}
	return pipe, lostPending
}

func checkAccounting(t *testing.T, when string, conns ...*Conn) {
	t.Helper()
	for _, c := range conns {
		if c == nil {
			continue
		}
		pipe, lost := scanScoreboard(c)
		if pipe != c.pipe() || lost != c.lostPending {
			t.Fatalf("%s: %s incremental pipe=%d lostPending=%d, reference scan pipe=%d lostPending=%d",
				when, c.flow, c.pipe(), c.lostPending, pipe, lost)
		}
		if err := c.AuditScoreboard(); err != nil {
			t.Fatalf("%s: AuditScoreboard disagrees with the reference: %v", when, err)
		}
	}
}

// impair replaces an interface's delivery callbacks with seeded loss,
// blackout windows and random extra delay (hence reordering) in front
// of the stacks, and calls after once each surviving packet has been
// processed. The links themselves stay lossless and FIFO.
func impair(n *testNet, rng *rand.Rand, lossPct, delayPct int, blackouts [][2]time.Duration, after func()) {
	wrap := func(st *Stack) func(*netem.Packet) {
		fc := new(flowCache)
		deliver := func(a any) {
			st.dispatch(n.iface, a.(*netem.Packet), fc)
			after()
		}
		return func(p *netem.Packet) {
			now := n.sim.Now()
			for _, b := range blackouts {
				if now >= b[0] && now < b[1] {
					netem.ReleasePacket(p)
					return
				}
			}
			if rng.Intn(100) < lossPct {
				netem.ReleasePacket(p)
				return
			}
			if rng.Intn(100) < delayPct {
				n.sim.AfterArg(time.Duration(1+rng.Intn(30))*time.Millisecond, deliver, p)
				return
			}
			deliver(p)
		}
	}
	n.iface.OnClientRecv(wrap(n.client))
	n.iface.OnServerRecv(wrap(n.server))
}

// TestScoreboardAccountingProperty drives seeded transfers through
// loss, reordering, SACK recovery, tail loss probes and retransmission
// timeouts, and after every delivered segment compares the
// incrementally maintained pipe and lostPending of both endpoints with
// the reference scan.
func TestScoreboardAccountingProperty(t *testing.T) {
	var retransmits, recoveries, rtos, probes, sacks int
	for seed := int64(1); seed <= 12; seed++ {
		n := newTestNet(t, seed, 20, 10*time.Millisecond, 0)
		rng := rand.New(rand.NewSource(seed))
		lossPct, delayPct := 1+rng.Intn(4), rng.Intn(8)
		blackouts := [][2]time.Duration{
			{400 * time.Millisecond, 650 * time.Millisecond}, // long enough for an RTO
		}
		var cli, srv *Conn
		when := fmt.Sprintf("seed %d", seed)
		impair(n, rng, lossPct, delayPct, blackouts, func() {
			checkAccounting(t, when, cli, srv)
			if srv != nil {
				if srv.probeFired {
					probes++
				}
				if srv.hiSacked > srv.sndUna {
					sacks++
				}
			}
		})
		const size = 600_000
		n.server.Accept = func(c *Conn) {
			srv = c
			c.SetCallbacks(Callbacks{
				OnEstablished: func(c *Conn) { c.Send(size); c.Close() },
				OnRTO:         func(c *Conn, count int) { rtos++ },
			})
		}
		var got int64
		cli = n.client.Dial(n.iface, "prop", Config{Callbacks: Callbacks{
			OnData: func(c *Conn, total int64) { got = total },
		}})
		n.sim.RunUntil(10 * time.Minute)
		if got != size {
			t.Fatalf("%s: delivered %d of %d bytes", when, got, size)
		}
		checkAccounting(t, when+" (end)", cli, srv)
		if srv.sb.n != 0 || srv.pipe() != 0 {
			t.Fatalf("%s: %d entries, pipe %d left after a complete transfer", when, srv.sb.n, srv.pipe())
		}
		retransmits += srv.Retransmits
		recoveries += srv.FastRecovers
	}
	// The property is only as good as the states it visited.
	if retransmits == 0 || recoveries == 0 || rtos == 0 || probes == 0 || sacks == 0 {
		t.Fatalf("coverage hole: retransmits=%d fast-recoveries=%d rtos=%d probe-states=%d sack-states=%d",
			retransmits, recoveries, rtos, probes, sacks)
	}
}

// TestScoreboardRing pins the ring mechanics the property test only
// reaches by luck: growth while the live entries wrap the array end,
// draining to empty, and a head sitting on the last slot.
func TestScoreboardRing(t *testing.T) {
	var sb scoreboard
	sim := simnet.New(1)
	seq := uint64(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			sb.push(sim, sbEntry{seq: seq, payload: 10, opt: &seq})
			seq += 10
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			sb.popFront()
		}
	}
	inOrder := func(first uint64) {
		t.Helper()
		for i := 0; i < sb.n; i++ {
			if got, want := sb.at(i).seq, first+uint64(10*i); got != want {
				t.Fatalf("entry %d has seq %d, want %d", i, got, want)
			}
		}
	}

	push(16)
	if len(sb.buf) != 16 {
		t.Fatalf("initial capacity %d, want 16", len(sb.buf))
	}
	pop(15) // head at the last slot
	if sb.head != 15 || sb.n != 1 || sb.at(0).seq != 150 {
		t.Fatalf("head=%d n=%d first=%d, want 15/1/150", sb.head, sb.n, sb.at(0).seq)
	}
	for i := 0; i < 15; i++ {
		if sb.buf[i].opt != nil {
			t.Fatalf("popped slot %d still holds its option", i)
		}
	}
	push(15) // wraps: slots 15, 0..14
	if len(sb.buf) != 16 || sb.head != 15 {
		t.Fatalf("filling a wrapped ring moved it: cap %d head %d", len(sb.buf), sb.head)
	}
	inOrder(150)
	push(1) // grows while wrapped
	if len(sb.buf) != 32 || sb.head != 0 || sb.n != 17 {
		t.Fatalf("after growth: cap %d head %d n %d, want 32/0/17", len(sb.buf), sb.head, sb.n)
	}
	inOrder(150)

	pop(sb.n) // drain to empty
	if sb.n != 0 {
		t.Fatalf("n=%d after draining", sb.n)
	}
	first := seq
	push(32) // refill from wherever the head stopped: no growth
	if len(sb.buf) != 32 {
		t.Fatalf("refilling a drained ring grew it to %d", len(sb.buf))
	}
	inOrder(first)
}

// TestDetectLossCleanPathSkipsScan pins the detectLoss early-out: a
// flow that recovered from one early loss carries a non-zero hiSacked
// for the rest of its life, and must still not rescan the scoreboard on
// every later ACK.
func TestDetectLossCleanPathSkipsScan(t *testing.T) {
	n := newTestNet(t, 1, 20, 10*time.Millisecond, 0)
	var srv *Conn
	dropped := false
	deliver, fc := n.client.dispatch, new(flowCache)
	n.iface.OnClientRecv(func(p *netem.Packet) {
		if seg, ok := p.Payload.(*Segment); ok && !dropped && seg.PayloadLen > 0 && seg.Seq > 20*MSS {
			dropped = true // one early data segment vanishes
			netem.ReleasePacket(p)
			return
		}
		deliver(n.iface, p, fc)
	})
	const size = 2 << 20
	n.server.Accept = func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{OnEstablished: func(c *Conn) { c.Send(size); c.Close() }})
	}
	var got int64
	n.client.Dial(n.iface, "f", Config{Callbacks: Callbacks{
		OnData: func(c *Conn, total int64) { got = total },
	}})

	// Run until the loss has been repaired and the flow is clean again.
	for n.sim.Pending() > 0 && !(dropped && srv.FastRecovers > 0 && !srv.inRecov &&
		srv.hiSacked <= srv.sndUna && srv.lostPending == 0) {
		n.sim.RunFor(5 * time.Millisecond)
	}
	if srv.FastRecovers != 1 || srv.hiSacked == 0 {
		t.Fatalf("setup: fast-recoveries=%d hiSacked=%d, want one repaired loss", srv.FastRecovers, srv.hiSacked)
	}
	visits, sent := srv.sbVisits, srv.segmentsSent
	if visits == 0 {
		t.Fatal("the recovery itself must have scanned the scoreboard")
	}
	n.sim.Run()
	if got != size {
		t.Fatalf("delivered %d of %d bytes", got, size)
	}
	if srv.segmentsSent-sent < 500 {
		t.Fatalf("only %d segments followed the recovery; the test needs a long clean tail", srv.segmentsSent-sent)
	}
	if srv.FastRecovers != 1 || srv.Retransmits != 1 {
		t.Fatalf("the tail was not clean: fast-recoveries=%d retransmits=%d", srv.FastRecovers, srv.Retransmits)
	}
	if srv.sbVisits != visits {
		t.Fatalf("clean-path ACKs visited %d scoreboard entries after the recovery, want 0",
			srv.sbVisits-visits)
	}
}

// chunkSource hands out fixed-size chunks without end once switched
// on, so a window holds a chosen number of scoreboard entries.
type chunkSource struct {
	chunk int
	on    bool
}

func (s *chunkSource) Next(max int) (int, any, bool) {
	if !s.on || max < s.chunk {
		return 0, nil, false
	}
	return s.chunk, nil, true
}

func (s *chunkSource) Pending() bool { return s.on }

func noIncrease(*Conn, int) float64 { return 0 }

// ackClock is an established sender holding a fixed window of segments
// in flight on a blackholed interface; each step delivers the
// cumulative ACK for the oldest one, which clocks out one new segment.
type ackClock struct {
	c   *Conn
	ack Segment
}

const ackClockChunk = 256 // bytes per segment: 4096 in flight fit DefaultWindow

func newAckClock(tb testing.TB, window int) *ackClock {
	n := newTestNet(tb, 1, 100, time.Millisecond, 0)
	src := &chunkSource{chunk: ackClockChunk}
	var srv *Conn
	n.server.Accept = func(c *Conn) {
		srv = c
		c.SetSource(src)
		c.SetIncrease(noIncrease)
	}
	n.client.Dial(n.iface, "clock", Config{})
	n.sim.Run()
	if srv == nil || srv.State() != StateEstablished {
		tb.Fatal("server conn not established")
	}
	n.iface.SetBlackhole(true) // transmissions are recycled at once
	srv.cwnd = float64(window*ackClockChunk + MSS - 1)
	srv.ssthresh = srv.cwnd // congestion avoidance, and noIncrease keeps it there
	src.on = true
	srv.NotifyData()
	if srv.sb.n != window {
		tb.Fatalf("window holds %d segments, want %d", srv.sb.n, window)
	}
	a := &ackClock{c: srv}
	a.ack = Segment{Flow: srv.flow, Flags: FlagACK, Wnd: DefaultWindow}
	return a
}

//go:noinline
func (a *ackClock) step() {
	a.ack.Ack = a.c.sndUna + ackClockChunk
	a.c.handle(&a.ack)
}

// BenchmarkAckClockWindow measures the sender's cost of one clean
// cumulative ACK (pop, RTT sample, timer re-arm, one new segment out)
// with 64, 512 and 4096 segments in flight. The three must agree: the
// clean path does no work proportional to the window.
func BenchmarkAckClockWindow(b *testing.B) {
	for _, w := range []int{64, 512, 4096} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			a := newAckClock(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.step()
			}
			b.StopTimer()
			if a.c.sb.n != w {
				b.Fatalf("window drifted to %d segments", a.c.sb.n)
			}
		})
	}
}

// TestAckClockIndependentOfWindow asserts the benchmark's claim: ns per
// ACK with 4096 segments in flight stays within 1.5x of 64.
func TestAckClockIndependentOfWindow(t *testing.T) {
	perAck := func(window int) float64 {
		a := newAckClock(t, window)
		const acks = 50_000
		for i := 0; i < 2*window; i++ {
			a.step() // settle ring capacity and pools
		}
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < acks; i++ {
				a.step()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if a.c.sb.n != window || a.c.sbVisits != 0 {
			t.Fatalf("window %d: %d in flight, %d scoreboard visits; the clock left the clean path",
				window, a.c.sb.n, a.c.sbVisits)
		}
		return float64(best) / acks
	}
	var small, large float64
	for attempt := 0; attempt < 3; attempt++ { // wall-clock: tolerate a noisy neighbour
		small, large = perAck(64), perAck(4096)
		if large <= 1.5*small {
			return
		}
	}
	t.Fatalf("ns per ACK: %.1f at 4096 in flight vs %.1f at 64 — more than 1.5x", large, small)
}
