package tcp

import (
	"math/rand"
	"testing"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// Closed-form steady-state primitives: an oracle for the transport that
// is not the transport's own past output. Each one is first pinned to
// hand-worked numbers and then held against a real Conn (or a real
// link) driven by the simulator.

// analyticAckAdvance returns the congestion window after one clean
// cumulative ACK of acked bytes under Reno (slow start below ssthresh,
// MSS*acked/cwnd above), mirroring processAck's update.
func analyticAckAdvance(cwnd, ssthresh float64, acked int) float64 {
	if cwnd < ssthresh {
		return cwnd + float64(acked)
	}
	return cwnd + float64(MSS)*float64(acked)/cwnd
}

// analyticEpochAdvance advances one ACK-clocked RTT epoch in closed
// form: the in-flight bytes return as MSS-quantum ACKs, each growing
// cwnd per analyticAckAdvance and releasing window for new sends,
// clamped by wndLimit (the min of cwnd and the peer window as the epoch
// progresses) and the sender's pending backlog. It returns the bytes
// newly sent during the epoch and the final window — the same values
// stepping the packet simulator through one RTT would produce for a
// clean flow.
func analyticEpochAdvance(cwnd, ssthresh float64, wndLimit, inflight, pending int) (sent int, cwndOut float64) {
	pipe := inflight
	acked := 0
	for acked < inflight && pending > 0 {
		q := MSS
		if inflight-acked < q {
			q = inflight - acked
		}
		acked += q
		pipe -= q
		cwnd = analyticAckAdvance(cwnd, ssthresh, q)
		w := wndLimit
		if c := int(cwnd); c < w {
			w = c
		}
		for (w-pipe >= MSS || (w-pipe > 0 && pipe == 0)) && pending > 0 {
			n := MSS
			if pending < n {
				n = pending
			}
			if b := w - pipe; b < n {
				n = b
			}
			pending -= n
			pipe += n
			sent += n
		}
	}
	return sent, cwnd
}

// analyticQueueOccupancy returns the droptail occupancy (in packets) of
// a serialiser at time at, given its busy-until clock and a per-packet
// transmission time: the packets whose service has not finished yet.
func analyticQueueOccupancy(busyUntil, at, txPerPkt time.Duration) int {
	if busyUntil <= at || txPerPkt <= 0 {
		return 0
	}
	return int((busyUntil - at + txPerPkt - 1) / txPerPkt)
}

func TestAnalyticAckAdvance(t *testing.T) {
	// Slow start: cwnd grows by exactly the acked bytes.
	if got := analyticAckAdvance(14600, 1e9, MSS); got != 14600+MSS {
		t.Errorf("slow-start advance = %v, want %v", got, 14600+MSS)
	}
	// Congestion avoidance: cwnd += MSS*acked/cwnd.
	cwnd := 50.0 * MSS
	want := cwnd + float64(MSS)*float64(MSS)/cwnd
	if got := analyticAckAdvance(cwnd, 20*MSS, MSS); got != want {
		t.Errorf("CA advance = %v, want %v", got, want)
	}
	// Partial quantum (last ACK of a flow).
	if got := analyticAckAdvance(14600, 1e9, 500); got != 14600+500 {
		t.Errorf("partial advance = %v, want %v", got, 14600+500)
	}
}

func TestAnalyticEpochAdvance(t *testing.T) {
	cases := []struct {
		name     string
		cwnd     float64
		ssthresh float64
		wnd      int
		inflight int
		pending  int
		wantSent int
		wantCwnd float64
	}{
		// Slow start: every ACK grows the window by a segment and releases
		// two, so 10 in flight become 20 sent and a window of 20.
		{"slow-start", 10 * MSS, float64(DefaultWindow), DefaultWindow, 10 * MSS, 1 << 20,
			20 * MSS, 20 * MSS},
		// Congestion avoidance: each ACK releases one segment, and 40
		// ACKs of MSS²/cwnd come to just under a 41st.
		{"cong-avoid", 40 * MSS, 20 * MSS, DefaultWindow, 40 * MSS, 1 << 20,
			40 * MSS, 59842.62721434734},
		// Receiver-window-limited: the window doubles regardless, the
		// flight is held at the peer's 32 segments.
		{"rwnd-limited", 30 * MSS, float64(DefaultWindow), 32 * MSS, 30 * MSS, 1 << 20,
			32 * MSS, 60 * MSS},
		// Source-limited: the backlog runs out on the fourth ACK, and the
		// closed form stops there.
		{"src-limited", 10 * MSS, float64(DefaultWindow), DefaultWindow, 10 * MSS, 7 * MSS,
			7 * MSS, 14 * MSS},
		// Partial final quantum in flight: its ACK grows the window by 700.
		{"ragged-flight", 10 * MSS, float64(DefaultWindow), DefaultWindow, 10*MSS + 700, 1 << 20,
			20 * MSS, 20*MSS + 700},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent, cwnd := analyticEpochAdvance(tc.cwnd, tc.ssthresh, tc.wnd, tc.inflight, tc.pending)
			if sent != tc.wantSent || cwnd != tc.wantCwnd {
				t.Errorf("epoch advance = (%d, %v), want (%d, %v)", sent, cwnd, tc.wantSent, tc.wantCwnd)
			}
		})
	}
}

func TestAnalyticQueueOccupancy(t *testing.T) {
	tx := 600 * time.Microsecond
	cases := []struct {
		busy, at time.Duration
		want     int
	}{
		{0, 0, 0}, // idle link
		{time.Millisecond, 2 * time.Millisecond, 0}, // drained
		{2 * time.Millisecond, 0, 4},                // ceil(2ms/600us)
		{1800 * time.Microsecond, 0, 3},             // exact multiple
		{1801 * time.Microsecond, 0, 4},             // just over
	}
	for _, tc := range cases {
		if got := analyticQueueOccupancy(tc.busy, tc.at, tx); got != tc.want {
			t.Errorf("occupancy(busy=%v at=%v) = %d, want %d", tc.busy, tc.at, got, tc.want)
		}
	}
	// Against a live link: a burst of full segments admitted at once, its
	// droptail occupancy read back mid-service of every packet and after
	// the last. The serialiser clock is taken from the link itself: the
	// last packet arrives at busy-until + propagation.
	const burst, prop = 5, 10 * time.Millisecond
	sim := simnet.New(1)
	l := netem.NewFixedLink(sim, 20, netem.LinkConfig{PropDelay: prop, QueueLimit: 100})
	var lastArrival time.Duration
	l.SetReceiver(func(p *netem.Packet) {
		lastArrival = sim.Now()
		netem.ReleasePacket(p)
	})
	for i := 0; i < burst; i++ {
		p := netem.NewPacket(sim)
		p.Size = netem.HeaderSize + MSS
		l.Send(p)
	}
	type sample struct {
		at  time.Duration
		got int
	}
	var samples []sample
	for k := 0; k <= burst; k++ {
		at := time.Duration(k)*tx + tx/2
		sim.Schedule(at, func() { samples = append(samples, sample{at, l.QueueLen()}) })
	}
	sim.Run()
	busy := lastArrival - prop
	if busy != burst*tx {
		t.Fatalf("link finished serialising %d packets at %v, want %v", burst, busy, burst*tx)
	}
	for _, s := range samples {
		if want := analyticQueueOccupancy(busy, s.at, tx); s.got != want {
			t.Errorf("at %v the link holds %d packets, closed form says %d", s.at, s.got, want)
		}
	}
}

// cleanBulk runs a server→client bulk transfer of size bytes on n that
// nothing disturbs — lossless links, no reordering, the sender never
// closes — and calls after, with the sender, each time either stack has
// finished processing a segment.
func cleanBulk(t *testing.T, n *testNet, size int, onEstablished func(srv *Conn), after func(srv *Conn)) {
	t.Helper()
	var srv *Conn
	n.server.Accept = func(c *Conn) {
		c.cb.OnEstablished = func(c *Conn) {
			srv = c
			if onEstablished != nil {
				onEstablished(c)
			}
			c.Send(size)
		}
	}
	impair(n, rand.New(rand.NewSource(1)), 0, 0, nil, func() {
		if srv != nil {
			after(srv)
		}
	})
	n.client.Dial(n.iface, "clean", Config{})
	n.sim.Run()
	if srv == nil || srv.sndUna != uint64(size)+1 {
		t.Fatal("clean bulk transfer did not complete")
	}
	up, down := n.iface.UpLink().Stats(), n.iface.DownLink().Stats()
	if up.Sent != up.Delivered || down.Sent != down.Delivered || srv.FastRecovers != 0 {
		t.Fatalf("clean bulk transfer was not clean: up %+v, down %+v, %d fast recoveries", up, down, srv.FastRecovers)
	}
}

// TestProcessAckMatchesClosedForm holds the real sender's window
// arithmetic against analyticAckAdvance: on a lossless link, cwnd after
// every clean cumulative ACK equals the closed form applied to cwnd
// before it, through slow start, the HyStart exit and on into
// congestion avoidance.
func TestProcessAckMatchesClosedForm(t *testing.T) {
	n := newTestNet(t, 1, 50, 20*time.Millisecond, 0)
	var cwnd float64
	var una uint64
	var slowStart, congAvoid int
	cleanBulk(t, n, 4<<20,
		func(srv *Conn) { cwnd, una = srv.cwnd, srv.sndUna },
		func(srv *Conn) {
			if srv.sndUna == una {
				if srv.cwnd != cwnd {
					t.Fatalf("cwnd moved %v -> %v without a cumulative ACK", cwnd, srv.cwnd)
				}
				return
			}
			acked := int(srv.sndUna - una)
			if una == 0 {
				acked-- // the SYN-ACK's sequence unit is not data
			}
			// processAck samples the RTT (which may end slow start) before
			// it grows the window, so the threshold that applied is the one
			// in force now.
			if cwnd < srv.ssthresh {
				slowStart++
			} else {
				congAvoid++
			}
			if want := analyticAckAdvance(cwnd, srv.ssthresh, acked); srv.cwnd != want {
				t.Fatalf("ACK of %d bytes at %v: cwnd %v -> %v, closed form %v (ssthresh %v)",
					acked, n.sim.Now(), cwnd, srv.cwnd, want, srv.ssthresh)
			}
			cwnd, una = srv.cwnd, srv.sndUna
		})
	if slowStart < 50 || congAvoid < 200 {
		t.Fatalf("coverage hole: %d slow-start ACKs, %d congestion-avoidance ACKs", slowStart, congAvoid)
	}
}

// TestEpochMatchesClosedForm holds a whole ACK-clocked round trip of
// the real sender against analyticEpochAdvance. An epoch runs from the
// moment the previous flight is fully acknowledged until everything in
// flight at that moment is, or until the backlog runs out, which is
// where the closed form stops too; the bytes newly sent meanwhile and
// the window at the end must equal the closed form's, epoch after
// epoch: doubling in slow start, about a segment per round above the
// threshold, and source-limited at the end. The link is fast enough
// that queueing never ends slow start early — the threshold is set by
// hand instead.
func TestEpochMatchesClosedForm(t *testing.T) {
	n := newTestNet(t, 1, 1000, 20*time.Millisecond, 0)
	const size = 600 * MSS
	const ssthresh = 60 * MSS
	type epoch struct {
		cwnd      float64
		end       uint64 // sndNxt when the epoch began
		inflight  int
		backlog   int
		slowStart bool
	}
	var cur epoch
	begin := func(srv *Conn) {
		cur = epoch{
			cwnd: srv.cwnd, end: srv.sndNxt, inflight: srv.BytesInFlight(),
			backlog: srv.bytes.pending, slowStart: srv.cwnd < srv.ssthresh,
		}
	}
	var slowStart, congAvoid, srcLimited int
	started := false
	cleanBulk(t, n, size,
		func(srv *Conn) { srv.ssthresh = ssthresh },
		func(srv *Conn) {
			if !started {
				// The first flight leaves when Send is called, after the
				// establishment hook has returned.
				started = true
				begin(srv)
				return
			}
			if cur.backlog == 0 || (srv.sndUna < cur.end && srv.bytes.pending > 0) {
				return
			}
			if srv.ssthresh != ssthresh {
				t.Fatalf("ssthresh moved to %v: the epoch was not clean", srv.ssthresh)
			}
			wantSent, wantCwnd := analyticEpochAdvance(cur.cwnd, ssthresh, srv.peerWnd,
				cur.inflight, cur.backlog)
			if sent := int(srv.sndNxt - cur.end); sent != wantSent || srv.cwnd != wantCwnd {
				t.Fatalf("epoch from cwnd %v with %d bytes in flight: sent %d and reached cwnd %v, closed form %d and %v",
					cur.cwnd, cur.inflight, sent, srv.cwnd, wantSent, wantCwnd)
			}
			switch {
			case wantSent == cur.backlog:
				srcLimited++
			case cur.slowStart:
				slowStart++
			default:
				congAvoid++
			}
			begin(srv)
		})
	if slowStart < 2 || congAvoid < 2 || srcLimited != 1 {
		t.Fatalf("coverage hole: %d slow-start, %d congestion-avoidance, %d source-limited epochs",
			slowStart, congAvoid, srcLimited)
	}
}
