package netem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"multinet/internal/simnet"
)

func TestFixedLinkSerializationAndPropagation(t *testing.T) {
	s := simnet.New(1)
	// 12 Mbit/s, 10 ms propagation: a 1500 B packet takes 1 ms to
	// serialize, so delivery is at 11 ms.
	l := NewFixedLink(s, 12, LinkConfig{PropDelay: 10 * time.Millisecond})
	var at time.Duration
	l.SetReceiver(func(p *Packet) { at = s.Now() })
	l.Send(&Packet{Size: 1500})
	s.Run()
	want := 11 * time.Millisecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestFixedLinkBackToBackQueueing(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 12, LinkConfig{})
	var times []time.Duration
	l.SetReceiver(func(p *Packet) { times = append(times, s.Now()) })
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1500})
	}
	s.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d, want 3", len(times))
	}
	// Serialization of one packet is 1 ms; deliveries at 1, 2, 3 ms.
	for i, want := range []time.Duration{1, 2, 3} {
		if times[i] != want*time.Millisecond {
			t.Fatalf("delivery %d at %v, want %v ms", i, times[i], want)
		}
	}
}

func TestFixedLinkThroughputMatchesRate(t *testing.T) {
	s := simnet.New(1)
	const mbps = 8.0
	l := NewFixedLink(s, mbps, LinkConfig{QueueLimit: 1 << 20})
	var bytes int64
	l.SetReceiver(func(p *Packet) { bytes += int64(p.Size) })
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 1000})
	}
	s.Run()
	elapsed := s.Now().Seconds()
	got := float64(bytes) * 8 / elapsed / 1e6
	if got < mbps*0.99 || got > mbps*1.01 {
		t.Fatalf("throughput %.3f Mbit/s, want ~%v", got, mbps)
	}
}

func TestFixedLinkDroptail(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 1, LinkConfig{QueueLimit: 5})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	for i := 0; i < 20; i++ {
		l.Send(&Packet{Size: 1500})
	}
	s.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d, want 5 (queue limit)", delivered)
	}
	if st := l.Stats(); st.DroppedQueue != 15 {
		t.Fatalf("dropped %d, want 15", st.DroppedQueue)
	}
}

func TestFixedLinkRandomLoss(t *testing.T) {
	s := simnet.New(1)
	rng := rand.New(rand.NewSource(7))
	l := NewFixedLink(s, 100, LinkConfig{LossProb: 0.3, RNG: rng, QueueLimit: 1 << 20})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 100})
	}
	s.Run()
	frac := float64(delivered) / n
	if frac < 0.66 || frac > 0.74 {
		t.Fatalf("delivered fraction %.3f, want ~0.70", frac)
	}
}

func TestFixedLinkDownDropsAndRecovers(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 10, LinkConfig{})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	l.SetDown(true)
	l.Send(&Packet{Size: 1000})
	s.Run()
	if delivered != 0 {
		t.Fatal("packet delivered over a down link")
	}
	l.SetDown(false)
	l.Send(&Packet{Size: 1000})
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after link up, want 1", delivered)
	}
}

func TestFixedLinkDownKillsInFlight(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 12, LinkConfig{PropDelay: 50 * time.Millisecond})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	l.Send(&Packet{Size: 1500}) // tx done at 1 ms, delivery due 51 ms
	s.RunUntil(20 * time.Millisecond)
	l.SetDown(true)
	s.Run()
	if delivered != 0 {
		t.Fatal("in-flight packet survived link down")
	}
}

func TestBlackholeSilent(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 10, LinkConfig{})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	l.SetBlackhole(true)
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Size: 500})
	}
	s.Run()
	if delivered != 0 {
		t.Fatal("blackholed link delivered packets")
	}
	st := l.Stats()
	if st.DroppedDown != 5 {
		t.Fatalf("DroppedDown = %d, want 5", st.DroppedDown)
	}
}

func TestVarLinkMatchesPeriodicRate(t *testing.T) {
	s := simnet.New(1)
	src := NewPeriodicOpportunities(12) // 12 Mbit/s of 1500 B slots
	l := NewVarLink(s, src, LinkConfig{QueueLimit: 1 << 20})
	var bytes int64
	l.SetReceiver(func(p *Packet) { bytes += int64(p.Size) })
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: MTU})
	}
	s.Run()
	got := float64(bytes) * 8 / s.Now().Seconds() / 1e6
	if got < 11.5 || got > 12.5 {
		t.Fatalf("VarLink throughput %.2f Mbit/s, want ~12", got)
	}
}

func TestVarLinkLargePacketUsesMultipleOpportunities(t *testing.T) {
	s := simnet.New(1)
	src := NewPeriodicOpportunities(12)
	l := NewVarLink(s, src, LinkConfig{})
	var at time.Duration
	l.SetReceiver(func(p *Packet) { at = s.Now() })
	l.Send(&Packet{Size: 3 * MTU})
	s.Run()
	// Three slots at 1 ms apart: delivery on the third.
	if at != 3*time.Millisecond {
		t.Fatalf("delivery at %v, want 3ms", at)
	}
}

func TestVarLinkSmallPacketOneOpportunity(t *testing.T) {
	s := simnet.New(1)
	src := NewPeriodicOpportunities(12)
	l := NewVarLink(s, src, LinkConfig{})
	delivered := 0
	var at time.Duration
	l.SetReceiver(func(p *Packet) { delivered++; at = s.Now() })
	l.Send(&Packet{Size: 40}) // an ACK
	s.Run()
	if delivered != 1 || at != time.Millisecond {
		t.Fatalf("delivered=%d at %v, want 1 at 1ms", delivered, at)
	}
}

func TestIfaceDuplexRouting(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "wifi", 10, 5*time.Millisecond)
	var gotUp, gotDown *Packet
	i.OnServerRecv(func(p *Packet) { gotUp = p })
	i.OnClientRecv(func(p *Packet) { gotDown = p })
	i.SendUp(100, &Segment{Flow: "req"})
	i.SendDown(200, &Segment{Flow: "resp"})
	s.Run()
	if gotUp == nil || gotUp.Seg.Flow != "req" || gotUp.Dir != Up || gotUp.Iface != "wifi" {
		t.Fatalf("server recv = %+v", gotUp)
	}
	if gotDown == nil || gotDown.Seg.Flow != "resp" || gotDown.Dir != Down {
		t.Fatalf("client recv = %+v", gotDown)
	}
}

func TestIfaceDownSignalsSubscribers(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "lte", 10, time.Millisecond)
	var events []bool
	i.SubscribeDown(func(_ any, d bool) { events = append(events, d) }, nil)
	i.SetDown(true)
	i.SetDown(true) // idempotent: no second event
	i.SetDown(false)
	if len(events) != 2 || events[0] != true || events[1] != false {
		t.Fatalf("events = %v, want [true false]", events)
	}
}

func TestIfaceBlackholeDoesNotSignal(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "lte", 10, time.Millisecond)
	signalled := false
	i.SubscribeDown(func(any, bool) { signalled = true }, nil)
	i.SetBlackhole(true)
	if signalled {
		t.Fatal("blackhole must be silent (paper Fig. 15g semantics)")
	}
	if !i.blackhole {
		t.Fatal("the interface should be blackholed")
	}
}

func TestIfaceTaps(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "wifi", 10, time.Millisecond)
	i.OnServerRecv(func(p *Packet) {})
	sent, recvd := 0, 0
	i.AddSendTap(func(p *Packet) { sent++ })
	i.AddRecvTap(func(p *Packet) { recvd++ })
	i.SendUp(100, nil)
	s.Run()
	if sent != 1 || recvd != 1 {
		t.Fatalf("taps saw sent=%d recvd=%d, want 1/1", sent, recvd)
	}
}

func TestHostAttachAndLookup(t *testing.T) {
	s := simnet.New(1)
	h := NewHost("client")
	h.Attach(testIface(s, "wifi", 10, time.Millisecond))
	h.Attach(testIface(s, "lte", 10, time.Millisecond))
	if h.Iface("wifi") == nil || h.Iface("lte") == nil {
		t.Fatal("interfaces not found")
	}
	names := h.IfaceNames()
	if len(names) != 2 || names[0] != "wifi" || names[1] != "lte" {
		t.Fatalf("names = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Attach should panic")
		}
	}()
	h.Attach(testIface(s, "wifi", 1, time.Millisecond))
}

// TestLossWithoutStreamPanics pins that loss draws come from the
// link's own stream: a loss probability above zero on a link built
// without LinkConfig.RNG panics, at construction or from a loss burst,
// instead of silently dropping nothing. Zero stays allowed.
func TestLossWithoutStreamPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "without LinkConfig.RNG") {
				t.Errorf("%s: recovered %v, want the missing-stream panic", name, r)
			}
		}()
		fn()
	}
	s := simnet.New(1)
	mustPanic("NewFixedLink", func() { NewFixedLink(s, 10, LinkConfig{LossProb: 0.1}) })
	mustPanic("NewVarLink", func() { NewVarLink(s, NewPeriodicOpportunities(10), LinkConfig{LossProb: 0.1}) })
	i := testIface(s, "lte", 10, time.Millisecond)
	i.SetLossProb(0)
	mustPanic("Iface.SetLossProb", func() { i.SetLossProb(0.2) })
}

// Property: a FixedLink never reorders packets.
func TestPropertyFixedLinkFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := simnet.New(11)
		l := NewFixedLink(s, 50, LinkConfig{QueueLimit: 1 << 20})
		var got []int
		l.SetReceiver(func(p *Packet) { got = append(got, int(p.Seg.Seq)) })
		n := 0
		for i, sz := range sizes {
			if sz == 0 {
				continue
			}
			l.Send(&Packet{Size: int(sz%2000) + 40, Seg: Segment{Seq: uint64(i)}})
			n++
		}
		s.Run()
		if len(got) != n {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — Sent == Delivered + drops after quiescence
// for a VarLink with losses.
func TestPropertyLinkConservation(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		s := simnet.New(seed)
		l := NewVarLink(s, NewPeriodicOpportunities(20), LinkConfig{
			QueueLimit: 8,
			LossProb:   0.2,
			RNG:        s.RNG("loss"),
		})
		delivered := 0
		l.SetReceiver(func(p *Packet) { delivered++ })
		offered := int(count) + 1
		for i := 0; i < offered; i++ {
			l.Send(&Packet{Size: 1200})
		}
		s.Run()
		st := l.Stats()
		return st.Delivered == delivered &&
			offered == st.Sent+st.DroppedLoss+st.DroppedQueue+st.DroppedDown &&
			st.Sent == st.Delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// testIface builds a symmetric duplex interface for tests.
func testIface(s *simnet.Sim, name string, mbps float64, prop time.Duration) *Iface {
	up := NewFixedLink(s, mbps, LinkConfig{PropDelay: prop})
	down := NewFixedLink(s, mbps, LinkConfig{PropDelay: prop})
	return NewIface(s, name, up, down)
}

func TestPromotionDelaysFirstUplinkPacket(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "lte", 10, 5*time.Millisecond)
	var arrivals []time.Duration
	i.OnServerRecv(func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	i.SetPromotion(260*time.Millisecond, 10*time.Second)
	i.SendUp(100, nil) // cold radio: pays 260 ms
	i.SendUp(100, nil) // queued behind the wake-up
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d, want 2", len(arrivals))
	}
	if arrivals[0] < 265*time.Millisecond {
		t.Fatalf("first packet at %v, want >= 265ms (promotion + path)", arrivals[0])
	}
	// A warm radio pays no promotion.
	warmStart := s.Now()
	i.SendUp(100, nil)
	s.Run()
	if d := arrivals[2] - warmStart; d > 10*time.Millisecond {
		t.Fatalf("warm send took %v, want ~5ms path delay only", d)
	}
}

func TestPromotionExpiresAfterIdle(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "lte", 10, time.Millisecond)
	var arrivals []time.Duration
	i.OnServerRecv(func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	i.SetPromotion(200*time.Millisecond, 2*time.Second)
	i.SendUp(100, nil)
	s.Run()
	first := arrivals[0]
	// Stay idle past the threshold: promotion is paid again.
	s.RunUntil(first + 3*time.Second)
	coldStart := s.Now()
	i.SendUp(100, nil)
	s.Run()
	if d := arrivals[1] - coldStart; d < 200*time.Millisecond {
		t.Fatalf("re-promotion not paid: %v", d)
	}
}

func TestPromotionKeepsFIFO(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "lte", 10, time.Millisecond)
	var order []int
	i.OnServerRecv(func(p *Packet) { order = append(order, int(p.Seg.Seq)) })
	i.SetPromotion(100*time.Millisecond, time.Second)
	for k := 0; k < 5; k++ {
		i.SendUp(100, &Segment{Seq: uint64(k)})
	}
	s.Run()
	for k := range order {
		if order[k] != k {
			t.Fatalf("promotion reordered packets: %v", order)
		}
	}
}

// --- elided-schedule FixedLink edge cases ------------------------------

// Rate changes apply to transmissions starting after the change: the
// in-service packet keeps its old schedule, queued packets are
// recomputed under the new rate.
func TestFixedLinkRateChangeMidService(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 1, LinkConfig{}) // 1500 B = 12 ms per packet
	var times []time.Duration
	l.SetReceiver(func(p *Packet) { times = append(times, s.Now()) })
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1500})
	}
	s.Schedule(6*time.Millisecond, func() { l.SetRateMbps(12) }) // mid-service of packet 1
	s.Run()
	// Packet 1 started under 1 Mbit/s and keeps it (done 12 ms); packets
	// 2 and 3 serialise at 12 Mbit/s (1 ms each) behind it.
	want := []time.Duration{12 * time.Millisecond, 13 * time.Millisecond, 14 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("delivered %d, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, times[i], want[i])
		}
	}
	if l.RateMbps() != 12 {
		t.Fatalf("RateMbps = %v, want 12", l.RateMbps())
	}
}

// A rate change while the link is idle affects the next admission only.
func TestFixedLinkRateChangeIdle(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 1, LinkConfig{})
	var at time.Duration
	l.SetReceiver(func(p *Packet) { at = s.Now() })
	l.SetRateMbps(12)
	l.Send(&Packet{Size: 1500})
	s.Run()
	if at != time.Millisecond {
		t.Fatalf("delivery at %v, want 1ms", at)
	}
}

// Link-down at exactly the head packet's serialisation-done instant:
// the packet is on the wire (lost at its arrival, not purged), while
// still-serialising packets purge immediately. Either way nothing is
// delivered and every loss is a down-drop.
func TestFixedLinkDownAtSerialisationDone(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 12, LinkConfig{PropDelay: 50 * time.Millisecond})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	l.Send(&Packet{Size: 1500}) // done at 1 ms, arrival due 51 ms
	l.Send(&Packet{Size: 1500}) // done at 2 ms: still serialising at 1 ms
	s.Schedule(time.Millisecond, func() { l.SetDown(true) })
	s.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d over a link that died at serialisation-done", delivered)
	}
	st := l.Stats()
	if st.DroppedDown != 2 {
		t.Fatalf("DroppedDown = %d, want 2", st.DroppedDown)
	}
	if st.Delivered != 0 || st.BytesOut != 0 {
		t.Fatalf("Delivered/BytesOut = %d/%d, want 0/0", st.Delivered, st.BytesOut)
	}
	// The link still works after recovery.
	l.SetDown(false)
	l.Send(&Packet{Size: 1500})
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after recovery, want 1", delivered)
	}
}

// Droptail occupancy counts waiting-or-serialising packets only:
// packets whose serialisation finished free their slot even while they
// are still propagating.
func TestFixedLinkOccupancyExcludesSerialised(t *testing.T) {
	s := simnet.New(1)
	// 12 Mbit/s: 1 ms serialisation; 1 s propagation keeps deliveries far out.
	l := NewFixedLink(s, 12, LinkConfig{PropDelay: time.Second, QueueLimit: 2})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	l.Send(&Packet{Size: 1500})
	l.Send(&Packet{Size: 1500})
	if got := l.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
	l.Send(&Packet{Size: 1500}) // over the limit: dropped
	if st := l.Stats(); st.DroppedQueue != 1 {
		t.Fatalf("DroppedQueue = %d, want 1", st.DroppedQueue)
	}
	s.RunUntil(5 * time.Millisecond) // both packets serialised, still in flight
	if got := l.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after serialisation = %d, want 0 (packets only propagate)", got)
	}
	l.Send(&Packet{Size: 1500}) // slot free again
	l.Send(&Packet{Size: 1500})
	if st := l.Stats(); st.DroppedQueue != 1 {
		t.Fatalf("late admissions dropped: DroppedQueue = %d, want 1", st.DroppedQueue)
	}
	s.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d, want 4", delivered)
	}
}

// A blackhole mid-flight swallows propagating packets silently, exactly
// like an administrative down (paper Fig. 15g: traffic vanishes).
func TestFixedLinkBlackholeKillsInFlight(t *testing.T) {
	s := simnet.New(1)
	l := NewFixedLink(s, 12, LinkConfig{PropDelay: 50 * time.Millisecond})
	delivered := 0
	l.SetReceiver(func(p *Packet) { delivered++ })
	l.Send(&Packet{Size: 1500})
	s.RunUntil(20 * time.Millisecond)
	l.SetBlackhole(true)
	s.Run()
	if delivered != 0 {
		t.Fatal("in-flight packet survived blackhole")
	}
	if st := l.Stats(); st.DroppedDown != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 down-drop and 0 delivered", st)
	}
}

// Property: FixedLink stats are conserved across down/up churn — every
// admitted packet is eventually delivered or counted in exactly one
// drop bucket, and the delivery callback count matches Delivered.
func TestPropertyFixedLinkConservation(t *testing.T) {
	f := func(seed int64, count, toggleMs uint8) bool {
		s := simnet.New(seed)
		l := NewFixedLink(s, 8, LinkConfig{
			PropDelay:  12 * time.Millisecond,
			QueueLimit: 6,
			LossProb:   0.1,
			RNG:        s.RNG("loss"),
		})
		delivered := 0
		l.SetReceiver(func(p *Packet) { delivered++ })
		offered := int(count)%40 + 1
		for i := 0; i < offered; i++ {
			at := time.Duration(i) * time.Millisecond
			s.Schedule(at, func() { l.Send(&Packet{Size: 1200}) })
		}
		down := time.Duration(int(toggleMs)%30+1) * time.Millisecond
		s.Schedule(down, func() { l.SetDown(true) })
		s.Schedule(down+7*time.Millisecond, func() { l.SetDown(false) })
		s.Run()
		st := l.Stats()
		// Every offered packet ends in exactly one bucket: delivered, or
		// one of the three drop counters (DroppedDown covers both
		// admit-while-down and lost-in-flight).
		return st.Delivered == delivered &&
			offered == st.Delivered+st.DroppedLoss+st.DroppedQueue+st.DroppedDown &&
			st.Sent >= st.Delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
