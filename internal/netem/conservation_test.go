package netem

import (
	"math/rand"
	"testing"
	"time"

	"multinet/internal/simnet"
)

// consRig drives one link with a randomized interleaving of packet
// sends and fault edges, then asserts the conservation identity at
// quiescence: every admitted packet was delivered or died in flight.
type consRig struct {
	sim       *simnet.Sim
	l         Link
	delivered int
}

type consOp struct {
	rig  *consRig
	kind int // 0 send, 1 down, 2 up, 3 blackhole on, 4 blackhole off
	size int
}

func runConsOp(a any) {
	op := a.(*consOp)
	switch op.kind {
	case 0:
		p := NewPacket(op.rig.sim)
		p.Size = op.size
		op.rig.l.Send(p)
	case 1:
		op.rig.l.SetDown(true)
	case 2:
		op.rig.l.SetDown(false)
	case 3:
		op.rig.l.SetBlackhole(true)
	case 4:
		op.rig.l.SetBlackhole(false)
	}
}

func checkConservation(t *testing.T, name string, seed int64, l Link, sim *simnet.Sim, rng *rand.Rand) {
	t.Helper()
	rig := &consRig{sim: sim, l: l}
	l.SetReceiver(func(p *Packet) {
		rig.delivered++
		ReleasePacket(p)
	})
	ops := 50 + rng.Intn(200)
	for i := 0; i < ops; i++ {
		at := time.Duration(rng.Int63n(int64(2 * time.Second)))
		kind := 0
		if rng.Intn(4) == 0 { // 25% fault edges, 75% traffic
			kind = 1 + rng.Intn(4)
		}
		sim.ScheduleArg(at, runConsOp, &consOp{rig: rig, kind: kind, size: 200 + rng.Intn(1300)})
	}
	// Always restore the link at the end so queued packets can drain —
	// packets still queued at restore must be counted, not lost.
	sim.ScheduleArg(2*time.Second, runConsOp, &consOp{rig: rig, kind: 2})
	sim.ScheduleArg(2*time.Second, runConsOp, &consOp{rig: rig, kind: 4})
	sim.Run()

	st := l.Stats()
	if st.Sent != st.Delivered+st.LostInFlight {
		t.Errorf("%s seed %d: conservation broken: sent=%d delivered=%d lost-in-flight=%d",
			name, seed, st.Sent, st.Delivered, st.LostInFlight)
	}
	if st.LostInFlight > st.DroppedDown {
		t.Errorf("%s seed %d: lost-in-flight %d exceeds down drops %d",
			name, seed, st.LostInFlight, st.DroppedDown)
	}
	if st.Delivered != rig.delivered {
		t.Errorf("%s seed %d: stats delivered %d but receiver saw %d",
			name, seed, st.Delivered, rig.delivered)
	}
}

// TestLinkConservationUnderFaults is the property test behind the
// faults invariant checker: random down/up and blackhole edges
// interleaved with traffic never break Sent == Delivered + LostInFlight
// on either link model.
func TestLinkConservationUnderFaults(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		sim := simnet.New(seed)
		rng := rand.New(rand.NewSource(seed))
		l := NewFixedLink(sim, 2+6*rng.Float64(), LinkConfig{
			PropDelay:  time.Duration(rng.Intn(40)) * time.Millisecond,
			QueueLimit: 5 + rng.Intn(50),
		})
		checkConservation(t, "fixed", seed, l, sim, rng)

		sim2 := simnet.New(seed)
		rng2 := rand.New(rand.NewSource(seed + 1000))
		v := NewVarLink(sim2, NewPeriodicOpportunities(4), LinkConfig{
			PropDelay:  time.Duration(rng2.Intn(40)) * time.Millisecond,
			QueueLimit: 5 + rng2.Intn(50),
		})
		checkConservation(t, "var", seed, v, sim2, rng2)
	}
}

// TestIfaceFlapConservation pins the duplex case the chaos schedules
// exercise: an interface flap train (admin down/up cycles) with traffic
// in flight loses only in-flight packets and accounts for each one.
func TestIfaceFlapConservation(t *testing.T) {
	sim := simnet.New(7)
	up := NewFixedLink(sim, 8, LinkConfig{PropDelay: 20 * time.Millisecond})
	down := NewFixedLink(sim, 8, LinkConfig{PropDelay: 20 * time.Millisecond})
	ifc := NewIface(sim, "wifi", up, down)
	got := 0
	ifc.OnServerRecv(func(p *Packet) { got++; ReleasePacket(p) })
	ifc.OnClientRecv(func(p *Packet) { ReleasePacket(p) })

	rig := &flapRig{ifc: ifc, sim: sim, sends: 400}
	sim.ScheduleArg(0, flapStep, rig)
	for i := 0; i < 6; i++ {
		at := time.Duration(100+i*150) * time.Millisecond
		sim.ScheduleArg(at, flapToggle, &flapEdge{ifc: ifc, down: i%2 == 0})
	}
	sim.Run()

	for _, l := range []Link{up, down} {
		st := l.Stats()
		if st.Sent != st.Delivered+st.LostInFlight {
			t.Fatalf("flap conservation broken: %+v", st)
		}
	}
	if st := up.Stats(); st.LostInFlight == 0 {
		t.Fatal("flap train with traffic in flight lost nothing — test is not exercising the property")
	}
	if got != up.Stats().Delivered {
		t.Fatalf("receiver saw %d, stats say %d", got, up.Stats().Delivered)
	}
}

type flapRig struct {
	ifc   *Iface
	sim   *simnet.Sim
	sends int
}

func flapStep(a any) {
	r := a.(*flapRig)
	if r.sends == 0 {
		return
	}
	r.sends--
	r.ifc.SendUp(1200, nil)
	r.sim.ScheduleArg(r.sim.Now()+2*time.Millisecond, flapStep, r)
}

type flapEdge struct {
	ifc  *Iface
	down bool
}

func flapToggle(a any) {
	e := a.(*flapEdge)
	e.ifc.SetDown(e.down)
}
