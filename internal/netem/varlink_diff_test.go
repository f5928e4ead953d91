package netem_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"multinet/internal/mahitrace"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
)

// refVarLink is the event-driven VarLink that netem.VarLink's elided
// schedule replaced, kept as the executable specification of the
// delivery-opportunity model: one kernel event per opportunity while
// the queue is non-empty, each carrying up to MTU bytes of the head
// packet, and a second event per packet for its propagation delay. It
// asks its source one question per fired opportunity, in time order.
type refVarLink struct {
	sim       *simnet.Sim
	cfg       netem.LinkConfig
	src       netem.OpportunitySource
	recv      func(*netem.Packet)
	queue     []*netem.Packet
	down      bool
	blackhole bool
	stats     netem.LinkStats
	wake      simnet.Timer
	headBytes int // bytes of the head packet already transmitted
}

func (l *refVarLink) limit() int {
	if l.cfg.QueueLimit <= 0 {
		return netem.DefaultQueueLimit
	}
	return l.cfg.QueueLimit
}

func (l *refVarLink) Send(p *netem.Packet) {
	switch {
	case l.down || l.blackhole:
		l.stats.DroppedDown++
	case l.cfg.LossProb > 0 && l.cfg.RNG != nil && l.cfg.RNG.Float64() < l.cfg.LossProb:
		l.stats.DroppedLoss++
	case len(l.queue) >= l.limit():
		l.stats.DroppedQueue++
	default:
		p.SendTime = l.sim.Now()
		l.queue = append(l.queue, p)
		l.stats.Sent++
		l.stats.BytesIn += int64(p.Size)
		l.arm()
		return
	}
	netem.ReleasePacket(p)
}

func (l *refVarLink) arm() {
	if l.wake.Active() || len(l.queue) == 0 || l.down || l.blackhole {
		return
	}
	l.wake = l.sim.Schedule(l.src.Next(l.sim.Now()), l.opportunity)
}

// opportunity consumes one delivery slot.
func (l *refVarLink) opportunity() {
	if len(l.queue) == 0 || l.down || l.blackhole {
		return
	}
	p := l.queue[0]
	l.headBytes += netem.MTU
	if l.headBytes >= p.Size {
		l.queue = l.queue[1:]
		l.headBytes = 0
		l.sim.Schedule(l.sim.Now()+l.cfg.PropDelay, func() { l.finish(p) })
	}
	l.arm()
}

// finish runs when a packet's propagation delay elapses.
func (l *refVarLink) finish(p *netem.Packet) {
	if l.down || l.blackhole {
		// The packet was on the wire when the link died: it is lost.
		l.stats.DroppedDown++
		l.stats.LostInFlight++
		netem.ReleasePacket(p)
		return
	}
	l.stats.Delivered++
	l.stats.BytesOut += int64(p.Size)
	l.recv(p)
}

func (l *refVarLink) purge() {
	l.stats.DroppedDown += len(l.queue)
	l.stats.LostInFlight += len(l.queue)
	for _, p := range l.queue {
		netem.ReleasePacket(p)
	}
	l.queue = nil
	l.headBytes = 0
	l.wake.Stop()
}

func (l *refVarLink) SetDown(down bool) {
	l.down = down
	if down {
		l.purge()
	}
}

func (l *refVarLink) SetBlackhole(bh bool) {
	l.blackhole = bh
	if bh {
		l.purge()
	}
}

func (l *refVarLink) SetReceiver(fn func(*netem.Packet)) { l.recv = fn }
func (l *refVarLink) SetLossProb(p float64)              { l.cfg.LossProb = p }
func (l *refVarLink) Stats() netem.LinkStats             { return l.stats }
func (l *refVarLink) QueueLen() int                      { return len(l.queue) }

// arrival is one packet reaching the far end.
type arrival struct {
	at, sent time.Duration
	id, size int
}

// diffWorld is one link under test with its own kernel and arrival log.
type diffWorld struct {
	sim  *simnet.Sim
	link netem.Link
	log  []arrival
}

func (w *diffWorld) attach(l netem.Link) {
	w.link = l
	l.SetReceiver(func(p *netem.Packet) {
		w.log = append(w.log, arrival{w.sim.Now(), p.SendTime, int(p.Seg.Seq), p.Size})
		netem.ReleasePacket(p)
	})
}

func (w *diffWorld) send(id, size int) {
	p := netem.NewPacket(w.sim)
	p.Size, p.Seg.Seq = size, uint64(id)
	w.link.Send(p)
}

// sources are the three OpportunitySource implementations; each call
// builds a fresh, identically seeded instance on the given kernel.
var sources = []struct {
	name string
	mk   func(*simnet.Sim) netem.OpportunitySource
}{
	// 12 Mbit/s is one slot per millisecond exactly, and the driver below
	// steps time in 250 µs quanta: admissions and state changes land on
	// departure and arrival instants all the time.
	{"periodic", func(*simnet.Sim) netem.OpportunitySource { return netem.NewPeriodicOpportunities(12) }},
	{"ar", func(s *simnet.Sim) netem.OpportunitySource { return phy.NewARRateSource(s, "rate", 9, 0.6) }},
	{"trace", func(*simnet.Sim) netem.OpportunitySource {
		tr, err := mahitrace.Parse(strings.NewReader("0\n1\n1\n1\n4\n9\n9\n12\n30\n31\n"))
		if err != nil {
			panic(err)
		}
		return tr.Source()
	}},
}

// TestVarLinkMatchesEventDrivenReference drives netem.VarLink and the
// event-driven reference through the same seeded operation sequences —
// sends of every size class (0, below, at and above MTU, the 1520-byte
// MPTCP segment that takes two opportunities, 3×MTU), bursts past the
// droptail limit, random loss switched on and off, down/up and
// blackhole with packets queued and in flight — over all three source
// kinds, and requires identical arrivals (instant, order, SendTime),
// identical queue lengths after every step, and identical Stats() at
// quiescence, drop counts per cause included.
//
// Operations are applied between RunUntil calls, after every event of
// their instant has fired. That fixes the one ordering the elided link
// does not reproduce by construction: a Send the kernel happened to
// order *before* a same-instant opportunity saw the departing packet
// still queued, a Send ordered after it did not; the elided link always
// answers as the second (FixedLink's rule).
func TestVarLinkMatchesEventDrivenReference(t *testing.T) {
	sizes := []int{0, 40, 700, netem.MTU - 1, netem.MTU, netem.MTU + 20, 3 * netem.MTU}
	for _, src := range sources {
		var seen netem.LinkStats // outcomes over this source's sequences
		for seed := int64(1); seed <= 25; seed++ {
			name := fmt.Sprintf("%s/seed%d", src.name, seed)
			cfg := func(s *simnet.Sim) netem.LinkConfig {
				return netem.LinkConfig{
					PropDelay:  time.Duration(seed%4) * 2750 * time.Microsecond,
					QueueLimit: 6 + int(seed%3)*20,
					LossProb:   float64(seed%2) * 0.05,
					RNG:        s.RNG("loss"),
				}
			}
			var ref, got diffWorld
			ref.sim, got.sim = simnet.New(seed), simnet.New(seed)
			ref.attach(&refVarLink{sim: ref.sim, cfg: cfg(ref.sim), src: src.mk(ref.sim)})
			got.attach(netem.NewVarLink(got.sim, src.mk(got.sim), cfg(got.sim)))
			worlds := []*diffWorld{&ref, &got}

			rng := rand.New(rand.NewSource(seed * 977))
			var now time.Duration
			id := 0
			for step := 0; step < 600; step++ {
				switch rng.Intn(6) {
				case 0: // same instant
				case 1, 2, 3:
					now += time.Duration(1+rng.Intn(12)) * 250 * time.Microsecond
				case 4:
					now += time.Duration(rng.Intn(900)) * 1013 * time.Nanosecond
				default:
					now += time.Duration(rng.Intn(400)) * time.Millisecond // drains, idle epochs
				}
				op, n, size := rng.Intn(24), 1, sizes[rng.Intn(len(sizes))]
				if op >= 14 && op < 17 {
					n = 5 + rng.Intn(60) // burst, often past the droptail limit
				}
				loss := float64(rng.Intn(3)) * 0.1
				for _, w := range worlds {
					w.sim.RunUntil(now)
					switch {
					case op < 17:
						for i := 0; i < n; i++ {
							w.send(id+i, size)
						}
					case op == 17:
						w.link.SetDown(true)
					case op < 20:
						w.link.SetDown(false)
					case op == 20:
						w.link.SetBlackhole(true)
					case op < 23:
						w.link.SetBlackhole(false)
					default:
						w.link.SetLossProb(loss)
					}
				}
				id += n
				if r, g := ref.link.QueueLen(), got.link.QueueLen(); r != g {
					t.Fatalf("%s step %d at %v: QueueLen = %d, reference %d", name, step, now, g, r)
				}
			}
			for _, w := range worlds {
				w.sim.Run()
			}
			if len(got.log) != len(ref.log) {
				t.Fatalf("%s: %d arrivals, reference %d", name, len(got.log), len(ref.log))
			}
			for i := range ref.log {
				if got.log[i] != ref.log[i] {
					t.Fatalf("%s: arrival %d = %+v, reference %+v", name, i, got.log[i], ref.log[i])
				}
			}
			if r, g := ref.link.Stats(), got.link.Stats(); r != g {
				t.Fatalf("%s: Stats = %+v, reference %+v", name, g, r)
			}
			st := ref.link.Stats()
			seen.Delivered += st.Delivered
			seen.DroppedQueue += st.DroppedQueue
			seen.DroppedLoss += st.DroppedLoss
			seen.DroppedDown += st.DroppedDown - st.LostInFlight
			seen.LostInFlight += st.LostInFlight
		}
		// The sequences must reach every outcome, or agreement means little.
		if seen.Delivered < 5000 || seen.DroppedQueue < 500 || seen.DroppedLoss < 100 ||
			seen.DroppedDown < 500 || seen.LostInFlight < 100 {
			t.Fatalf("%s: sequences exercise too little: %+v", src.name, seen)
		}
	}
}

// TestOpportunitySourcesArePure checks the OpportunitySource contract
// VarLink's look-ahead relies on: asked in a scrambled order — look-
// ahead first, then earlier instants, as after a purge — every source
// answers each question as a twin asked in time order does, and answers
// it again the same way.
func TestOpportunitySourcesArePure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	asks := []time.Duration{0, 1, time.Millisecond, 100*time.Millisecond - 1, 100 * time.Millisecond, 90 * time.Second}
	for i := 0; i < 3000; i++ {
		asks = append(asks, time.Duration(rng.Int63n(int64(90*time.Second))))
	}
	sorted := append([]time.Duration(nil), asks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, src := range sources {
		inOrder := src.mk(simnet.New(3))
		want := map[time.Duration]time.Duration{}
		for _, at := range sorted {
			want[at] = inOrder.Next(at)
			if want[at] <= at {
				t.Fatalf("%s: Next(%v) = %v is not after it", src.name, at, want[at])
			}
		}
		scrambled := src.mk(simnet.New(3))
		for round := 0; round < 2; round++ {
			for i, at := range asks {
				if got := scrambled.Next(at); got != want[at] {
					t.Fatalf("%s round %d ask %d: Next(%v) = %v, in time order %v", src.name, round, i, at, got, want[at])
				}
			}
		}
	}
}
