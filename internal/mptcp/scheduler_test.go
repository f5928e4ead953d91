package mptcp

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	for _, want := range []string{SchedMinSRTT, SchedRoundRobin, SchedRedundant, SchedHoLAware} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in scheduler %q not registered (have %v)", want, names)
		}
		if got := NewScheduler(want).Name(); got != want {
			t.Errorf("NewScheduler(%q).Name() = %q", want, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewScheduler on an unknown name should panic")
		}
	}()
	NewScheduler("no-such-scheduler")
}

// TestSplitReinjectionAck is the regression test for the stranded-
// mapping bug: pull splits an oversized reinjected mapping to the
// puller's window, so after a subflow re-pulls part of a range it
// already has outstanding, the ack for the split piece must also trim
// the overlapping original record. Exact (dataSeq, len) matching left
// the original stranded forever, to be spuriously reinjected on every
// later stall.
func TestSplitReinjectionAck(t *testing.T) {
	c := &Conn{sim: simnet.New(1), cfg: Config{ConnID: "t"}, sched: NewScheduler(SchedMinSRTT), dss: new(simnet.FreeList[DSS])}
	sf := &Subflow{conn: c, established: true}
	c.subflows = []*Subflow{sf}

	// The subflow sent the full 3000-byte mapping once (segment lost),
	// RTO'd, and reinjected it into the shared pool.
	c.sendTotal, c.dataNxt = 3000, 3000
	sf.outstanding = mapqOf(mapping{dataSeq: 0, len: 3000})
	c.rtxPool = mapqOf(mapping{dataSeq: 0, len: 3000})

	// Post-RTO the window is small: the same subflow re-pulls the
	// reinjection split to 1000 bytes.
	n, opt, ok := c.pull(sf, 1000)
	if !ok || n != 1000 {
		t.Fatalf("split pull = (%d, %v), want (1000, true)", n, ok)
	}
	dss := opt.(*DSS)
	if dss.DataSeq != 0 || dss.Len != 1000 {
		t.Fatalf("split mapping = {%d, %d}, want {0, 1000}", dss.DataSeq, dss.Len)
	}
	if want := []mapping{{0, 3000}, {0, 1000}}; !reflect.DeepEqual(sf.outstanding.slice(), want) {
		t.Fatalf("outstanding after split pull = %v, want %v", sf.outstanding.slice(), want)
	}

	// The split piece is acked: BOTH records covering [0, 1000) must
	// shrink — the stale original is trimmed to its unacked remainder.
	sf.dead = true // keep wake from touching the TCP-less test subflow
	c.onMappingAcked(sf, &DSS{DataSeq: 0, Len: 1000})
	if want := []mapping{{1000, 2000}}; !reflect.DeepEqual(sf.outstanding.slice(), want) {
		t.Fatalf("outstanding after split ack = %v, want %v (original must be trimmed)",
			sf.outstanding.slice(), want)
	}

	// Acking the remainder clears the subflow completely.
	c.onMappingAcked(sf, &DSS{DataSeq: 1000, Len: 2000})
	if sf.outstanding.len() != 0 {
		t.Fatalf("outstanding after full ack = %v, want empty", sf.outstanding.slice())
	}
}

func TestOnMappingAckedPartialOverlap(t *testing.T) {
	c := &Conn{sim: simnet.New(1), cfg: Config{ConnID: "t"}, sched: NewScheduler(SchedMinSRTT)}
	sf := &Subflow{conn: c} // not established: wake skips it
	c.subflows = []*Subflow{sf}
	sf.outstanding = mapqOf(mapping{0, 100}, mapping{100, 300}, mapping{500, 100})
	// Ack covers the tail of the first record, the head of the second,
	// and misses the third entirely.
	c.onMappingAcked(sf, &DSS{DataSeq: 50, Len: 150})
	want := []mapping{{0, 50}, {200, 200}, {500, 100}}
	if !reflect.DeepEqual(sf.outstanding.slice(), want) {
		t.Fatalf("outstanding = %v, want %v", sf.outstanding.slice(), want)
	}
	// A mid-record ack splits it in two.
	c.onMappingAcked(sf, &DSS{DataSeq: 250, Len: 50})
	want = []mapping{{0, 50}, {200, 50}, {300, 100}, {500, 100}}
	if !reflect.DeepEqual(sf.outstanding.slice(), want) {
		t.Fatalf("outstanding after mid-record ack = %v, want %v", sf.outstanding.slice(), want)
	}
}

// skipFastest is a test scheduler whose fresh-data admission is
// per-subflow: it refuses the wifi subflow entirely, so data can only
// flow over lte. With the old first-refusal `break` in Conn.wake the
// lte subflow was never notified and the transfer stalled.
type skipFastest struct{}

func (*skipFastest) Name() string                            { return "test-skip-wifi" }
func (*skipFastest) Rank(c *Conn, sfs []*Subflow) []*Subflow { return rankBySRTT(sfs) }
func (*skipFastest) Admit(c *Conn, sf *Subflow) bool         { return sf.Iface.Name != "wifi" }

func init() { RegisterScheduler("test-skip-wifi", func() Scheduler { return &skipFastest{} }) }

func TestWakeContinuesPastRefusedSubflow(t *testing.T) {
	// wifi is the faster path and ranks first; the scheduler refuses
	// it. wake must continue to the slower lte subflow instead of
	// breaking out of the offering loop.
	r := newRig(21, symmetric(10, 10*time.Millisecond), symmetric(5, 40*time.Millisecond),
		ServerConfig{Scheduler: "test-skip-wifi"})
	dataOnWifi := 0
	r.wifi.AddSendTap(func(p *netem.Packet) {
		if seg, ok := p.Payload.(*tcp.Segment); ok && seg.PayloadLen > 0 {
			dataOnWifi++
		}
	})
	d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi", Scheduler: "test-skip-wifi"}, 200_000)
	if !ok {
		t.Fatal("download stalled: wake did not offer data past the refused fastest subflow")
	}
	if dataOnWifi != 0 {
		t.Fatalf("refused subflow carried %d data segments, want 0", dataOnWifi)
	}
	if d <= 0 {
		t.Fatal("bad completion time")
	}
}

func TestBackupSchedulerMatrix(t *testing.T) {
	// Paper Fig. 15g semantics must hold under EVERY registered
	// scheduler: a silently blackholed regular subflow does not
	// activate backup subflows.
	for _, sched := range SchedulerNames() {
		sched := sched
		t.Run(sched+"/blackhole", func(t *testing.T) {
			r := newRig(22, symmetric(8, 15*time.Millisecond), symmetric(8, 25*time.Millisecond),
				ServerConfig{Mode: Backup, Scheduler: sched})
			dataOnBackup := 0
			r.lte.AddSendTap(func(p *netem.Packet) {
				if seg, ok := p.Payload.(*tcp.Segment); ok && seg.PayloadLen > 0 {
					dataOnBackup++
				}
			})
			var done time.Duration
			r.srv.OnConn = func(c *Conn) { c.Send(1 << 20); c.Close() }
			Dial(r.sim, r.client, r.host, Config{
				ConnID: "mp1", Primary: "wifi", Mode: Backup,
				BackupIfaces: []string{"lte"}, Scheduler: sched,
			}, Callbacks{
				OnData: func(c *Conn, total int64) {
					if total >= 1<<20 && done == 0 {
						done = r.sim.Now()
					}
				},
			})
			r.sim.After(300*time.Millisecond, func() { r.wifi.SetBlackhole(true) })
			r.sim.RunUntil(15 * time.Second)
			if done != 0 {
				t.Errorf("%s: transfer completed during blackhole — backup must stay idle", sched)
			}
			if dataOnBackup != 0 {
				t.Errorf("%s: backup carried %d data segments during blackhole, want 0", sched, dataOnBackup)
			}
		})
	}

	t.Run("redundant/healthy", func(t *testing.T) {
		// Redundant duplicates onto eligible subflows — in Backup mode
		// that set must never include a backup subflow while a regular
		// one is alive.
		r := newRig(23, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
			ServerConfig{Mode: Backup, Scheduler: SchedRedundant})
		dataOnBackup := 0
		r.lte.AddSendTap(func(p *netem.Packet) {
			if seg, ok := p.Payload.(*tcp.Segment); ok && seg.PayloadLen > 0 {
				dataOnBackup++
			}
		})
		cfg := Config{ConnID: "mp1", Primary: "wifi", Mode: Backup,
			BackupIfaces: []string{"lte"}, Scheduler: SchedRedundant}
		if _, ok := r.download(cfg, 1<<20); !ok {
			t.Fatal("no completion")
		}
		if dataOnBackup != 0 {
			t.Fatalf("Redundant mapped %d data segments onto the backup subflow, want 0", dataOnBackup)
		}
	})
}

func TestRedundantDuplicatesMappings(t *testing.T) {
	// Full-MPTCP mode: every fresh mapping is duplicated on the other
	// subflow, so both paths carry the payload and the total
	// transmitted payload is roughly twice the flow size.
	const size = 200_000
	r := newRig(24, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
		ServerConfig{Scheduler: SchedRedundant})
	payload := map[string]int{}
	for _, ifc := range []*netem.Iface{r.wifi, r.lte} {
		name := ifc.Name
		ifc.AddSendTap(func(p *netem.Packet) {
			if seg, ok := p.Payload.(*tcp.Segment); ok {
				payload[name] += seg.PayloadLen
			}
		})
	}
	if _, ok := r.download(Config{ConnID: "mp1", Primary: "wifi", Scheduler: SchedRedundant}, size); !ok {
		t.Fatal("no completion")
	}
	if payload["wifi"] == 0 || payload["lte"] == 0 {
		t.Fatalf("both subflows must carry payload, got %v", payload)
	}
	// Duplicates already data-acked are pruned rather than sent, so the
	// duplication factor sits below 2x but well above single-copy.
	if total := payload["wifi"] + payload["lte"]; total < size*5/4 {
		t.Fatalf("total payload %d should show duplication (> 1.25x of %d)", total, size)
	}
}

func TestHoLAwareSkipsSlowPathOnShortFlow(t *testing.T) {
	// Very disparate paths, short flow: the fast subflow covers the
	// whole backlog within one slow-path RTT, so the HoL-aware
	// scheduler must keep every fresh byte off the slow path (mapping
	// there could only stall connection-level reassembly).
	const size = 30_000
	run := func(sched string) (time.Duration, int) {
		r := newRig(25, symmetric(20, 10*time.Millisecond), symmetric(1, 200*time.Millisecond),
			ServerConfig{Scheduler: sched})
		dataOnSlow := 0
		r.lte.AddSendTap(func(p *netem.Packet) {
			if seg, ok := p.Payload.(*tcp.Segment); ok && seg.PayloadLen > 0 {
				dataOnSlow++
			}
		})
		d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi", Scheduler: sched}, size)
		if !ok {
			t.Fatalf("%s: no completion", sched)
		}
		return d, dataOnSlow
	}
	holD, holSlow := run(SchedHoLAware)
	if holSlow != 0 {
		t.Errorf("holaware put %d data segments on the slow path, want 0", holSlow)
	}
	minD, _ := run(SchedMinSRTT)
	// Skipping the slow path must not make the short flow slower.
	if holD > minD*11/10 {
		t.Errorf("holaware FCT %v should not exceed min-SRTT FCT %v by >10%%", holD, minD)
	}
}

// Property: exact reliable delivery for every registered scheduler
// under loss — scheduling policy must never break reassembly.
func TestPropertySchedulersDeliverExactly(t *testing.T) {
	for _, sched := range SchedulerNames() {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			f := func(seed int64, sizeRaw uint32) bool {
				size := int(sizeRaw%400_000) + 1
				r := newRig(seed, pathSpec{9, 15 * time.Millisecond, 0.02},
					pathSpec{7, 30 * time.Millisecond, 0.02}, ServerConfig{Scheduler: sched})
				var got int64
				r.srv.OnConn = func(c *Conn) { c.Send(size); c.Close() }
				Dial(r.sim, r.client, r.host, Config{ConnID: "p", Primary: "wifi", Scheduler: sched},
					Callbacks{OnData: func(c *Conn, total int64) { got = total }})
				r.sim.Run()
				return got == int64(size)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRankLeavesSpareCapacityAlone: Rank is handed the connection's
// scratch slice, which may have room beyond its length. Whatever a
// scheduler returns must be a permutation of what it was given and must
// neither write into that room nor be made of it — a rotation by append
// used to do both.
func TestRankLeavesSpareCapacityAlone(t *testing.T) {
	for _, name := range SchedulerNames() {
		r := newRig(34, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
		c := Dial(r.sim, r.client, r.host, Config{ConnID: "rank", Primary: "wifi", Scheduler: name}, Callbacks{})
		r.sim.RunUntil(time.Second)
		if len(c.subflows) != 2 {
			t.Fatalf("%s: %d subflows after a second, want 2", name, len(c.subflows))
		}
		guard := &Subflow{}
		for round := 0; round < 5; round++ {
			buf := []*Subflow{c.subflows[0], c.subflows[1], guard, guard, guard}
			out := c.sched.Rank(c, buf[:2])
			if len(out) != 2 || out[0] == out[1] || (out[0] != buf[0] && out[0] != buf[1]) || (out[1] != buf[0] && out[1] != buf[1]) {
				t.Fatalf("%s round %d: Rank returned %v, not a permutation of its argument", name, round, out)
			}
			for i, sf := range buf[2:] {
				if sf != guard {
					t.Errorf("%s round %d: Rank wrote into spare slot %d of its argument", name, round, i)
				}
			}
			if &out[0] == &buf[1] || &out[len(out)-1] == &buf[2] {
				t.Errorf("%s round %d: Rank's result reaches into its argument's spare capacity", name, round)
			}
		}
	}
}
