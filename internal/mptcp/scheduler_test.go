package mptcp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// TestSchedulerSetClosed: every listed name builds its own scheduler, the
// empty name the Linux default, and any other name panics.
func TestSchedulerSetClosed(t *testing.T) {
	want := map[string]Scheduler{
		"":              &minSRTT{},
		SchedMinSRTT:    &minSRTT{},
		SchedRoundRobin: &roundRobin{},
		SchedRedundant:  &redundant{},
		SchedHoLAware:   &holAware{},
	}
	if got := Schedulers(); len(got) != len(want)-1 {
		t.Fatalf("Schedulers() = %v, want the %d names", got, len(want)-1)
	}
	for _, name := range Schedulers() {
		if _, ok := want[name]; !ok {
			t.Errorf("Schedulers() lists %q, which builds nothing", name)
		}
	}
	for name, w := range want {
		if got := newScheduler(name); reflect.TypeOf(got) != reflect.TypeOf(w) {
			t.Errorf("newScheduler(%q) = %T, want %T", name, got, w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("newScheduler on an unknown name should panic")
		}
	}()
	newScheduler("no-such-scheduler")
}

// TestUnknownSchedulerFailsAtConfig: a misspelt scheduler name panics
// where it is configured — NewServer, SetConfig or Dial — naming the
// valid ones, not at the first accepted SYN deep inside the run.
func TestUnknownSchedulerFailsAtConfig(t *testing.T) {
	mustPanic := func(where string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "minsrtt") || !strings.Contains(msg, SchedHoLAware) {
				t.Errorf("%s: panic %q, want one naming the valid schedulers", where, msg)
			}
		}()
		f()
	}
	r := newRig(35, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	mustPanic("NewServer", func() {
		NewServer(r.sim, tcp.NewStack(r.sim, tcp.ServerSide), ServerConfig{Scheduler: "minsrt"})
	})
	mustPanic("SetConfig", func() { r.srv.SetConfig(ServerConfig{Scheduler: "holware"}) })
	mustPanic("Dial", func() {
		Dial(r.sim, r.client, r.host, Config{ConnID: "typo", Primary: "wifi", Scheduler: "redundnat"}, Callbacks{})
	})
}

// TestSplitReinjectionAck: pull splits an oversized reinjected mapping
// to the puller's window and leaves the remainder at the head of the
// pool, so the rest of the range is offered on the next pull.
func TestSplitReinjectionAck(t *testing.T) {
	c := &Conn{sim: simnet.New(1), cfg: Config{ConnID: "t"}, sched: &minSRTT{}}
	sf := &Subflow{conn: c, established: true}
	c.subflows = []*Subflow{sf}

	// The subflow sent the full 3000-byte mapping once (segment lost),
	// RTO'd, and reinjected it into the shared pool.
	c.sendTotal, c.dataNxt = 3000, 3000
	c.rtxPool = mapqOf(mapping{dataSeq: 0, len: 3000})

	// Post-RTO the window is small: the same subflow re-pulls the
	// reinjection split to 1000 bytes.
	n, dss, ok := c.pull(sf, 1000)
	if !ok || n != 1000 || dss.DataSeq != 0 {
		t.Fatalf("split pull = (%d, %+v, %v), want (1000, DataSeq 0, true)", n, dss, ok)
	}
	if want := []mapping{{1000, 2000}}; !reflect.DeepEqual(c.rtxPool.slice(), want) {
		t.Fatalf("pool after split pull = %v, want %v", c.rtxPool.slice(), want)
	}
	n, dss, ok = c.pull(sf, 1460)
	if !ok || n != 1460 || dss.DataSeq != 1000 {
		t.Fatalf("second pull = (%d, %+v, %v), want (1460, DataSeq 1000, true)", n, dss, ok)
	}
	if want := []mapping{{2460, 540}}; !reflect.DeepEqual(c.rtxPool.slice(), want) {
		t.Fatalf("pool after second pull = %v, want %v", c.rtxPool.slice(), want)
	}
}

// skipFastest is a test scheduler whose fresh-data admission is
// per-subflow: it refuses the wifi subflow entirely, so data can only
// flow over lte. With the old first-refusal `break` in Conn.wake the
// lte subflow was never notified and the transfer stalled. It is not
// one of Schedulers: tests set it on both ends' Conns directly.
type skipFastest struct{}

func (*skipFastest) Rank(c *Conn, sfs []*Subflow) []*Subflow { return rankBySRTT(sfs) }
func (*skipFastest) Admit(c *Conn, sf *Subflow) bool         { return sf.Iface.Name != "wifi" }

// skipFastestCase labels skipFastest among the cases of the
// per-scheduler properties, which run it after every name in Schedulers
// as the adversary: a policy that refuses the path the others prefer.
const skipFastestCase = "test-skip-wifi"

func schedulerCases() []string {
	all := Schedulers()
	return append(all[:], skipFastestCase)
}

// caseConfig is a case's Config.Scheduler: skipFastest's Conns start on
// the default and injectCase re-points them.
func caseConfig(name string) string {
	if name == skipFastestCase {
		return ""
	}
	return name
}

// injectCase gives c skipFastest in its case; it is a no-op for the
// named schedulers, which arrive through the configs.
func injectCase(name string, c *Conn) {
	if name == skipFastestCase {
		c.sched = &skipFastest{}
	}
}

func TestWakeContinuesPastRefusedSubflow(t *testing.T) {
	// wifi is the faster path and ranks first; the scheduler refuses
	// it. wake must continue to the slower lte subflow instead of
	// breaking out of the offering loop.
	const size = 200_000
	r := newRig(21, symmetric(10, 10*time.Millisecond), symmetric(5, 40*time.Millisecond), ServerConfig{})
	dataOnWifi := 0
	r.wifi.AddSendTap(func(p *netem.Packet) {
		if p.Seg.PayloadLen > 0 {
			dataOnWifi++
		}
	})
	r.srv.OnConn = func(c *Conn) {
		c.sched = &skipFastest{}
		c.Send(size)
		c.Close()
	}
	var done time.Duration
	c := Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= size && done == 0 {
				done = r.sim.Now()
			}
		},
	})
	c.sched = &skipFastest{}
	r.sim.Run()
	if done == 0 {
		t.Fatal("download stalled: wake did not offer data past the refused fastest subflow")
	}
	if dataOnWifi != 0 {
		t.Fatalf("refused subflow carried %d data segments, want 0", dataOnWifi)
	}
}

func TestBackupSchedulerMatrix(t *testing.T) {
	// Paper Fig. 15g semantics must hold under every scheduler, and
	// under one that would rather use the backup: a silently blackholed
	// regular subflow does not activate backup subflows.
	for _, sched := range schedulerCases() {
		sched := sched
		t.Run(sched+"/blackhole", func(t *testing.T) {
			r := newRig(22, symmetric(8, 15*time.Millisecond), symmetric(8, 25*time.Millisecond),
				ServerConfig{Mode: Backup, Scheduler: caseConfig(sched)})
			dataOnBackup := 0
			r.lte.AddSendTap(func(p *netem.Packet) {
				if p.Seg.PayloadLen > 0 {
					dataOnBackup++
				}
			})
			var done time.Duration
			r.srv.OnConn = func(c *Conn) { injectCase(sched, c); c.Send(1 << 20); c.Close() }
			injectCase(sched, Dial(r.sim, r.client, r.host, Config{
				ConnID: "mp1", Primary: "wifi", Mode: Backup,
				BackupIfaces: []string{"lte"}, Scheduler: caseConfig(sched),
			}, Callbacks{
				OnData: func(c *Conn, total int64) {
					if total >= 1<<20 && done == 0 {
						done = r.sim.Now()
					}
				},
			}))
			r.sim.Schedule(r.sim.Now()+300*time.Millisecond, func() { r.wifi.SetBlackhole(true) })
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
			if p.Seg.PayloadLen > 0 {
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
			payload[name] += int(p.Seg.PayloadLen)
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
			if p.Seg.PayloadLen > 0 {
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

// Property: exact reliable delivery for every scheduler under loss, and
// for one that refuses a path — scheduling policy must never break
// reassembly.
func TestPropertySchedulersDeliverExactly(t *testing.T) {
	for _, sched := range schedulerCases() {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			f := func(seed int64, sizeRaw uint32) bool {
				size := int(sizeRaw%400_000) + 1
				r := newRig(seed, pathSpec{9, 15 * time.Millisecond, 0.02},
					pathSpec{7, 30 * time.Millisecond, 0.02}, ServerConfig{Scheduler: caseConfig(sched)})
				var got int64
				r.srv.OnConn = func(c *Conn) { injectCase(sched, c); c.Send(size); c.Close() }
				injectCase(sched, Dial(r.sim, r.client, r.host, Config{ConnID: "p", Primary: "wifi", Scheduler: caseConfig(sched)},
					Callbacks{OnData: func(c *Conn, total int64) { got = total }}))
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
	for _, name := range Schedulers() {
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
