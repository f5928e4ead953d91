package mptcp

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// rig is a two-interface (wifi + lte) client talking to one server —
// the paper's Fig. 5 topology.
type rig struct {
	sim    *simnet.Sim
	host   *netem.Host
	wifi   *netem.Iface
	lte    *netem.Iface
	client *tcp.Stack
	server *tcp.Stack
	srv    *Server
}

type pathSpec struct {
	mbps float64
	owd  time.Duration
	loss float64
}

func newRig(seed int64, wifi, lte pathSpec, scfg ServerConfig) *rig {
	sim := simnet.New(seed)
	mk := func(name string, ps pathSpec) *netem.Iface {
		cfg := func(stream string) netem.LinkConfig {
			return netem.LinkConfig{
				PropDelay:  ps.owd,
				LossProb:   ps.loss,
				RNG:        sim.RNG(stream),
				QueueLimit: 150,
			}
		}
		up := netem.NewFixedLink(sim, ps.mbps, cfg("loss/"+name+"/up"))
		down := netem.NewFixedLink(sim, ps.mbps, cfg("loss/"+name+"/down"))
		return netem.NewIface(sim, name, up, down)
	}
	r := &rig{sim: sim}
	r.wifi = mk("wifi", wifi)
	r.lte = mk("lte", lte)
	r.host = netem.NewHost("client")
	r.host.Attach(r.wifi)
	r.host.Attach(r.lte)
	r.client = tcp.NewStack(sim, tcp.ClientSide)
	r.server = tcp.NewStack(sim, tcp.ServerSide)
	for _, i := range []*netem.Iface{r.wifi, r.lte} {
		r.client.Bind(i)
		r.server.Bind(i)
	}
	r.srv = NewServer(sim, r.server, scfg)
	return r
}

// hostWith is a client host with only the given interfaces attached. The
// rig's stacks stay bound to both, but a connection dialled from it opens
// subflows on these alone: with one interface, the primary is all it has.
func hostWith(ifcs ...*netem.Iface) *netem.Host {
	h := netem.NewHost("client")
	for _, i := range ifcs {
		h.Attach(i)
	}
	return h
}

// download starts a server→client transfer of size bytes over MPTCP
// and returns (completion time, ok).
func (r *rig) download(cfg Config, size int) (time.Duration, bool) {
	var done time.Duration
	r.srv.OnConn = func(c *Conn) {
		c.Send(size)
		c.Close()
	}
	Dial(r.sim, r.client, r.host, cfg, Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= int64(size) && done == 0 {
				done = r.sim.Now()
			}
		},
	})
	r.sim.Run()
	return done, done > 0
}

func symmetric(mbps float64, owd time.Duration) pathSpec {
	return pathSpec{mbps: mbps, owd: owd}
}

func TestDownloadCompletes(t *testing.T) {
	r := newRig(1, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi"}, 1<<20)
	if !ok {
		t.Fatal("download did not complete")
	}
	if d <= 0 {
		t.Fatal("bad completion time")
	}
}

func TestBothSubflowsEstablished(t *testing.T) {
	r := newRig(1, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	var estOrder []string
	r.srv.OnConn = func(c *Conn) { c.Send(500_000); c.Close() }
	c := Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{
		OnSubflowEstablished: func(c *Conn, sf *Subflow) {
			estOrder = append(estOrder, sf.Iface.Name)
		},
	})
	r.sim.Run()
	if len(c.Subflows()) != 2 {
		t.Fatalf("subflows = %d, want 2", len(c.Subflows()))
	}
	if len(estOrder) != 2 || estOrder[0] != "wifi" || estOrder[1] != "lte" {
		t.Fatalf("establishment order = %v, want [wifi lte]", estOrder)
	}
}

func TestJoinStartsAfterPrimaryHandshake(t *testing.T) {
	// The MP_JOIN must not start before the primary completes — the
	// late-join mechanism behind the paper's short-flow result.
	r := newRig(1, symmetric(10, 50*time.Millisecond), symmetric(10, 5*time.Millisecond), ServerConfig{})
	var primaryEst, joinEst time.Duration
	r.srv.OnConn = func(c *Conn) { c.Send(100_000); c.Close() }
	Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{
		OnSubflowEstablished: func(c *Conn, sf *Subflow) {
			if sf.Iface.Name == "wifi" {
				primaryEst = r.sim.Now()
			} else {
				joinEst = r.sim.Now()
			}
		},
	})
	r.sim.Run()
	if primaryEst == 0 || joinEst == 0 {
		t.Fatal("subflows not established")
	}
	// Even though LTE is much faster here, its join cannot complete
	// before the WiFi primary handshake (100 ms RTT) plus its own.
	if joinEst <= primaryEst {
		t.Fatalf("join established at %v, before primary at %v", joinEst, primaryEst)
	}
}

func TestAggregationOnComparablePaths(t *testing.T) {
	// Two comparable paths: long-flow MPTCP throughput should exceed
	// either single path alone (paper Fig. 7b behaviour).
	const size = 4 << 20
	r := newRig(2, symmetric(6, 20*time.Millisecond), symmetric(5, 30*time.Millisecond), ServerConfig{})
	d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi"}, size)
	if !ok {
		t.Fatal("no completion")
	}
	mbps := float64(size) * 8 / d.Seconds() / 1e6
	if mbps < 7 {
		t.Fatalf("MPTCP aggregate = %.2f Mbit/s, want > 7 (6+5 paths)", mbps)
	}
}

func TestShortFlowDominatedByPrimaryChoice(t *testing.T) {
	// 10 KB flow: primary on the low-RTT fast path completes much
	// faster than primary on the slow path (paper Fig. 8).
	const size = 10_000
	fastPrimary := func() time.Duration {
		r := newRig(3, symmetric(20, 10*time.Millisecond), symmetric(2, 80*time.Millisecond), ServerConfig{})
		d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi"}, size)
		if !ok {
			t.Fatal("no completion")
		}
		return d
	}()
	slowPrimary := func() time.Duration {
		r := newRig(3, symmetric(20, 10*time.Millisecond), symmetric(2, 80*time.Millisecond), ServerConfig{})
		d, ok := r.download(Config{ConnID: "mp1", Primary: "lte"}, size)
		if !ok {
			t.Fatal("no completion")
		}
		return d
	}()
	if float64(slowPrimary) < 1.5*float64(fastPrimary) {
		t.Fatalf("slow-primary FCT %v not >> fast-primary FCT %v", slowPrimary, fastPrimary)
	}
}

func TestCoupledNoMoreAggressiveThanDecoupled(t *testing.T) {
	// On a long flow, coupled (LIA) throughput must not exceed
	// decoupled throughput (paper Section 3.5: decoupled grows faster).
	const size = 4 << 20
	run := func(cc CongestionMode) time.Duration {
		r := newRig(4, pathSpec{8, 20 * time.Millisecond, 0.002}, pathSpec{6, 35 * time.Millisecond, 0.002}, ServerConfig{CC: cc})
		d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi", CC: cc}, size)
		if !ok {
			t.Fatal("no completion")
		}
		return d
	}
	decoupled := run(Decoupled)
	coupled := run(Coupled)
	if coupled < decoupled {
		t.Fatalf("coupled (%v) finished before decoupled (%v)", coupled, decoupled)
	}
}

func TestBackupSubflowCarriesNoData(t *testing.T) {
	const size = 1 << 20
	r := newRig(5, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
		ServerConfig{Mode: Backup})
	dataOnLTE := 0
	r.lte.AddSendTap(func(p *netem.Packet) {
		if seg, ok := p.Payload.(*tcp.Segment); ok && seg.PayloadLen > 0 {
			dataOnLTE++
		}
	})
	cfg := Config{ConnID: "mp1", Primary: "wifi", Mode: Backup, BackupIfaces: []string{"lte"}}
	if _, ok := r.download(cfg, size); !ok {
		t.Fatal("no completion")
	}
	if dataOnLTE != 0 {
		t.Fatalf("backup subflow carried %d data segments, want 0", dataOnLTE)
	}
}

// TestUnknownBackupIfaceFailsAtDial: a backup name the host does not
// have would leave every subflow a regular one, so a Backup-mode
// transfer would run as Full-MPTCP without saying so. Dial refuses it
// the way it refuses an unknown primary.
func TestUnknownBackupIfaceFailsAtDial(t *testing.T) {
	r := newRig(5, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
		ServerConfig{Mode: Backup})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "bogus") {
			t.Errorf("Dial with backup iface \"bogus\": panic %q, want one naming it", msg)
		}
	}()
	Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi", Mode: Backup, BackupIfaces: []string{"bogus"}}, Callbacks{})
}

func TestBackupHandshakeAndFinStillHappen(t *testing.T) {
	// Paper Section 3.6: even in backup mode the backup interface sees
	// SYN at start and FIN at end (which is why it burns tail energy).
	r := newRig(5, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond),
		ServerConfig{Mode: Backup})
	var syn, fin int
	r.lte.AddSendTap(func(p *netem.Packet) {
		seg, ok := p.Payload.(*tcp.Segment)
		if !ok {
			return
		}
		if seg.Flags.Has(tcp.FlagSYN) {
			syn++
		}
		if seg.Flags.Has(tcp.FlagFIN) {
			fin++
		}
	})
	cfg := Config{ConnID: "mp1", Primary: "wifi", Mode: Backup, BackupIfaces: []string{"lte"}}
	if _, ok := r.download(cfg, 500_000); !ok {
		t.Fatal("no completion")
	}
	if syn == 0 {
		t.Fatal("backup subflow sent no SYN")
	}
	if fin == 0 {
		t.Fatal("backup subflow sent no FIN")
	}
}

func TestBackupFailoverOnAdminDown(t *testing.T) {
	// iproute-style down on the primary mid-flow: the backup subflow
	// takes over immediately (paper Fig. 15e/f).
	const size = 2 << 20
	r := newRig(6, symmetric(8, 15*time.Millisecond), symmetric(8, 25*time.Millisecond),
		ServerConfig{Mode: Backup})
	var done time.Duration
	r.srv.OnConn = func(c *Conn) { c.Send(size); c.Close() }
	Dial(r.sim, r.client, r.host, Config{
		ConnID: "mp1", Primary: "wifi", Mode: Backup, BackupIfaces: []string{"lte"},
	}, Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= int64(size) && done == 0 {
				done = r.sim.Now()
			}
		},
	})
	r.sim.Schedule(r.sim.Now()+500*time.Millisecond, func() { r.wifi.SetDown(true) })
	r.sim.Run()
	if done == 0 {
		t.Fatal("transfer did not complete after failover")
	}
	if done < 500*time.Millisecond {
		t.Fatal("transfer finished before the failover was exercised")
	}
}

func TestBackupBlackholeStalls(t *testing.T) {
	// Silently blackholing the primary (pulling the cable) must NOT
	// activate the backup — the paper's Fig. 15g anomaly. The backup
	// emits only a window update; the transfer stalls until replug.
	const size = 2 << 20
	r := newRig(7, symmetric(8, 15*time.Millisecond), symmetric(8, 25*time.Millisecond),
		ServerConfig{Mode: Backup})
	var done time.Duration
	dataOnBackup := 0
	pureAcksOnBackup := 0
	r.lte.AddSendTap(func(p *netem.Packet) {
		seg, ok := p.Payload.(*tcp.Segment)
		if !ok {
			return
		}
		if seg.PayloadLen > 0 {
			dataOnBackup++
		} else if seg.Flags&^tcp.FlagDSS == tcp.FlagACK && r.sim.Now() > 500*time.Millisecond {
			pureAcksOnBackup++
		}
	})
	r.srv.OnConn = func(c *Conn) { c.Send(size); c.Close() }
	Dial(r.sim, r.client, r.host, Config{
		ConnID: "mp1", Primary: "wifi", Mode: Backup, BackupIfaces: []string{"lte"},
	}, Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= int64(size) && done == 0 {
				done = r.sim.Now()
			}
		},
	})
	r.sim.Schedule(r.sim.Now()+500*time.Millisecond, func() { r.wifi.SetBlackhole(true) })
	// Check the stall window, then replug and let it finish.
	r.sim.Schedule(20*time.Second, func() {
		if done != 0 {
			t.Error("transfer completed during blackhole — backup must stay idle")
		}
	})
	r.sim.Schedule(30*time.Second, func() { r.wifi.SetBlackhole(false) })
	r.sim.Run()
	if done == 0 {
		t.Fatal("transfer did not resume after replug")
	}
	if done < 30*time.Second {
		t.Fatalf("completed at %v, before replug", done)
	}
	if dataOnBackup != 0 {
		t.Fatalf("backup carried %d data segments during blackhole", dataOnBackup)
	}
	if pureAcksOnBackup == 0 {
		t.Fatal("expected the lone window-update on the backup subflow (Fig. 15g)")
	}
}

func TestFullModeBlackholeReinjects(t *testing.T) {
	// In Full-MPTCP mode a silent blackhole on one path is survivable:
	// outstanding mappings are reinjected on the live subflow after
	// repeated RTOs.
	const size = 2 << 20
	r := newRig(8, symmetric(8, 15*time.Millisecond), symmetric(8, 25*time.Millisecond), ServerConfig{})
	var done time.Duration
	r.srv.OnConn = func(c *Conn) { c.Send(size); c.Close() }
	Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= int64(size) && done == 0 {
				done = r.sim.Now()
			}
		},
	})
	r.sim.Schedule(r.sim.Now()+400*time.Millisecond, func() { r.lte.SetBlackhole(true) })
	r.sim.Run()
	if done == 0 {
		t.Fatal("transfer did not complete over the surviving path")
	}
	srvConn := r.srv.Conn("mp1")
	if srvConn.Reinjections == 0 {
		t.Fatal("expected reinjections after subflow stall")
	}
}

func TestSimultaneousJoinAblation(t *testing.T) {
	// With simultaneous join, the second subflow's handshake starts at
	// dial time, so it establishes earlier than with the default
	// sequential join.
	joinTime := func(simultaneous bool) time.Duration {
		r := newRig(10, symmetric(10, 40*time.Millisecond), symmetric(10, 40*time.Millisecond), ServerConfig{})
		var join time.Duration
		r.srv.OnConn = func(c *Conn) { c.Send(50_000); c.Close() }
		Dial(r.sim, r.client, r.host, Config{
			ConnID: "mp1", Primary: "wifi", SimultaneousJoin: simultaneous,
		}, Callbacks{
			OnSubflowEstablished: func(c *Conn, sf *Subflow) {
				if sf.Iface.Name == "lte" {
					join = r.sim.Now()
				}
			},
		})
		r.sim.Run()
		return join
	}
	seq := joinTime(false)
	sim := joinTime(true)
	if sim >= seq {
		t.Fatalf("simultaneous join at %v, not earlier than sequential %v", sim, seq)
	}
}

func TestUploadDirection(t *testing.T) {
	const size = 1 << 20
	r := newRig(11, symmetric(6, 20*time.Millisecond), symmetric(5, 30*time.Millisecond), ServerConfig{})
	var done time.Duration
	r.srv.OnConn = func(c *Conn) {
		c.SetCallbacks(Callbacks{OnData: func(c *Conn, total int64) {
			if total >= int64(size) && done == 0 {
				done = r.sim.Now()
			}
		}})
	}
	cl := Dial(r.sim, r.client, r.host, Config{ConnID: "up1", Primary: "wifi"}, Callbacks{
		OnEstablished: func(c *Conn) { c.Send(size); c.Close() },
	})
	r.sim.Run()
	if done == 0 {
		t.Fatal("upload did not complete")
	}
	_ = cl
	mbps := float64(size) * 8 / done.Seconds() / 1e6
	if mbps < 6 {
		t.Fatalf("upload aggregate %.2f Mbit/s, want > 6", mbps)
	}
}

func TestConnectionClosesCleanly(t *testing.T) {
	r := newRig(12, symmetric(10, 10*time.Millisecond), symmetric(10, 20*time.Millisecond), ServerConfig{})
	closed := false
	r.srv.OnConn = func(c *Conn) { c.Send(200_000); c.Close() }
	c := Dial(r.sim, r.client, r.host, Config{ConnID: "mp1", Primary: "wifi"}, Callbacks{
		OnData: func(c *Conn, total int64) {
			if total >= 200_000 {
				c.Close()
			}
		},
		OnClosed: func(c *Conn) { closed = true },
	})
	r.sim.Run()
	if !closed {
		t.Fatal("client connection did not close")
	}
	for _, sf := range c.Subflows() {
		if sf.TCP.State() != tcp.StateDone {
			t.Fatalf("subflow %s state = %v, want done", sf.Name(), sf.TCP.State())
		}
	}
}

// Property: exact reliable delivery across subflows for any size and
// loss seeds.
func TestPropertyReassemblyExact(t *testing.T) {
	f := func(seed int64, sizeRaw uint32) bool {
		size := int(sizeRaw%800_000) + 1
		r := newRig(seed, pathSpec{9, 15 * time.Millisecond, 0.02}, pathSpec{7, 30 * time.Millisecond, 0.02}, ServerConfig{})
		var got int64
		r.srv.OnConn = func(c *Conn) { c.Send(size); c.Close() }
		Dial(r.sim, r.client, r.host, Config{ConnID: "p", Primary: "wifi"}, Callbacks{
			OnData: func(c *Conn, total int64) { got = total },
		})
		r.sim.Run()
		return got == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: connection-level delivery is monotone.
func TestPropertyMonotoneDelivery(t *testing.T) {
	f := func(seed int64) bool {
		r := newRig(seed, pathSpec{8, 10 * time.Millisecond, 0.03}, pathSpec{8, 40 * time.Millisecond, 0.03}, ServerConfig{})
		prev := int64(-1)
		ok := true
		r.srv.OnConn = func(c *Conn) { c.Send(300_000); c.Close() }
		Dial(r.sim, r.client, r.host, Config{ConnID: "p", Primary: "lte"}, Callbacks{
			OnData: func(c *Conn, total int64) {
				if total <= prev {
					ok = false
				}
				prev = total
			},
		})
		r.sim.Run()
		return ok && prev == 300_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestLIASingleSubflowBehavesLikeReno(t *testing.T) {
	// With one subflow, LIA's alpha reduces the increase to at most
	// Reno's; throughput should be within a few percent of decoupled.
	run := func(cc CongestionMode) time.Duration {
		r := newRig(13, symmetric(10, 20*time.Millisecond), symmetric(10, 20*time.Millisecond), ServerConfig{CC: cc})
		r.host = hostWith(r.wifi)
		d, ok := r.download(Config{ConnID: "mp1", Primary: "wifi", CC: cc}, 2<<20)
		if !ok {
			t.Fatal("no completion")
		}
		return d
	}
	reno := run(Decoupled)
	lia := run(Coupled)
	ratio := float64(lia) / float64(reno)
	if ratio > 1.15 || ratio < 0.85 {
		t.Fatalf("single-subflow LIA/Reno FCT ratio = %.3f, want ~1", ratio)
	}
}

func TestDeterministicMPTCPRun(t *testing.T) {
	run := func() time.Duration {
		r := newRig(42, pathSpec{9, 15 * time.Millisecond, 0.01}, pathSpec{6, 35 * time.Millisecond, 0.01}, ServerConfig{})
		d, ok := r.download(Config{ConnID: "det", Primary: "wifi"}, 1<<20)
		if !ok {
			t.Fatal("no completion")
		}
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic MPTCP run: %v vs %v", a, b)
	}
}

// TestServerConnLatestWins: the server files accepted connections in
// accept order, and an MP_CAPABLE that arrives again under an accepted ID
// (a re-join that restarts its connection) supersedes the earlier one
// for Conn, which is also where an MP_JOIN finds its connection.
func TestServerConnLatestWins(t *testing.T) {
	r := newRig(1, symmetric(10, 15*time.Millisecond), symmetric(8, 30*time.Millisecond), ServerConfig{})
	var accepted []*Conn
	r.srv.OnConn = func(c *Conn) { accepted = append(accepted, c) }
	Dial(r.sim, r.client, hostWith(r.wifi), Config{ConnID: "x", Primary: "wifi"}, Callbacks{})
	r.sim.Run()
	Dial(r.sim, r.client, hostWith(r.lte), Config{ConnID: "x", Primary: "lte"}, Callbacks{})
	r.sim.Run()
	if len(accepted) != 2 || r.srv.Conn("x") != accepted[1] || r.srv.Conn("y") != nil {
		t.Fatalf("accepted %d, Conn(x) = %p, want the second of %p", len(accepted), r.srv.Conn("x"), accepted)
	}
	if !slices.Equal(r.srv.conns, accepted) {
		t.Fatal("the server's table is not the accepted connections in accept order")
	}
}
