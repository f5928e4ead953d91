package simnet_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"multinet/internal/apps"
	"multinet/internal/core"
	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/replay"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// threePaths widens a paper location to WiFi plus two carriers.
func threePaths(loc phy.Location) phy.Condition {
	second := loc.LTE
	second.DownMbps *= 0.6
	second.UpMbps *= 0.6
	second.RTTms += 20
	return phy.NewCondition(fmt.Sprintf("loc%02d+2lte", loc.ID),
		phy.Path{Name: "wifi", Profile: loc.WiFi},
		phy.Path{Name: "lte-a", Profile: loc.LTE},
		phy.Path{Name: "lte-b", Profile: second},
	)
}

// sessionCell runs 300 KB transfers on one core.Session and returns
// every number the session can be asked for: the results, the kernel's
// event count and each link's counters. A non-empty schedule is attached
// before the first transfer.
func sessionCell(seed int64, cond phy.Condition, horizon time.Duration, sched faults.Schedule, cfgs ...core.Config) string {
	return sizedSessionCell(seed, cond, horizon, sched, 300<<10, cfgs...)
}

// sizedSessionCell is sessionCell with a transfer size: how far the
// scoreboards, mapping queues and link queues grow on the slab.
func sizedSessionCell(seed int64, cond phy.Condition, horizon time.Duration, sched faults.Schedule, size int, cfgs ...core.Config) string {
	s := core.NewSession(seed, cond)
	defer s.Close()
	s.Horizon = horizon
	if len(sched.Episodes) > 0 {
		if _, err := sched.Attach(s.Sim, s.Host); err != nil {
			panic(err)
		}
	}
	var sb strings.Builder
	for i, cfg := range cfgs {
		dir := core.Download
		if i%2 == 1 {
			dir = core.Upload
		}
		fmt.Fprintf(&sb, "%s %+v; ", cfg.Name(), s.Run(cfg, dir, size))
	}
	fmt.Fprintf(&sb, "now=%v processed=%d pending=%d;", s.Sim.Now(), s.Sim.Processed(), s.Sim.Pending())
	for _, ifc := range s.Host.Ifaces() {
		for _, l := range []netem.Link{ifc.UpLink(), ifc.DownLink()} {
			fmt.Fprintf(&sb, " %s %+v", ifc.Name, l.Stats())
		}
	}
	return sb.String()
}

// cutWorld builds a replay-shaped MPTCP world by hand and stops it at
// the worst moment for whoever gets its memory next: as soon as some
// connection has data arriving on its first subflow while its last one's
// SYN is out and unanswered. Scoreboards and mapping queues are dirty,
// retransmission and delayed-ACK timers armed, later connections not yet
// dialled, and every handle — tcp.Conn, mptcp.Conn, Subflow — is carved
// from the slab the next world will carve again. It returns the client
// ends dialled so far, then the server ends.
func cutWorld(seed int64, cond phy.Condition, primary string) (*simnet.Sim, *netem.Host, []*mptcp.Conn) {
	const size = 2 << 20
	sim := simnet.New(seed)
	host := phy.BuildHost(sim, cond)
	client, server := tcp.NewStack(sim, tcp.ClientSide), tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range host.Ifaces() {
		client.Bind(ifc)
		server.Bind(ifc)
	}
	var dialled, accepted []*mptcp.Conn
	srv := mptcp.NewServer(sim, server, mptcp.ServerConfig{CC: mptcp.Coupled})
	srv.OnConn = func(c *mptcp.Conn) {
		accepted = append(accepted, c)
		c.Send(size)
		c.Close()
	}
	for i, id := range []string{"cut-0", "cut-1", "cut-2", "cut-3"} {
		sim.After(time.Duration(i)*35*time.Millisecond, func() {
			dialled = append(dialled, mptcp.Dial(sim, client, host,
				mptcp.Config{ConnID: id, Primary: primary, CC: mptcp.Coupled}, mptcp.Callbacks{}))
		})
	}
	halfJoined := func() bool {
		for _, c := range dialled {
			sfs := c.Subflows()
			if len(sfs) > 1 && !sfs[len(sfs)-1].Established() && c.RecvTotal() > 0 && c.RecvTotal() < size {
				return true
			}
		}
		return false
	}
	for !halfJoined() {
		if sim.Now() > 10*time.Second {
			panic("cutWorld: no connection was ever caught half-joined with data in flight")
		}
		sim.RunFor(time.Millisecond)
	}
	return sim, host, append(dialled, accepted...)
}

// cutMidTransfer releases a cutWorld where it stopped and returns what
// it had come to by then.
func cutMidTransfer(seed int64, cond phy.Condition, primary string) string {
	sim, host, conns := cutWorld(seed, cond, primary)
	defer sim.Release()
	var sb strings.Builder
	fmt.Fprintf(&sb, "now=%v processed=%d pending=%d;", sim.Now(), sim.Processed(), sim.Pending())
	for _, c := range conns {
		fmt.Fprintf(&sb, " %s rcvd=%d acked=%d", c.ConnID(), c.RecvTotal(), c.DataAcked())
		for _, sf := range c.Subflows() {
			fmt.Fprintf(&sb, " %s est=%v inflight=%d cwnd=%d", sf.Name(), sf.Established(), sf.TCP.BytesInFlight(), sf.TCP.CwndBytes())
		}
		sb.WriteString(";")
	}
	for _, ifc := range host.Ifaces() {
		for _, l := range []netem.Link{ifc.UpLink(), ifc.DownLink()} {
			fmt.Fprintf(&sb, " %s %+v", ifc.Name, l.Stats())
		}
	}
	return sb.String()
}

// replayCell replays an app (replay.Run releases its own Sim).
func replayCell(seed int64, cond phy.Condition, app apps.App, tc replay.TransportConfig) string {
	return fmt.Sprintf("%+v", replay.Run(seed, cond, replay.Record(app), tc))
}

// worldCells are differently shaped worlds: two and three paths,
// constant-rate and delivery-opportunity links, TCP and MPTCP, short
// app replays and bulk transfers, and a fault run whose blackhole
// outlasts the horizon, so the world is released with retransmission,
// probe, watchdog and fault-restore timers still pending and packets
// still queued. Two differ only in how large their rings grow: a world
// that leaves the slab far bigger than the next one needs, and one that
// leaves it far too small. The last two are released mid-transfer with a
// subflow half-joined, on two and on three paths.
var worldCells = []struct {
	name string
	run  func() string
}{
	{"session tcp 2-path", func() string {
		return sessionCell(11, phy.LocationByID(3).Condition(), core.DefaultHorizon, faults.Schedule{},
			core.Config{Transport: core.TCP, Iface: "wifi"}, core.Config{Transport: core.TCP, Iface: "lte"})
	}},
	{"session mptcp 2-path", func() string {
		return sessionCell(12, phy.LocationByID(11).Condition(), core.DefaultHorizon, faults.Schedule{},
			core.Config{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled},
			core.Config{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Decoupled, Scheduler: mptcp.SchedRoundRobin})
	}},
	{"session mptcp 3-path", func() string {
		return sessionCell(13, threePaths(phy.LocationByID(15)), core.DefaultHorizon, faults.Schedule{},
			core.Config{Transport: core.MPTCP, Primary: "lte-a", CC: mptcp.Decoupled},
			core.Config{Transport: core.TCP, Iface: "lte-b"})
	}},
	{"session faults, timers pending at the horizon", func() string {
		cond := phy.Condition{
			Name: "faults",
			WiFi: phy.PathProfile{DownMbps: 2, UpMbps: 1, RTTms: 30, QueuePkts: 150},
			LTE:  phy.PathProfile{DownMbps: 1, UpMbps: 1, RTTms: 60, QueuePkts: 250, LossPct: 1},
		}
		sched := faults.Schedule{Episodes: []faults.Episode{
			{Kind: faults.LossBurst, Iface: "lte", Start: 100 * time.Millisecond, Duration: time.Second, LossProb: 0.2},
			{Kind: faults.Blackhole, Iface: "wifi", Start: 300 * time.Millisecond, Duration: time.Minute},
		}}
		return sessionCell(14, cond, 1500*time.Millisecond, sched,
			core.Config{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Coupled, WatchdogRTOs: 4})
	}},
	{"replay tcp 2-path", func() string {
		return replayCell(15, phy.LocationByID(7).Condition(), apps.IMDBLaunch,
			replay.TransportConfig{Name: "LTE-TCP", Kind: replay.SinglePath, Iface: "lte"})
	}},
	{"replay mptcp 2-path", func() string {
		return replayCell(16, phy.LocationByID(16).Condition(), apps.CNNLaunch,
			replay.TransportConfig{Name: "MPTCP-Coupled-WiFi", Kind: replay.Multipath, Primary: "wifi", CC: mptcp.Coupled})
	}},
	{"replay mptcp 3-path", func() string {
		return replayCell(17, threePaths(phy.LocationByID(10)), apps.DropboxClick,
			replay.TransportConfig{Name: "MPTCP-Decoupled-LTE-B", Kind: replay.Multipath, Primary: "lte-b", CC: mptcp.Decoupled})
	}},
	{"session 4 MB, rings grown large", func() string {
		return sizedSessionCell(19, phy.LocationByID(9).Condition(), core.DefaultHorizon, faults.Schedule{}, 4<<20,
			core.Config{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
			core.Config{Transport: core.TCP, Iface: "lte"})
	}},
	{"session 2 KB, rings never grown", func() string {
		return sizedSessionCell(20, phy.LocationByID(9).Condition(), core.DefaultHorizon, faults.Schedule{}, 2<<10,
			core.Config{Transport: core.MPTCP, Primary: "wifi", CC: mptcp.Decoupled},
			core.Config{Transport: core.TCP, Iface: "lte"})
	}},
	{"mptcp 2-path cut mid-transfer, a join in flight", func() string {
		return cutMidTransfer(23, phy.LocationByID(5).Condition(), "wifi")
	}},
	{"mptcp 3-path cut mid-transfer, a join in flight", func() string {
		return cutMidTransfer(24, threePaths(phy.LocationByID(12)), "wifi")
	}},
}

// TestRecycledWorldMatchesFresh is the direct form of what the goldens
// prove sweep by sweep: a world built from the memory a differently
// shaped world released gives the same results, event count and link
// counters as the same world built in a process that never released
// anything.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	fresh := make([]string, len(worldCells))
	for i, c := range worldCells {
		simnet.DropRetired()
		fresh[i] = c.run()
		if simnet.Retired() != 1 {
			t.Fatalf("%s: %d arenas retired after the cell, want 1", c.name, simnet.Retired())
		}
	}
	if strings.Contains(fresh[3], "Completed:true") || strings.Contains(fresh[3], "pending=0;") {
		t.Fatalf("the fault cell no longer ends mid-flight with timers pending: %s", fresh[3])
	}
	// Every cell directly after every other one, on that one's memory.
	for i, c := range worldCells {
		for j, prev := range worldCells {
			if i == j {
				continue
			}
			simnet.DropRetired()
			prev.run()
			if got := c.run(); got != fresh[i] {
				t.Fatalf("%s after %s differs from a fresh run\nfresh:    %s\nrecycled: %s", c.name, prev.name, fresh[i], got)
			}
		}
	}
	// And a long seeded mix on one arena that has seen all of them.
	rng := rand.New(rand.NewSource(18))
	for step := 0; step < 40; step++ {
		i := rng.Intn(len(worldCells))
		if got := worldCells[i].run(); got != fresh[i] {
			t.Fatalf("mix step %d: %s differs from a fresh run\nfresh:    %s\nrecycled: %s", step, worldCells[i].name, fresh[i], got)
		}
	}
}

// TestHandlesDieWithTheirWorld pins what a connection handle is after
// its Sim's Release, which is the contract a released Sim already has:
// nothing of the world that ended can be reached through it, and
// anything that would schedule panics. A world built on a released
// one's arena carves its handles from the slab, and Release zeroes them
// where they lie, mid-transfer or not; a first world's handles are plain
// allocations nothing recalls, and they are left holding a Sim that
// refuses them.
func TestHandlesDieWithTheirWorld(t *testing.T) {
	world := func() (*simnet.Sim, []any, *tcp.Conn) {
		sim, _, conns := cutWorld(25, phy.LocationByID(5).Condition(), "wifi")
		var handles []any
		for _, c := range conns {
			handles = append(handles, c)
			for _, sf := range c.Subflows() {
				handles = append(handles, sf, sf.TCP)
			}
		}
		return sim, handles, conns[0].Primary().TCP
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}

	simnet.DropRetired()
	sim, _, tc := world()
	sim.Release()
	mustPanic("Connect on a handle of a released first world", tc.Connect)

	sim, handles, tc := world() // on the first world's arena
	sim.Release()
	for _, h := range handles {
		if !reflect.ValueOf(h).Elem().IsZero() {
			t.Errorf("a %T survived its world's Release: %+v", h, h)
		}
	}
	mustPanic("Connect on a zeroed handle", tc.Connect)
}
