package simnet_test

import (
	"fmt"
	"math/rand"
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

// replayCell replays an app (replay.Run releases its own Sim).
func replayCell(seed int64, cond phy.Condition, app apps.App, tc replay.TransportConfig) string {
	return fmt.Sprintf("%+v", replay.Run(seed, cond, replay.Record(app), tc))
}

// worldCells are differently shaped worlds: two and three paths,
// constant-rate and delivery-opportunity links, TCP and MPTCP, short
// app replays and bulk transfers, and a fault run whose blackhole
// outlasts the horizon, so the world is released with retransmission,
// probe, watchdog and fault-restore timers still pending and packets
// still queued. The last two differ only in how large their rings grow:
// a world that leaves the slab far bigger than the next one needs, and
// one that leaves it far too small.
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
