package mptcp_test

import (
	"strings"
	"testing"
	"time"

	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
	"multinet/internal/tcp"
)

// auditCond is a lossless wifi and lte pair.
func auditCond() phy.Condition {
	path := func(name string, mbps, rttMs float64) phy.Path {
		return phy.Path{Name: name, Profile: phy.PathProfile{DownMbps: mbps, UpMbps: mbps, RTTms: rttMs}}
	}
	return phy.NewCondition("audit", path("wifi", 10, 30), path("lte", 8, 60))
}

// auditWorld runs a 256 KB MPTCP download to completion in a fresh
// world, the stuck-flow watchdog armed on both ends when watchdogRTOs is
// positive, and returns the world with both ends of the connection.
func auditWorld(t *testing.T, watchdogRTOs int) (w core.World, cli, srv *mptcp.Conn) {
	t.Helper()
	const size = 256 << 10
	w = core.NewWorld(1, auditCond())
	mptcp.NewServer(w.Sim, w.Server, mptcp.ServerConfig{WatchdogRTOs: watchdogRTOs}).OnConn = func(c *mptcp.Conn) {
		srv = c
		c.Send(size)
		c.Close()
	}
	cli = mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{ConnID: "audit", Primary: "wifi", WatchdogRTOs: watchdogRTOs}, mptcp.Callbacks{
		OnData: func(c *mptcp.Conn, total int64) {
			if total >= size {
				c.Close()
			}
		},
	})
	w.Sim.Run()
	if cli.RecvTotal() != size || w.Sim.Pending() != 0 {
		t.Fatal("the download did not finish and drain")
	}
	return w, cli, srv
}

// closePanics closes w and returns the error it panicked with, nil if
// it did not.
func closePanics(w core.World) (err error) {
	defer func() { err, _ = recover().(error) }()
	w.Close()
	return nil
}

// TestPairRulesPanicAtClose breaks each rule of AuditPairs once on a
// download that finished cleanly, and checks that the drained world's
// Close panics naming it. The sender-side rules read the sender's
// DATA_ACK when its watchdog is armed and what the receiver has when it
// is not, so a missing DATA_ACK alone breaks them only in the first case.
func TestPairRulesPanicAtClose(t *testing.T) {
	for _, tc := range []struct {
		name     string
		watchdog int
		breakIt  func(cli, srv *mptcp.Conn)
		rules    []string // none: Close must not panic
	}{
		{"over-delivery", 0, func(cli, _ *mptcp.Conn) { mptcp.OverDeliver(cli) }, []string{"over-delivery"}},
		{"incomplete-delivery", 0, func(cli, _ *mptcp.Conn) { mptcp.UnderCount(cli) }, []string{"incomplete-delivery"}},
		{"undelivered", 0, func(_, srv *mptcp.Conn) { mptcp.Reopen(srv, 100, false) }, []string{"silent-stall"}},
		{"unscheduled", 0, func(_, srv *mptcp.Conn) { mptcp.Reopen(srv, 100, true) }, []string{"stranded-mapping", "silent-stall"}},
		{"unacked, watchdog", 4, func(_, srv *mptcp.Conn) { mptcp.Unack(srv, 100) }, []string{"stranded-mapping", "silent-stall"}},
		{"unacked, no watchdog", 0, func(_, srv *mptcp.Conn) { mptcp.Unack(srv, 100) }, nil},
	} {
		w, cli, srv := auditWorld(t, tc.watchdog)
		tc.breakIt(cli, srv)
		err := closePanics(w)
		if (err != nil) != (len(tc.rules) > 0) {
			t.Errorf("%s: Close panicked with %v, want the rules %v", tc.name, err, tc.rules)
		}
		for _, rule := range tc.rules {
			if err != nil && !strings.Contains(err.Error(), rule+": ") {
				t.Errorf("%s: Close panicked with %v, which does not name %s", tc.name, err, rule)
			}
		}
	}
}

// TestForgottenConnsAreAudited takes both interfaces down for good in
// the middle of a download with no watchdog: every subflow of both ends
// is torn down and its stack forgets it, and the world drains with the
// download stuck. The audit still reaches the pair through the forgotten
// subflows, and Close panics naming the stall.
func TestForgottenConnsAreAudited(t *testing.T) {
	w := core.NewWorld(1, auditCond())
	mptcp.NewServer(w.Sim, w.Server, mptcp.ServerConfig{}).OnConn = func(c *mptcp.Conn) { c.Send(1 << 20) }
	cli := mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{ConnID: "gone", Primary: "wifi"}, mptcp.Callbacks{})
	w.Sim.RunUntil(300 * time.Millisecond)
	if len(cli.Subflows()) != 2 || cli.RecvTotal() == 0 {
		t.Fatalf("no two-subflow transfer under way at 300 ms: %v", cli)
	}
	for _, ifc := range w.Host.Ifaces() {
		ifc.SetDown(true)
	}
	w.Sim.Run()
	for _, st := range []*tcp.Stack{w.Client, w.Server} {
		for _, flow := range []string{"gone/wifi", "gone/lte"} {
			if st.Conn(flow) != nil {
				t.Fatalf("%s is still filed", flow)
			}
		}
	}
	if err := closePanics(w); err == nil || !strings.Contains(err.Error(), "silent-stall: gone server->client: ") {
		t.Fatalf("Close panicked with %v, want a silent stall server->client", err)
	}
}
