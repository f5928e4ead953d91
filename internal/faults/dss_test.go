package faults_test

import (
	"testing"
	"time"

	"multinet/internal/core"
	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
	"multinet/internal/tcp"
)

// TestDSSMappingsSurviveFaults drives MPTCP's DSS through everything
// that resends a mapping: random loss (retransmitted copies beside the
// scoreboard entry), paths of disparate delay (copies read long after
// their entry was acknowledged, and the other way round), a blackhole
// long enough for repeated RTOs and reinjection (the same bytes under
// several mappings on several subflows) and, in the second run, an
// administrative flap that aborts a subflow with entries and copies
// outstanding. At every 5 ms step the world passes its audit (every
// sender's scoreboard accounting agrees with a scan of it, among the
// rest); at the end every byte has arrived, both ends closed gracefully,
// and the drained world passes every rule at Close.
//
// Coverage (mptcp.Conn.UncoveredBytes) is a rule of a quiescent world
// only: mid-flight, bytes a subflow has delivered above a hole in the
// data sequence are acknowledged on the subflow, so no mapping covers
// them, and not yet on the connection. The test pins that choice: 5,840
// such bytes at 260 ms, and the audit passing there.
func TestDSSMappingsSurviveFaults(t *testing.T) {
	path := func(name string, mbps, rttMs, lossPct float64) phy.Path {
		return phy.Path{Name: name, Profile: phy.PathProfile{
			DownMbps: mbps, UpMbps: mbps, RTTms: rttMs, LossPct: lossPct, QueuePkts: 150,
		}}
	}
	cond := phy.NewCondition("dss", path("wifi", 8, 20, 2), path("lte", 6, 140, 1))
	for _, tc := range []struct {
		name     string
		teardown bool
	}{
		{"loss+reordering+rto+reinjection", false},
		{"and a subflow torn down mid-flight", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const size = 2 << 20
			w := core.NewWorld(21, cond)
			defer w.Close()
			srv := mptcp.NewServer(w.Sim, w.Server, mptcp.ServerConfig{})
			var sc *mptcp.Conn
			closed := 0
			onClosed := func(*mptcp.Conn) { closed++ }
			srv.OnConn = func(c *mptcp.Conn) {
				sc = c
				c.SetCallbacks(mptcp.Callbacks{OnClosed: onClosed})
				c.Send(size)
				c.Close()
			}
			cli := mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{ConnID: "dss", Primary: "wifi"}, mptcp.Callbacks{
				OnData: func(c *mptcp.Conn, total int64) {
					if total >= size {
						c.Close()
					}
				},
				OnClosed: onClosed,
			})
			sched := faults.Schedule{Episodes: []faults.Episode{
				{Kind: faults.Blackhole, Iface: "lte", Start: 400 * time.Millisecond, Duration: 4600 * time.Millisecond},
			}}
			if tc.teardown {
				sched.Episodes = append(sched.Episodes, faults.Episode{
					Kind: faults.AdminDown, Iface: "wifi", Start: 900 * time.Millisecond, Duration: 600 * time.Millisecond,
				})
			}
			if err := sched.Attach(w.Sim, w.Host); err != nil {
				t.Fatal(err)
			}
			torn, uncovered := false, uint64(0)
			for w.Sim.Pending() > 0 {
				w.Sim.RunFor(5 * time.Millisecond)
				// While its interface is down, a torn-down subflow's
				// connection is aborted.
				for _, sf := range cli.Subflows() {
					torn = torn || sf.Iface.AdminDown() && sf.TCP.State() == tcp.StateDone
				}
				if err := w.Audit(); err != nil {
					t.Fatalf("at %v: %v", w.Sim.Now(), err)
				}
				if w.Sim.Now() == 260*time.Millisecond {
					uncovered = sc.UncoveredBytes()
				}
			}
			if cli.RecvTotal() != size || closed != 2 {
				t.Fatalf("delivered %d of %d bytes; %d of 2 ends closed: client %v, server %v",
					cli.RecvTotal(), size, closed, cli, sc)
			}
			// The audit passed at 260 ms although coverage did not hold
			// there: stranded-mapping waits for quiescence.
			if uncovered != 5840 {
				t.Fatalf("at 260 ms %d bytes were covered by no mapping, want the 5840 that pin the quiescence gate", uncovered)
			}
			rtx := 0
			for _, sf := range sc.Subflows() {
				rtx += sf.TCP.Retransmits
			}
			// Reinjection happens on a subflow's second consecutive RTO, so
			// a reinjection also proves the timeouts.
			if rtx == 0 || sc.Reinjections == 0 {
				t.Fatalf("run too tame to resend mappings: %d retransmits, %d reinjections", rtx, sc.Reinjections)
			}
			if tc.teardown && !torn {
				t.Fatal("no subflow was torn down")
			}
		})
	}
}
