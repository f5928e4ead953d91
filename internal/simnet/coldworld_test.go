package simnet_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// coldCond is built once: the name of a Location's Condition is fmt's
// work, not the world's.
var coldCond = phy.LocationByID(3).Condition()

// coldSession is a world as benchmark/transfer.go builds them: bulk
// transfers on one Sim that is never released.
func coldSession(cfgs ...core.Config) {
	s := core.NewSession(21, coldCond)
	for _, cfg := range cfgs {
		if r := s.Run(cfg, core.Download, 1<<20); !r.Completed {
			panic("cold session transfer incomplete: " + cfg.Name())
		}
	}
}

var (
	coldTCP   = core.Config{Transport: core.TCP, Iface: "wifi"}
	coldMPTCP = core.Config{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Coupled}
)

// coldReplay is a world shaped like replay.Run's — a dozen short
// request/response connections side by side, MPTCP with a late join on
// each — except that nothing releases it.
func coldReplay() {
	sim := simnet.New(22)
	host := phy.BuildHost(sim, phy.LocationByID(16).Condition())
	client, server := tcp.NewStack(sim, tcp.ClientSide), tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range host.Ifaces() {
		client.Bind(ifc)
		server.Bind(ifc)
	}
	const request, response, flows = 600, 30 << 10, 12
	srv := mptcp.NewServer(sim, server, mptcp.ServerConfig{CC: mptcp.Coupled})
	srv.OnConn = func(c *mptcp.Conn) {
		c.SetCallbacks(mptcp.Callbacks{OnData: func(c *mptcp.Conn, total int64) {
			if total >= request {
				c.Send(response)
				c.Close()
			}
		}})
	}
	done := 0
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("flow-%d", i)
		sim.After(time.Duration(i)*40*time.Millisecond, func() {
			mptcp.Dial(sim, client, host, mptcp.Config{ConnID: id, Primary: "wifi", CC: mptcp.Coupled}, mptcp.Callbacks{
				OnEstablished: func(c *mptcp.Conn) { c.Send(request) },
				OnData: func(c *mptcp.Conn, total int64) {
					if total >= response {
						done++
					}
				},
			})
		})
	}
	sim.RunUntil(time.Minute)
	if done != flows {
		panic(fmt.Sprintf("cold replay: %d of %d flows completed", done, flows))
	}
}

// coldCost returns what building and running one world from nothing
// allocates: the least of several runs, with the collector off, so that
// neither a collection's bookkeeping nor another test's leftovers count
// — nor the printers fmt allocates at random under the race detector,
// where sync.Pool drops a quarter of what is put back.
func coldCost(world func()) (bytes, objects uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 10; i++ {
		simnet.DropRetired()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		world()
		runtime.ReadMemStats(&after)
		b, o := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if i == 0 || b < bytes {
			bytes = b
		}
		if i == 0 || o < objects {
			objects = o
		}
	}
	return bytes, objects
}

// TestColdWorldBytes: the slab, the generator fork and the shared subflow
// hooks pay in the second world built from an arena; this holds them to
// costing nothing in a first one. A world that is never released — every
// cell of the benchmark's tcp-bulk and mptcp-bulk, any caller that drops
// its Session — must allocate no more bytes and no more objects than it
// did before they existed. The bounds are the parent commit's numbers
// (c532f9f, go1.24 linux/amd64), measured by this same function.
func TestColdWorldBytes(t *testing.T) {
	for _, w := range []struct {
		name                 string
		run                  func()
		maxBytes, maxObjects uint64
	}{
		{"session, tcp", func() { coldSession(coldTCP) }, 59480, 245},
		{"session, tcp then mptcp", func() { coldSession(coldTCP, coldMPTCP) }, 110080, 448},
		{"replay-shaped", coldReplay, 245944, 1708},
	} {
		bytes, objects := coldCost(w.run)
		t.Logf("%s: %d bytes, %d objects (parent: %d, %d)", w.name, bytes, objects, w.maxBytes, w.maxObjects)
		if bytes > w.maxBytes || objects > w.maxObjects {
			t.Errorf("%s: a cold world allocates %d bytes in %d objects, above the parent commit's %d in %d",
				w.name, bytes, objects, w.maxBytes, w.maxObjects)
		}
	}
}
