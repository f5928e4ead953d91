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
// transfers on one Sim, which is released at the end only when asked.
func coldSession(release bool, cfgs ...core.Config) {
	s := core.NewSession(21, coldCond)
	for _, cfg := range cfgs {
		if r := s.Run(cfg, core.Download, 1<<20); !r.Completed {
			panic("cold session transfer incomplete: " + cfg.Name())
		}
	}
	if release {
		s.Close()
	}
}

var (
	coldTCP   = core.Config{Transport: core.TCP, Iface: "wifi"}
	coldMPTCP = core.Config{Transport: core.MPTCP, Primary: "lte", CC: mptcp.Coupled}
)

// coldReplay is a world shaped like replay.Run's — a dozen short
// request/response connections side by side, MPTCP with a late join on
// each — except that nothing releases it unless asked.
func coldReplay(release bool) {
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
	if release {
		sim.Release()
	}
}

// worldCost returns what building and running one world allocates — from
// nothing, or (recycled) on the arena an identical world released: the
// least of several runs, with the collector off, so that neither a
// collection's bookkeeping nor another test's leftovers count — nor the
// printers fmt allocates at random under the race detector, where
// sync.Pool drops a quarter of what is put back.
func worldCost(world func(release bool), recycled bool) (bytes, objects uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 10; i++ {
		simnet.DropRetired()
		if recycled {
			world(true)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		world(recycled)
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

// TestColdWorldBytes: the slab, the generator fork, the shared subflow
// hooks and the handles on the slab pay in the second world built from
// an arena; this holds them to costing nothing in a first one. A world
// that is never released — every cell of the benchmark's tcp-bulk and
// mptcp-bulk, any caller that drops its Session — must allocate no more
// bytes and no more objects than it did before they existed. The cold
// bounds are the parent commit's numbers (3cacc70, go1.24 linux/amd64),
// measured by this same function. The recycled rows pin what the same
// world costs on the arena of one like it, which is the point of all of
// the above: its fixed frame (Sim, host, links, stacks, hooks) and the
// flow names, with no handle, ring, table or generator among them. They
// are this commit's numbers (3 600 / 66, 4 280 / 76, 5 104 / 133; the
// parent's were 5 656 / 75, 11 040 / 108 and 66 648 / 390) and a few
// per cent, for the race detector's bookkeeping.
func TestColdWorldBytes(t *testing.T) {
	type bound struct{ bytes, objects uint64 }
	for _, w := range []struct {
		name           string
		run            func(release bool)
		cold, recycled bound
	}{
		{"session, tcp", func(r bool) { coldSession(r, coldTCP) }, bound{59464, 244}, bound{4096, 70}},
		{"session, tcp then mptcp", func(r bool) { coldSession(r, coldTCP, coldMPTCP) }, bound{109368, 405}, bound{4864, 80}},
		{"replay-shaped", coldReplay, bound{238384, 1196}, bound{6144, 140}},
	} {
		for _, recycled := range []bool{false, true} {
			max, kind := w.cold, "cold"
			if recycled {
				max, kind = w.recycled, "recycled"
			}
			bytes, objects := worldCost(w.run, recycled)
			t.Logf("%s, %s: %d bytes, %d objects (bound: %d, %d)", w.name, kind, bytes, objects, max.bytes, max.objects)
			if bytes > max.bytes || objects > max.objects {
				t.Errorf("%s: a %s world allocates %d bytes in %d objects, above the bound of %d in %d",
					w.name, kind, bytes, objects, max.bytes, max.objects)
			}
		}
	}
}
