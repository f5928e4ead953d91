package simnet_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
	"multinet/internal/simnet"
)

// coldCond and coldReplayCond are built once: a condition is its
// caller's, not the world's.
var (
	coldCond       = phy.LocationByID(3).Condition()
	coldReplayCond = phy.LocationByID(16).Condition()
)

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
	w := core.NewWorld(22, coldReplayCond)
	sim, client, host := w.Sim, w.Client, w.Host
	const request, response, flows = 600, 30 << 10, 12
	srv := mptcp.NewServer(sim, w.Server, mptcp.ServerConfig{CC: mptcp.Coupled})
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
		id := "flow-" + strconv.Itoa(i) // not fmt: see worldCost
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
		w.Close()
	}
}

// worldCost returns what building and running one world allocates — from
// nothing, or (recycled) on the arena an identical world released: the
// least of several runs, with the collector off, so that neither a
// collection's bookkeeping nor another test's leftovers count. The
// worlds name their flows without fmt, whose printers come from a
// sync.Pool that under the race detector drops a quarter of what is put
// back: a printer allocated at random moved the recycled replay row by
// 224 B from run to run.
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
// bytes and no more objects than it did before they existed. The
// recycled rows pin what the same world costs on the arena of one like
// it, which is the point of all of the above: its fixed frame (Sim,
// host, links, stacks, hooks) and the flow names, with no handle, ring,
// table or generator among them. The bounds are the numbers this
// function measures under the race detector (go1.24 linux/amd64), which
// are a little above the plain ones, rounded up by well under 1 % for
// the cold rows and by up to a tenth for the small recycled ones, whose
// race-mode minimum moves by about that much from run to run. The
// session rows hold a transfer to one record carved from the slab,
// driven by shared hooks: no closure and no map entry per transfer. A
// cold row pays for a new arena, whose timer heap keeps its first 64
// entries (1.5 KB) built in: every world here fits in them (the
// replay-shaped one holds up to 45 timers), so none grows the heap.
func TestColdWorldBytes(t *testing.T) {
	type bound struct{ bytes, objects uint64 }
	for _, w := range []struct {
		name           string
		run            func(release bool)
		cold, recycled bound
	}{
		{"session, tcp", func(r bool) { coldSession(r, coldTCP) }, bound{42504, 129}, bound{2608, 43}},
		{"session, tcp then mptcp", func(r bool) { coldSession(r, coldTCP, coldMPTCP) }, bound{85064, 204}, bound{2672, 46}},
		{"replay-shaped", coldReplay, bound{175304, 622}, bound{4160, 100}},
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
