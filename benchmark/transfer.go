package main

import (
	"fmt"
	"time"

	"multinet/internal/experiments/engine"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

// The transfer workloads (tcp-bulk, mptcp-bulk) own the Sim and the
// links of every cell, so they can read each layer's counters and time
// the calls into each layer, which an experiment harness hides.

const (
	transferHorizon = 10 * time.Minute // virtual; bounds one transfer
	flowID          = "xfer"
)

var transferSizes = []int{1 << 20, 4 << 20}

// schedulers lists the MPTCP schedulers in metric order.
var schedulers = []string{mptcp.SchedMinSRTT, mptcp.SchedRoundRobin, mptcp.SchedRedundant, mptcp.SchedHoLAware}

// mpConfig is one MPTCP configuration of the mptcp-bulk grid.
type mpConfig struct {
	primary string
	cc      mptcp.CongestionMode
	sched   int // index into schedulers
}

// mpConfigs is the mptcp-bulk grid: the paper's four configurations at
// the default scheduler, then the other schedulers at decoupled/wifi.
var mpConfigs = []mpConfig{
	{"wifi", mptcp.Coupled, 0}, {"lte", mptcp.Coupled, 0},
	{"wifi", mptcp.Decoupled, 0}, {"lte", mptcp.Decoupled, 0},
	{"wifi", mptcp.Decoupled, 1}, {"wifi", mptcp.Decoupled, 2}, {"wifi", mptcp.Decoupled, 3},
}

// xferCell is one transfer: a condition, a transport configuration, a
// direction and a size.
type xferCell struct {
	cond   phy.Condition
	fixed  bool      // an ideal twin: constant-rate, lossless links
	iface  string    // single-path TCP interface
	mp     *mpConfig // nil for single-path TCP
	upload bool
	size   int
	expect int // bytes the check demands (size, unless a fault is injected)
	seed   int64
}

// simCounts are the simulator-layer counters of one cell or, summed,
// of one pass.
type simCounts struct {
	events        uint64        // simnet events processed
	simTime       time.Duration // virtual time to the last delivered byte
	pktsSent      int           // packets admitted onto any link
	pktsDelivered int
	dropQueue     int
	dropLoss      int
	elided        int // packets carried analytically (fluid mode)
	pktsFixed     int // admitted onto constant-rate links
	pktsVar       int // admitted onto delivery-opportunity links
	segments      int // TCP segments transmitted, both endpoints
	retransmits   int
	rtos          int
	fastRecovers  int
	reinjections  int
	stalls        int
	primaryBytes  int64 // data-direction bytes admitted on the primary path
	dataBytes     int64 // data-direction bytes admitted on all paths

	// Wall-clock splits; not part of the exact counts.
	runWall   time.Duration // inside Sim.Run
	hostWall  time.Duration // inside phy.BuildHost
	wallFixed time.Duration // cells on ideal twins
	wallVar   time.Duration // cells on paper locations
	schedWall [4]time.Duration
	schedSegs [4]int
}

// exact returns the counters that must repeat bit for bit for a seed.
func (c simCounts) exact() simCounts {
	c.runWall, c.hostWall, c.wallFixed, c.wallVar = 0, 0, 0, 0
	c.schedWall = [4]time.Duration{}
	return c
}

func (c *simCounts) add(o simCounts) {
	c.events += o.events
	c.simTime += o.simTime
	c.pktsSent += o.pktsSent
	c.pktsDelivered += o.pktsDelivered
	c.dropQueue += o.dropQueue
	c.dropLoss += o.dropLoss
	c.elided += o.elided
	c.pktsFixed += o.pktsFixed
	c.pktsVar += o.pktsVar
	c.segments += o.segments
	c.retransmits += o.retransmits
	c.rtos += o.rtos
	c.fastRecovers += o.fastRecovers
	c.reinjections += o.reinjections
	c.stalls += o.stalls
	c.primaryBytes += o.primaryBytes
	c.dataBytes += o.dataBytes
	c.runWall += o.runWall
	c.hostWall += o.hostWall
	c.wallFixed += o.wallFixed
	c.wallVar += o.wallVar
	for i := range c.schedWall {
		c.schedWall[i] += o.schedWall[i]
		c.schedSegs[i] += o.schedSegs[i]
	}
}

// locationCondition builds the two-path condition of a paper location;
// ideal strips variability and loss, which turns both paths into
// lossless constant-rate links of the same rate, delay and queue.
func locationCondition(loc phy.Location, ideal bool) phy.Condition {
	wifi, lte := loc.WiFi, loc.LTE
	name := fmt.Sprintf("loc%02d", loc.ID)
	if ideal {
		wifi.Variability, wifi.LossPct = 0, 0
		lte.Variability, lte.LossPct = 0, 0
		name += "-ideal"
	}
	return phy.NewCondition(name, phy.Path{Name: "wifi", Profile: wifi}, phy.Path{Name: "lte", Profile: lte})
}

// tcpCells generates the tcp-bulk grid.
func tcpCells(cfg config) []xferCell {
	var cells []xferCell
	for l := 0; l < cfg.scale.locations; l++ {
		for twin, ideal := range []bool{false, true} {
			cond := locationCondition(phy.Locations[l], ideal)
			for i, iface := range []string{"wifi", "lte"} {
				for d, upload := range []bool{false, true} {
					for s, size := range transferSizes {
						for t := 0; t < cfg.scale.tcpTrials; t++ {
							cells = append(cells, xferCell{
								cond: cond, fixed: ideal, iface: iface, upload: upload, size: size, expect: size,
								seed: engine.SeedFor(cfg.seed, l, twin, i, d, s, t),
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// mptcpCells generates the mptcp-bulk grid.
func mptcpCells(cfg config) []xferCell {
	var cells []xferCell
	for l := 0; l < cfg.scale.locations; l++ {
		cond := locationCondition(phy.Locations[l], false)
		for c := range mpConfigs {
			for d, upload := range []bool{false, true} {
				for s, size := range transferSizes {
					for t := 0; t < cfg.scale.mptcpTrials; t++ {
						cells = append(cells, xferCell{
							cond: cond, mp: &mpConfigs[c], upload: upload, size: size, expect: size,
							seed: engine.SeedFor(cfg.seed, l, c, d, s, t),
						})
					}
				}
			}
		}
	}
	return cells
}

// transferInstance runs a grid of transfer cells.
type transferInstance struct {
	inProcess
	cells []xferCell
}

// warmStride is the share of the grid the warm-up pass in set-up runs:
// every fourth cell touches every configuration and fills the pools.
const warmStride = 4

func setupTCP(cfg config) (instance, error)   { return newTransferInstance(cfg, tcpCells(cfg)) }
func setupMPTCP(cfg config) (instance, error) { return newTransferInstance(cfg, mptcpCells(cfg)) }

func newTransferInstance(cfg config, cells []xferCell) (instance, error) {
	if cfg.fault == faultTruncate {
		cells[0].expect++ // the transfer can never deliver this much
	}
	if _, err := (&transferInstance{cells: everyNth(cells, warmStride)}).pass(1, nil); err != nil {
		return nil, err
	}
	return &transferInstance{cells: cells}, nil
}

type cellOut struct {
	counts simCounts
	ok     bool
}

func (ti *transferInstance) pass(workers int, rec *recorder) (passStats, error) {
	var outs []cellOut
	wall, allocs := timed(func() {
		outs = engine.Sweep(engine.Options{Workers: workers}, len(ti.cells), func(i int) cellOut {
			start := time.Now()
			counts, ok := runTransfer(ti.cells[i], rec)
			if ti.cells[i].fixed {
				counts.wallFixed = time.Since(start)
			} else {
				counts.wallVar = time.Since(start)
			}
			return cellOut{counts: counts, ok: ok}
		})
	})
	st := passStats{ops: len(outs), wall: wall, mallocs: allocs}
	for _, o := range outs {
		st.sim.add(o.counts)
		if !o.ok {
			st.failed++
		}
	}
	return st, nil
}

// runTransfer simulates one transfer to completion and full teardown,
// and checks that it delivered exactly its size and that every link
// conserved its packets.
func runTransfer(cell xferCell, rec *recorder) (simCounts, bool) {
	var counts simCounts
	op := rec.op()
	root := rec.begin(op, 0, "benchmark", "transfer")
	defer root.end()

	sim := simnet.New(cell.seed)
	hostStart := time.Now()
	sp := rec.begin(op, root.id, "phy", "BuildHost")
	host := phy.BuildHost(sim, cell.cond)
	sp.end()
	counts.hostWall = time.Since(hostStart)

	sp = rec.begin(op, root.id, "tcp", "stack-setup")
	client := tcp.NewStack(sim, tcp.ClientSide)
	server := tcp.NewStack(sim, tcp.ServerSide)
	for _, ifc := range host.Ifaces() {
		client.Bind(ifc)
		server.Bind(ifc)
	}
	sp.end()

	var done time.Duration
	finish := func() {
		if done == 0 {
			done = sim.Now()
			sim.Stop()
		}
	}
	var received func() int64
	var tally func()
	if cell.mp == nil {
		received, tally = dialTCP(host, client, server, cell, finish, &counts, rec, op, root.id)
	} else {
		received, tally = dialMPTCP(sim, host, client, server, cell, finish, &counts, rec, op, root.id)
	}

	runStart := time.Now()
	sp = rec.begin(op, root.id, "simnet", "Sim.Run")
	sim.RunUntil(transferHorizon)
	if done > 0 {
		// The transfer is complete; drain the teardown so every link
		// reaches quiescence and its conservation identity is exact.
		sim.RunUntil(transferHorizon)
	}
	sp.end()
	counts.runWall = time.Since(runStart)

	counts.events = sim.Processed()
	counts.simTime = done
	tally()
	ok := done > 0 && received() == int64(cell.expect)
	primary := cell.iface
	if cell.mp != nil {
		primary = cell.mp.primary
	}
	for _, ifc := range host.Ifaces() {
		data := ifc.DownLink()
		if cell.upload {
			data = ifc.UpLink()
		}
		counts.dataBytes += data.Stats().BytesIn
		if ifc.Name == primary {
			counts.primaryBytes += data.Stats().BytesIn
		}
		for _, l := range []netem.Link{ifc.UpLink(), ifc.DownLink()} {
			st := l.Stats()
			counts.pktsSent += st.Sent
			counts.pktsDelivered += st.Delivered
			counts.dropQueue += st.DroppedQueue
			counts.dropLoss += st.DroppedLoss
			counts.elided += st.Elided
			if _, fixed := l.(*netem.FixedLink); fixed {
				counts.pktsFixed += st.Sent
			} else {
				counts.pktsVar += st.Sent
			}
			if st.Sent != st.Delivered+st.LostInFlight {
				ok = false
			}
		}
	}
	if cell.mp != nil {
		counts.schedWall[cell.mp.sched] = counts.runWall
		counts.schedSegs[cell.mp.sched] = counts.segments
	}
	return counts, ok
}

// dialTCP starts a single-path transfer. It returns how many bytes the
// receiver has, and a function that folds the connection counters into
// counts once the simulation has drained.
func dialTCP(host *netem.Host, client, server *tcp.Stack, cell xferCell,
	finish func(), counts *simCounts, rec *recorder, op, parent int64) (func() int64, func()) {
	size := int64(cell.size)
	onRTO := func(*tcp.Conn, int) { counts.rtos++ }
	server.Accept = func(c *tcp.Conn) {
		c.SetCallbacks(tcp.Callbacks{
			OnEstablished: func(c *tcp.Conn) {
				if !cell.upload {
					c.Send(cell.size)
					c.Close()
				}
			},
			OnData: func(c *tcp.Conn, total int64) {
				if cell.upload && total >= size {
					finish()
				}
			},
			OnRTO: onRTO,
		})
	}
	sp := rec.begin(op, parent, "tcp", "Dial")
	conn := client.Dial(host.Iface(cell.iface), flowID, tcp.Config{Callbacks: tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			if cell.upload {
				c.Send(cell.size)
				c.Close()
			}
		},
		OnData: func(c *tcp.Conn, total int64) {
			if !cell.upload && total >= size {
				finish()
				c.Close()
			}
		},
		OnRTO: onRTO,
	}})
	sp.end()
	received := func() int64 {
		if !cell.upload {
			return conn.RecvTotal()
		}
		if peer := server.Conn(flowID); peer != nil {
			return peer.RecvTotal()
		}
		return 0
	}
	tally := func() {
		for _, c := range []*tcp.Conn{conn, server.Conn(flowID)} {
			if c != nil {
				counts.segments += c.SegmentsSent()
				counts.retransmits += c.Retransmits
				counts.fastRecovers += c.FastRecovers
			}
		}
	}
	return received, tally
}

// dialMPTCP starts a multipath transfer; see dialTCP.
func dialMPTCP(sim *simnet.Sim, host *netem.Host, client, server *tcp.Stack, cell xferCell,
	finish func(), counts *simCounts, rec *recorder, op, parent int64) (func() int64, func()) {
	size := int64(cell.size)
	sched := schedulers[cell.mp.sched]
	sp := rec.begin(op, parent, "mptcp", "NewServer")
	mps := mptcp.NewServer(sim, server, mptcp.ServerConfig{CC: cell.mp.cc, Scheduler: sched})
	sp.end()
	mps.OnConn = func(c *mptcp.Conn) {
		if !cell.upload {
			c.Send(cell.size)
			c.Close()
			return
		}
		c.SetCallbacks(mptcp.Callbacks{OnData: func(c *mptcp.Conn, total int64) {
			if total >= size {
				finish()
			}
		}})
	}
	sp = rec.begin(op, parent, "mptcp", "Dial")
	conn := mptcp.Dial(sim, client, host, mptcp.Config{
		ConnID: flowID, Primary: cell.mp.primary, CC: cell.mp.cc, Scheduler: sched,
	}, mptcp.Callbacks{
		OnEstablished: func(c *mptcp.Conn) {
			if cell.upload {
				c.Send(cell.size)
				c.Close()
			}
		},
		OnData: func(c *mptcp.Conn, total int64) {
			if !cell.upload && total >= size {
				finish()
				c.Close()
			}
		},
	})
	sp.end()
	received := func() int64 {
		if !cell.upload {
			return conn.RecvTotal()
		}
		if peer := mps.Conn(flowID); peer != nil {
			return peer.RecvTotal()
		}
		return 0
	}
	tally := func() {
		for _, c := range []*mptcp.Conn{conn, mps.Conn(flowID)} {
			if c == nil {
				continue
			}
			counts.reinjections += c.Reinjections
			counts.stalls += c.StallCount
			for _, sf := range c.Subflows() {
				counts.segments += sf.TCP.SegmentsSent()
				counts.retransmits += sf.TCP.Retransmits
				counts.fastRecovers += sf.TCP.FastRecovers
			}
		}
	}
	return received, tally
}
