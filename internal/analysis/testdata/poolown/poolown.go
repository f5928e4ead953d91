// Package pooltest is the poolown analyzer's golden package. It
// imports the real recycled types (netem.Packet, tcp.Segment) and the
// simulator that owns their free lists, and walks
// through the single-owner lifecycle: double release, use after
// release, and unmarked escapes must be flagged; //multinet:owns
// transfers and //lint:allow exceptions stay silent.
package pooltest

import (
	"time"

	"multinet/internal/core"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

var sim = simnet.New(1)

func doubleRelease() {
	p := netem.NewPacket(sim)
	netem.ReleasePacket(p)
	netem.ReleasePacket(p) // want `released twice`
}

func useAfterRelease() int {
	s := tcp.NewSegment(sim)
	s.Recycle()
	return s.PayloadLen // want `use of s after release`
}

func useAfterPut(l *simnet.FreeList[netem.Packet]) int {
	p := l.Get()
	l.Put(p)
	return p.Size // want `use of p after release`
}

func useAfterSimRelease() time.Duration {
	world := simnet.New(2)
	world.RunUntil(time.Second)
	world.Release()
	world.RunFor(time.Second) // want `use of world after release`
	world.Release()           // want `released twice`
	return 0
}

func useAfterSessionClose(cond phy.Condition) core.Result {
	s := core.NewSession(3, cond)
	first := s.Run(core.Config{Iface: "wifi"}, core.Download, 1<<10)
	s.Close()
	_ = s.Run(core.Config{Iface: "lte"}, core.Download, 1<<10) // want `use of s after release`
	return first
}

func deferredRelease() int {
	world := simnet.New(4)
	defer world.Release() // runs after everything below
	return world.Run()
}

func releasePerIteration(conds []phy.Condition) {
	for _, cond := range conds {
		s := core.NewSession(5, cond)
		s.Run(core.Config{Iface: "wifi"}, core.Download, 1<<10)
		s.Close() // the next iteration declares a new s
	}
}

func branchRelease(p *netem.Packet, drop bool) {
	if drop {
		netem.ReleasePacket(p)
		return
	}
	p.Size = 1 // the other branch still owns p
	netem.ReleasePacket(p)
}

func reacquire() {
	p := netem.NewPacket(sim)
	netem.ReleasePacket(p)
	p = netem.NewPacket(sim) // reassignment resurrects the variable
	p.Size = 1
	netem.ReleasePacket(p)
}

func allowedDoubleRelease() {
	p := netem.NewPacket(sim)
	netem.ReleasePacket(p)
	//lint:allow poolown golden proof that an allow annotation suppresses
	netem.ReleasePacket(p)
}

type queue struct {
	items []*netem.Packet
	head  *tcp.Segment
	owned []*netem.Packet //multinet:owns — the queue takes ownership at push
}

func push(q *queue, p *netem.Packet) {
	q.items = append(q.items, p) // want `appended to q.items`
	q.owned = append(q.owned, p) // marked field: deliberate transfer
}

func stash(q *queue, s *tcp.Segment) {
	q.head = s // want `escapes into field q.head`
}

func stashMarked(q *queue, s *tcp.Segment) {
	q.head = s //multinet:owns — golden line-marker transfer
}

var lastPacket *netem.Packet

var parked *netem.Packet //multinet:owns — golden package-level sink

func keep(p *netem.Packet) {
	lastPacket = p // want `escapes into package-level variable lastPacket`
	parked = p     // marked variable: deliberate transfer
}

func permute(q *queue, i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i] // permutation, not a transfer
}

// A slice carved from a Sim's slab is the world's memory on loan.

type ring struct {
	Buf []int // exported: anyone holding the ring reaches the slab's memory
	buf []int
	mem *simnet.Slab[int]
}

func slabIntoFields(w *simnet.Sim, r *ring) {
	r.Buf = simnet.SlabOf[int](w).Make(8) // want `stored in exported field r.Buf`
	r.buf = simnet.SlabOf[int](w).Make(8) // unexported: stays inside the world
	b := r.mem.Grow(r.buf, 32)
	r.Buf = append(b[:0], 1) // want `stored in exported field r.Buf`
	r.Buf = make([]int, 8)   // the caller's own memory
}

func SlabReturned(w *simnet.Sim) []int {
	b := simnet.SlabOf[int](w).Make(8)
	return b // want `slab slice b returned from an exported function`
}

func SlabCopyReturned(w *simnet.Sim) []int {
	b := simnet.SlabOf[int](w).Make(8)
	return append([]int(nil), b...) // a copy is the caller's
}

func slabReturnedInside(w *simnet.Sim) []int {
	return simnet.SlabOf[int](w).Make(8) // unexported: the world's own plumbing
}

func slabAfterRelease() int {
	world := simnet.New(6)
	b := simnet.SlabOf[int](world).Make(4)
	b[0] = 1
	world.Release()
	return b[0] // want `use of b after release of world`
}

func slabAfterSessionClose(cond phy.Condition) int {
	s := core.NewSession(7, cond)
	sl := simnet.SlabOf[int](s.Sim)
	b := sl.Grow(nil, 4)
	n := len(b) // the session is still open
	s.Close()
	return n + cap(b) // want `use of b after release of s`
}

func slabOfAnotherWorld(kept []int) int {
	a, b := simnet.New(8), simnet.New(9)
	mine := simnet.SlabOf[int](b).Make(4)
	a.Release()
	n := len(mine) // a's release does not touch b's slab
	mine = kept    // no longer a carved slice
	b.Release()
	return n + len(mine)
}

// A connection handle is carved from the slab too: it may be returned
// and stored, but it is dead at its world's release.

func handleAfterRelease() int64 {
	world := simnet.New(10)
	c := tcp.NewConn(world, nil, netem.Up, "f", tcp.Config{})
	n := c.RecvTotal() // the world is still running
	world.Release()
	return n + c.RecvTotal() // want `use of c after release of world`
}

func handleAfterSessionClose(cond phy.Condition) bool {
	s := core.NewSession(11, cond) // Close is the World's, promoted
	c := mptcp.Dial(s.Sim, s.Client, s.Host, mptcp.Config{ConnID: "c", Primary: "wifi"}, mptcp.Callbacks{})
	sf := c.Subflows()[0]
	tc := c.Subflows()[0].TCP
	s.Close()
	_ = c.RecvTotal()          // want `use of c after release of s`
	_ = tc.RecvTotal()         // want `use of tc after release of s`
	return sf.Name() == "wifi" // want `use of sf after release of s`
}

// A flow record is a handle of the world its Flows was given.

func flowAfterWorldClose(cond phy.Condition) time.Duration {
	w := core.NewWorld(16, cond)
	fs := core.NewFlows(w)
	fs.Open(1)
	f := fs.Flow(0)
	*f = core.Flow{Name: "f", Response: 1 << 10, Config: core.Config{Transport: core.TCP, Iface: "wifi"}}
	fs.Start(f)
	w.Sim.RunFor(time.Second)
	done := f.Done // the world is still running
	w.Close()
	fs.Open(1)           // want `use of fs after release of w`
	return done + f.Done // want `use of f after release of w`
}

func useAfterWorldClose(cond phy.Condition) int64 {
	w := core.NewWorld(14, cond)
	c := mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{ConnID: "c", Primary: "wifi"}, mptcp.Callbacks{})
	w.Sim.RunFor(time.Second)
	w.Close()
	w.Sim.RunFor(time.Second) // want `use of w after release`
	w.Close()                 // want `released twice`
	return c.RecvTotal()      // want `use of c after release of w`
}

func worldClosedLater(cond phy.Condition) int64 {
	w := core.NewWorld(15, cond)
	defer w.Close() // runs after the result is read
	c := mptcp.Dial(w.Sim, w.Client, w.Host, mptcp.Config{ConnID: "c", Primary: "wifi"}, mptcp.Callbacks{})
	w.Sim.RunFor(time.Second)
	return c.RecvTotal()
}

func HandleReturned(w *simnet.Sim, stack *tcp.Stack, host *netem.Host) *mptcp.Conn {
	c := mptcp.Dial(w, stack, host, mptcp.Config{ConnID: "c", Primary: "wifi"}, mptcp.Callbacks{})
	return c // a handle is meant to reach the caller
}

func handleOfAnotherWorld() int64 {
	a, b := simnet.New(12), simnet.New(13)
	c := tcp.NewConn(b, nil, netem.Up, "f", tcp.Config{})
	a.Release()
	n := c.RecvTotal() // a's release does not touch b's handles
	b.Release()
	return n
}
