package simnet

import "math/bits"

// The timer queue is a hierarchical timing wheel (Varghese & Lauck),
// chosen over a binary heap because every kernel operation on timers —
// schedule, cancel, fire — is amortised O(1) instead of O(log pending).
// Packets in flight are not on it: they wait on their links' lanes
// (lane.go), and Run merges the due bucket below with the lanes' heads.
//
//   - Virtual time is quantised into ticks of 2^tickShift ns (524.288 µs).
//     Level 0 has one slot per tick; each higher level's slots are 256×
//     coarser, so six levels cover the full time.Duration range.
//   - An event scheduled delta ticks ahead lives at the lowest level
//     whose window contains delta, in the slot indexed by its own tick
//     bits at that granularity. Slots are unordered intrusive singly
//     linked lists (event.next); per-level occupancy bitmaps make
//     "next non-empty slot" a handful of word scans.
//   - Firing drains the earliest non-empty level-0 slot into the due
//     bucket, sorted by (at, seq) — the same total order the old heap
//     popped in, which the output goldens depend on. All events of one
//     tick are dispatched from the bucket without touching the wheel
//     again, so a burst of same-instant events (ACK clocking, promotion
//     queue flushes) pays one wheel touch.
//   - When the earliest work sits in a higher level, the wheel crosses
//     to that slot's start tick and cascades it: each event is
//     re-placed relative to the new position, landing at a strictly
//     lower level. An event cascades at most numLevels-1 times, so the
//     amortised cost per event stays constant.
//
// Two invariants make placement and lookup unambiguous:
//
//  1. Every wheel entry's ring distance at its level — its slot count
//     ahead of the wheel position — stays within [1, 255]. Placement
//     enforces the upper bound by bumping an event whose distance would
//     be a full wrap (256) one level up, where its distance becomes 1;
//     the advance loop preserves the lower bound because the wheel
//     never moves past an occupied slot's start (see 2). Distinct
//     blocks therefore always map to distinct slots and a slot index
//     fully determines its events' tick prefix.
//  2. Crossing to a tick S (because a higher-level slot starting at S
//     is due) immediately cascades *every* level's slot for S, highest
//     level first, and drains the level-0 slot for S itself: those are
//     exactly the slots whose ring distance would otherwise reach 0 and
//     become invisible to the scans. The earlier-block check in
//     fillBucket guarantees a drain target's blocks carry no occupied
//     higher-level slots, so advancing to it is safe.
//
// Slot lists are doubly linked (event.prevp is the address of whichever
// pointer currently points at the event), so Timer.Stop unlinks and
// recycles a wheel-resident event in O(1) — cancelled events never
// accumulate and a schedule-then-cancel workload reuses the same handful
// of event structs forever. Events in the due bucket cannot be unlinked
// from the middle of a slice; they are marked and reclaimed when their
// position pops, which bounds them by one tick's batch.
//
// A pending event may sit in a slot chosen for an earlier deadline than
// the one it now carries: RearmArg pushes a wheel-resident event's
// deadline out by rewriting it in place (the per-ACK retransmission-
// timer pattern). Such a slot is stale but never late, so nothing is
// missed: whichever drain reaches it — cascade or level-0 — files the
// event again by its current deadline, and fillBucket moves on when a
// drained slot turns out to hold nothing for its tick.
const (
	// tickShift is measured, not argued (DESIGN.md "The timing-wheel
	// kernel" has the table over 16…20 on the report sweep). The wheel
	// holds timers only — a handful pending per world, 2–7 at most
	// schedules — so at any tick in that range 96 % of buckets hold a
	// single event and the bucket sort costs nothing; what the tick
	// decides is how many timers are filed beyond level 0 and pay a
	// cascade. 2^16 and 2^17 were slower end to end, 2^18 to 2^20 within
	// noise of one another, and at 2^19 level 0 spans 134 ms.
	tickShift     = 19
	levelBits     = 8
	slotsPerLevel = 1 << levelBits
	slotMask      = slotsPerLevel - 1
	wordsPerLevel = slotsPerLevel / 64
	// numLevels must satisfy tickShift + levelBits*numLevels >= 63 so
	// the top level's window covers any scheduling horizon.
	numLevels = 6

	// noTick marks "no candidate" in the advance loop.
	noTick = int64(^uint64(0) >> 1)

	// dueCap is the due bucket's built-in capacity (see Sim.dueBuf).
	dueCap = 16
)

// wheel is the tiered slot store. tick is the wheel's position: every
// slot at or before it has been drained or cascaded, and the due bucket
// holds (what remains of) the batch for tick itself.
type wheel struct {
	slot [numLevels][slotsPerLevel]*event //multinet:owns — intrusive per-slot event lists
	occ  [numLevels][wordsPerLevel]uint64
	// count tracks entries per level so the advance loop skips empty
	// levels without touching their bitmaps.
	count [numLevels]int
	tick  int64
	// hi caches nextHigher — the earliest start tick over the occupied
	// slots of levels 1 and up, noTick when there are none — or is
	// hiUnknown. A slot's start tick is fixed when it is filed into and
	// does not move with the wheel, so the minimum only changes when a
	// coarse slot gains its first event (place lowers hi) or loses its
	// last (unlink and crossTo forget it); between those fillBucket scans
	// level 0 alone.
	hi int64
	// lo is a lower bound on the tick of every wheel entry — noTick when
	// the wheel is empty — so that a fill limited to an earlier tick (the
	// next link arrival's, see Sim.run) returns without scanning: place
	// lowers it, and a fill that finds nothing up to its limit raises it
	// to the earliest tick it saw.
	lo int64
	// audit makes every cached answer prove itself against the full scan
	// (set by the differential and fuzz tests).
	audit bool
}

// hiUnknown marks wheel.hi as needing a rescan. It compares below every
// tick, so place's "earlier than hi?" never lowers an unknown hi.
const hiUnknown = int64(-1)

// place files a pending event into the due bucket (same tick) or the
// slot its timestamp selects. Caller guarantees ev.at >= Sim.now, which
// with the run loop's bookkeeping implies tick(ev) >= wheel.tick.
//
//multinet:hotpath
func (a *arena) place(ev *event) {
	tick := int64(ev.at) >> tickShift
	delta := tick - a.wheel.tick
	if delta <= 0 {
		// Current tick: the slot for it is already drained, so the event
		// joins the due bucket at its (at, seq) position.
		a.dueInsert(ev)
		return
	}
	level := (bits.Len64(uint64(delta)) - 1) / levelBits
	shift := levelBits * level
	if (tick>>shift)-(a.wheel.tick>>shift) == slotsPerLevel {
		// A full-wrap distance would alias the wheel's own position; one
		// level up the distance becomes exactly 1 (invariant 1).
		level++
		shift += levelBits
	}
	if tick < a.wheel.lo {
		a.wheel.lo = tick
	}
	idx := int(tick>>shift) & slotMask
	head := a.wheel.slot[level][idx]
	ev.next = head
	if head != nil {
		head.prevp = &ev.next
	}
	ev.prevp = &a.wheel.slot[level][idx]
	ev.lvl = uint8(level)
	ev.idx = uint8(idx)
	a.wheel.slot[level][idx] = ev
	a.wheel.occ[level][idx>>6] |= 1 << (idx & 63)
	a.wheel.count[level]++
	if level > 0 {
		if start := tick >> shift << shift; start < a.wheel.hi {
			a.wheel.hi = start
		}
	}
}

// unlink removes a wheel-resident event from its slot in O(1),
// clearing the occupancy bit when the slot empties.
//
//multinet:hotpath
func (a *arena) unlink(ev *event) {
	next := ev.next
	*ev.prevp = next
	if next != nil {
		next.prevp = ev.prevp
	}
	level, idx := int(ev.lvl), int(ev.idx)
	if a.wheel.slot[level][idx] == nil {
		a.wheel.occ[level][idx>>6] &^= 1 << (idx & 63)
		if level > 0 {
			a.wheel.hi = hiUnknown // the emptied slot may have been the earliest
		}
	}
	a.wheel.count[level]--
	ev.next = nil
	ev.prevp = nil
}

// dueInsert adds ev to the due bucket at its (at, seq) position.
// During fillBucket the bucket may be transiently unordered (the final
// sortDue fixes any interim position); for Schedule-time calls the
// bucket is sorted and the binary search lands exactly.
//
//multinet:hotpath
func (a *arena) dueInsert(ev *event) {
	lo, hi := a.dueHead, len(a.due)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := a.due[mid]
		if e.at < ev.at || (e.at == ev.at && e.seq < ev.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ev.prevp = nil
	a.due = append(a.due, nil) //lint:allow hotpath due-bucket capacity is amortised across ticks
	copy(a.due[lo+1:], a.due[lo:])
	a.due[lo] = ev
}

// takeSlot detaches and returns a slot's list, clearing its occupancy.
// The callers re-home every event immediately (place, due bucket), so
// stale prevp pointers in the detached list are never observable.
func (a *arena) takeSlot(level, idx int) *event {
	head := a.wheel.slot[level][idx]
	a.wheel.slot[level][idx] = nil
	a.wheel.occ[level][idx>>6] &^= 1 << (idx & 63)
	return head
}

// occupied reports whether a slot holds any entries.
func (a *arena) occupied(level, idx int) bool {
	return a.wheel.occ[level][idx>>6]&(1<<(idx&63)) != 0
}

// scan returns the ring distance (1..255) from pos to the first
// occupied slot at level, or -1 if none: by invariant 1 no live entry
// sits at distance 0 or 256, so the position's own bit is never valid.
func (a *arena) scan(level, pos int) int {
	if a.wheel.count[level] == 0 {
		return -1
	}
	occ := &a.wheel.occ[level]
	for b := pos + 1; b < slotsPerLevel; {
		if w := occ[b>>6] >> (b & 63); w != 0 {
			return b + bits.TrailingZeros64(w) - pos
		}
		b = (b>>6 + 1) << 6
	}
	for b := 0; b < pos; b = (b>>6 + 1) << 6 {
		if w := occ[b>>6]; w != 0 {
			r := b + bits.TrailingZeros64(w)
			if r < pos {
				return r + slotsPerLevel - pos
			}
			break // the set bit is at or past pos: covered above / invalid
		}
	}
	return -1
}

// nextLevel0 finds the earliest occupied level-0 slot: its absolute
// tick and slot index, or noTick.
func (a *arena) nextLevel0() (int64, int) {
	pos := int(a.wheel.tick) & slotMask
	d := a.scan(0, pos)
	if d < 0 {
		return noTick, 0
	}
	return a.wheel.tick + int64(d), (pos + d) & slotMask
}

// nextHigher returns the earliest start tick over all higher-level
// occupied slots, or noTick: the cached answer when there is one.
func (a *arena) nextHigher() int64 {
	w := &a.wheel
	if w.hi == hiUnknown {
		w.hi = a.scanHigher()
	} else if w.audit && w.hi != a.scanHigher() {
		panic("simnet: cached nextHigher disagrees with a rescan of the wheel")
	}
	return w.hi
}

// scanHigher computes nextHigher from the occupancy bitmaps.
func (a *arena) scanHigher() int64 {
	best := noTick
	for level := 1; level < numLevels; level++ {
		shift := uint(levelBits * level)
		pos := int(a.wheel.tick>>shift) & slotMask
		d := a.scan(level, pos)
		if d < 0 {
			continue
		}
		start := ((a.wheel.tick >> shift) + int64(d)) << shift
		if start < best {
			best = start
		}
	}
	return best
}

// crossTo advances the wheel to tick start — the start of at least one
// occupied higher-level slot — and empties every slot whose ring
// distance just reached 0 (invariant 2): each level's slot for start is
// cascaded from the highest level down (re-placed events land strictly
// lower, or in the due bucket when they belong to start itself), and
// the level-0 slot for start drains into the due bucket directly.
func (a *arena) crossTo(start int64) {
	a.wheel.tick = start
	a.wheel.hi = hiUnknown // the slots taken below include the earliest
	for level := numLevels - 1; level >= 1; level-- {
		idx := int(start>>(levelBits*level)) & slotMask
		if !a.occupied(level, idx) {
			continue
		}
		for ev := a.takeSlot(level, idx); ev != nil; {
			next := ev.next
			ev.next = nil
			a.wheel.count[level]--
			a.place(ev)
			ev = next
		}
	}
	idx := int(start) & slotMask
	if a.occupied(0, idx) {
		a.drainSlot0(idx)
	}
}

// drainSlot0 appends a level-0 slot's events to the due bucket
// (unsorted; fillBucket sorts before dispatch). The wheel is positioned
// at the slot's tick. An event RearmArg pushed out while it sat here no
// longer belongs to this tick: it is re-filed by its current deadline
// instead, so the slot may contribute nothing to the bucket.
func (a *arena) drainSlot0(idx int) {
	for ev := a.takeSlot(0, idx); ev != nil; {
		next := ev.next
		ev.next = nil
		ev.prevp = nil
		a.wheel.count[0]--
		if int64(ev.at)>>tickShift > a.wheel.tick {
			a.place(ev)
		} else {
			a.due = append(a.due, ev)
		}
		ev = next
	}
}

// dropPending recycles every pending event unfired — wheel slots and
// what is left of the due bucket — and returns the wheel to tick zero.
func (a *arena) dropPending() {
	w := &a.wheel
	for level := range w.count {
		if w.count[level] == 0 {
			continue
		}
		for word, occ := range w.occ[level] {
			for ; occ != 0; occ &= occ - 1 {
				idx := word<<6 + bits.TrailingZeros64(occ)
				for ev := w.slot[level][idx]; ev != nil; {
					next := ev.next
					a.recycle(ev)
					ev = next
				}
				w.slot[level][idx] = nil
			}
			w.occ[level][word] = 0
		}
		w.count[level] = 0
	}
	w.tick = 0
	w.hi = noTick
	w.lo = noTick
	for _, ev := range a.due[a.dueHead:] {
		a.recycle(ev)
	}
	clear(a.due)
	a.due = a.due[:0]
	a.dueHead = 0
}

// fillBucket advances the wheel until the due bucket holds the next
// batch of live events, ignoring candidates past untilTick. It reports
// whether the bucket has events to dispatch.
//
//multinet:hotpath
func (a *arena) fillBucket(untilTick int64) bool {
	if a.dueHead < len(a.due) {
		return true
	}
	if a.wheel.lo > untilTick {
		return false
	}
	for {
		t0, idx0 := a.nextLevel0()
		tHi := a.nextHigher()
		next := t0
		if tHi < next {
			next = tHi
		}
		if a.dueHead < len(a.due) && next > a.wheel.tick {
			// Crossings filled the bucket for the current tick and no slot
			// can still contribute to it.
			a.sortDue()
			return true
		}
		if next == noTick || next > untilTick {
			a.wheel.lo = next // every entry is at or after it
			return false
		}
		if tHi <= t0 {
			// A coarse slot starts at or before the level-0 candidate: its
			// events may precede t0, so the wheel must cross there first.
			a.crossTo(tHi)
			continue
		}
		a.wheel.tick = t0
		a.drainSlot0(idx0)
		if a.dueHead < len(a.due) {
			a.sortDue()
			return true
		}
		// The slot held only re-armed events, all re-filed further out.
	}
}

// sortDue orders the due bucket by (at, seq). Slot lists are unordered,
// so this runs once per filled bucket; a freshly drained bucket is the
// whole slice (dueHead is 0).
func (a *arena) sortDue() {
	due := a.due[a.dueHead:] //multinet:owns — alias of the due bucket; sorting permutes in place
	// Insertion sort: protocol workloads keep one tick's bucket small
	// (at most 8 events on the report sweep); the branch below guards
	// the pathological burst.
	if len(due) <= 24 {
		for i := 1; i < len(due); i++ {
			ev := due[i]
			j := i - 1
			for j >= 0 && (due[j].at > ev.at || (due[j].at == ev.at && due[j].seq > ev.seq)) {
				due[j+1] = due[j]
				j--
			}
			due[j+1] = ev
		}
		return
	}
	heapSortDue(due)
}

// heapSortDue is the allocation-free large-bucket fallback.
func heapSortDue(due []*event) {
	for i := len(due)/2 - 1; i >= 0; i-- {
		siftDue(due, i, len(due))
	}
	for n := len(due) - 1; n > 0; n-- {
		due[0], due[n] = due[n], due[0]
		siftDue(due, 0, n)
	}
}

func siftDue(due []*event, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && evLess(due[l], due[r]) {
			l = r
		}
		if !evLess(due[i], due[l]) {
			return
		}
		due[i], due[l] = due[l], due[i]
		i = l
	}
}

func evLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
