package simnet

import "time"

// DropRetired empties the pool of retired arenas, so the next New builds
// its memory from nothing, as the first Sim of a process does.
func DropRetired() {
	retired.Lock()
	retired.arenas = nil
	retired.Unlock()
}

// Retired returns the number of parked arenas.
func Retired() int {
	retired.Lock()
	defer retired.Unlock()
	return len(retired.arenas)
}

// After runs fn after delay d (relative to the current virtual time).
func (s *Sim) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now+d, fn)
}

// Seed returns the seed the simulator was constructed with.
func (s *Sim) Seed() int64 { return s.seed }

// When returns the virtual time a pending timer fires at, or 0 once it
// has fired or been cancelled (its event may already be reused).
func (t Timer) When() time.Duration {
	if !t.Active() {
		return 0
	}
	return t.ev.at
}

// held returns the entries the kernel holds: timers on the heap and
// arrivals on the lanes. A stopped timer is not among them.
func (s *Sim) held() int {
	n := len(s.heap)
	for _, l := range s.lanes {
		n += l.n
	}
	return n
}
