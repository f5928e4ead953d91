package simnet

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
