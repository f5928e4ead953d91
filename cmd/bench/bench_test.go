package main

import "testing"

// BenchmarkGate runs the gate's list under go test, one sub-benchmark
// per baseline entry under the entry's name, so go test's own flags
// (-benchtime, -count, -cpuprofile, -memprofile) apply to any part of it:
//
//	go test ./cmd/bench -run '^$' -bench 'Gate/sched/' -cpuprofile cpu.out
func BenchmarkGate(b *testing.B) {
	for _, bm := range gateBenchmarks() {
		b.Run(bm.name, bm.fn)
	}
}
