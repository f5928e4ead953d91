package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The sandbox this benchmark runs on shares its processor and caches
// with other tenants, and its speed drifts by 10 to 30 % over minutes:
// ten runs of one workload taken half an hour apart differed by more
// than any bound this benchmark could set (README.md has the numbers).
// So every run also times a fixed kernel that touches none of the
// repository's code, between its passes, and multiplies each time it
// reports by
//
//	reference kernel time ÷ mean kernel time beside the passes it came from.
//
// A run on a slow stretch of the host reports the times it would have
// had at the reference speed. The kernel mixes register arithmetic
// with reads and writes scattered over 4 MB, twice the L2 cache, which
// is roughly how the simulator's event loop and the HTTP path load the
// machine; a pure arithmetic loop tracked the slow stretches only half
// as well.

const (
	calBufBytes = 4 << 20
	// calRefNS is the kernel's time per iteration on the box the bounds
	// were measured on, when quiet. It only fixes the unit: a different
	// constant scales every run of every commit alike.
	calRefNS = 6.25
)

// hostSpeed collects kernel timings over one run: on one goroutine
// beside the serial passes, and on nproc goroutines at once beside the
// parallel passes, because a neighbour on the sibling hardware thread
// slows two busy cores differently from one.
type hostSpeed struct {
	iterations       int      // kernel iterations per sample
	bufs             [][]byte // one per goroutine of the parallel kernel
	serial, parallel []float64
}

// newHostSpeed maps the kernel's buffers outside the Go heap, so that
// they do not move the garbage collector's pacing of the code under
// test.
func newHostSpeed(sc scale, nproc int) (*hostSpeed, error) {
	h := &hostSpeed{iterations: sc.calIterations}
	for i := 0; i < nproc; i++ {
		buf, err := syscall.Mmap(-1, 0, calBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("mapping the calibration buffer: %w", err)
		}
		h.bufs = append(h.bufs, buf)
	}
	h.sampleParallel() // faults the pages in; not kept
	h.parallel = h.parallel[:0]
	return h, nil
}

func (h *hostSpeed) close() {
	for _, buf := range h.bufs {
		syscall.Munmap(buf)
	}
}

// settle finishes any garbage collection the last pass left running,
// which would otherwise compete with the kernel and not with the next
// pass.
func settle() time.Time {
	runtime.GC()
	return time.Now()
}

// sampleSerial times the kernel on one goroutine.
func (h *hostSpeed) sampleSerial() {
	t0 := settle()
	kernel(h.bufs[0], h.iterations)
	h.serial = append(h.serial, time.Since(t0).Seconds())
}

// sampleParallel times the kernel on nproc goroutines at once.
func (h *hostSpeed) sampleParallel() {
	t0 := settle()
	var wg sync.WaitGroup
	for _, buf := range h.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(buf, h.iterations)
		}()
	}
	wg.Wait()
	h.parallel = append(h.parallel, time.Since(t0).Seconds())
}

func kernel(buf []byte, iterations int) {
	const mask = calBufBytes - 1
	x := uint64(88172645463325252)
	var sum byte
	for i := 0; i < iterations; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		buf[j] += byte(x)
		sum += buf[(j*7)&mask]
	}
	buf[0] = sum
}

// factor is what times measured beside the given samples are
// multiplied by.
func (h *hostSpeed) factor(samples []float64) float64 {
	total := 0.0
	for _, s := range samples {
		total += s
	}
	return ratio(calRefNS*1e-9*float64(h.iterations*len(samples)), total)
}

// correct applies the serial factor to every metric that is a time or
// a rate, going by its unit; traced runs, whose ladder is serial, use
// it.
func (h *hostSpeed) correct(metrics map[string]metric) {
	f := h.factor(h.serial)
	for name, m := range metrics {
		switch m.Unit {
		case "s", "ms", "us", "ns":
			m.Value *= f
		case "1/s":
			m.Value /= f
		}
		metrics[name] = m
	}
}
