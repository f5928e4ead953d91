package engine

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerCount returns the effective sweep pool size for o.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep runs fn(i) for i in [0, n) across o's worker pool and returns
// the results in index order. Each call must be independent of the
// others (in this repository every trial builds its own simnet.Sim, so
// that holds by construction); because results are placed by index,
// the returned slice is identical at any worker count.
//
// A panicking cell panics Sweep on the caller's goroutine with the
// value of the lowest-index cell that panicked, at any worker count:
// the pool stops handing out cells, lets those already started finish,
// and Sweep prints that cell's stack to stderr and re-panics. Cells are
// handed out in index order, so that is the cell a serial run panics
// on.
func Sweep[T any](o Options, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers := o.WorkerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstCell = n // lowest index that panicked
		first     *cellPanic
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// This IS the engine worker pool the determinism analyzer
		// funnels all other engine code into.
		go func() { //lint:allow determinism the Sweep worker pool itself; results are placed by index

			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if p := runCell(out, i, fn); p != nil {
					mu.Lock()
					if i < firstCell {
						firstCell, first = i, p
					}
					mu.Unlock()
					next.Store(int64(n))
					return
				}
				// A worker never blocks, so without a scheduling point a
				// collection that starts mid-pass waits for sysmon's 10 ms
				// preemption to get a P for its mark worker, and every
				// pointer store pays the write barrier meanwhile. Passing
				// through the scheduler between cells ends the mark phase
				// within one cell.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		// The re-panic's trace shows only this goroutine, so the faulting
		// line of the cell would otherwise be lost.
		fmt.Fprintf(os.Stderr, "engine: sweep cell %d panicked: %v\n\n%s\n", firstCell, first.val, first.stack)
		panic(first.val)
	}
	return out
}

// cellPanic is the value a cell panicked with and the stack it
// panicked on.
type cellPanic struct {
	val   any
	stack []byte
}

// runCell stores fn(i) in out[i], or reports what fn(i) panicked with.
func runCell[T any](out []T, i int, fn func(i int) T) (p *cellPanic) {
	panicked := true
	defer func() {
		if panicked {
			p = &cellPanic{val: recover(), stack: debug.Stack()}
		}
	}()
	out[i] = fn(i)
	panicked = false
	return nil
}
