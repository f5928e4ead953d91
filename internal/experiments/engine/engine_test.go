package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

// unregister removes test fixtures so the global registry is clean for
// same-process re-runs (go test -count=N).
func unregister(t *testing.T, names ...string) {
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		for _, n := range names {
			delete(reg, n)
		}
	})
}

func TestRegisterLookupOrder(t *testing.T) {
	unregister(t, "zz-test-a", "zz-test-b")
	mk := func(s string) func(Options) fmt.Stringer {
		return func(Options) fmt.Stringer { return stringerFunc(s) }
	}
	Register(Meta{Name: "zz-test-b", Title: "B", Order: 2}, mk("b"))
	Register(Meta{Name: "zz-test-a", Title: "A", Order: 1}, mk("a"))

	e, ok := Lookup("zz-test-a")
	if !ok || e.Meta.Title != "A" {
		t.Fatalf("Lookup(zz-test-a) = %+v, %v", e.Meta, ok)
	}
	if _, ok := Lookup("zz-test-missing"); ok {
		t.Fatal("Lookup of unregistered name succeeded")
	}
	if out := e.Run(Options{}).String(); out != "a" {
		t.Fatalf("Run output = %q", out)
	}

	// All is sorted by Order; our two entries must appear in 1,2 order.
	ia, ib := -1, -1
	for i, e := range All() {
		switch e.Meta.Name {
		case "zz-test-a":
			ia = i
		case "zz-test-b":
			ib = i
		}
	}
	if ia == -1 || ib == -1 || ia >= ib {
		t.Fatalf("All order: a at %d, b at %d", ia, ib)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	unregister(t, "zz-test-dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	run := func(Options) fmt.Stringer { return stringerFunc("x") }
	Register(Meta{Name: "zz-test-dup"}, run)
	Register(Meta{Name: "zz-test-dup"}, run)
}

func TestSweepOrderAndWorkerInvariance(t *testing.T) {
	const n = 257
	sq := func(i int) int { return i * i }
	seq := Sweep(Options{Workers: 1}, n, sq)
	for _, workers := range []int{2, 3, 8, 0} {
		par := Sweep(Options{Workers: workers}, n, sq)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: results differ from sequential", workers)
		}
	}
	for i, v := range seq {
		if v != i*i {
			t.Fatalf("seq[%d] = %d", i, v)
		}
	}
	if Sweep(Options{}, 0, sq) != nil {
		t.Fatal("Sweep(0) should be nil")
	}
}

// TestSweepPanicReachesCaller holds a panicking cell to one behaviour at
// any worker count: the caller recovers the value of the lowest-index
// cell that panicked, the one a serial run stops at, and the pool hands
// out no more cells once one has panicked. With more than one worker,
// cell 3 panics after cell 2 does, so a pool that kept the last value
// instead of the lowest-index one would answer cell 3.
func TestSweepPanicReachesCaller(t *testing.T) {
	const n = 64
	var (
		started      atomic.Int64
		threeStarted chan struct{}
	)
	fn := func(i int) int {
		started.Add(1)
		switch i {
		case 2:
			select {
			case <-threeStarted:
			case <-time.After(20 * time.Millisecond): // one worker: cell 3 never starts
			}
			panic("cell 2")
		case 3:
			close(threeStarted)
			time.Sleep(5 * time.Millisecond)
			panic("cell 3")
		case 40:
			panic("cell 40")
		}
		time.Sleep(time.Millisecond)
		return i
	}
	for _, workers := range []int{1, 2, 8} {
		started.Store(0)
		threeStarted = make(chan struct{})
		got := func() (r any) {
			defer func() { r = recover() }()
			Sweep(Options{Workers: workers}, n, fn)
			return nil
		}()
		if got != "cell 2" {
			t.Errorf("workers=%d: recovered %v, want cell 2", workers, got)
		}
		if s := started.Load(); s >= n {
			t.Errorf("workers=%d: all %d cells started after cell 2 panicked", workers, s)
		}
	}
}

// TestSweepYieldsBetweenCells holds the pool to passing through the
// scheduler after every cell: on one P, a goroutine that cell 0 starts
// (a collector's mark worker, in production) must run before the pool
// has worked through the whole sweep, not when the runtime's 10 ms
// preemption finally interrupts a worker.
func TestSweepYieldsBetweenCells(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 20
	var started, probeSaw atomic.Int64
	probed := make(chan struct{})
	Sweep(Options{Workers: 2}, n, func(i int) struct{} {
		started.Add(1)
		if i == 0 {
			go func() {
				probeSaw.Store(started.Load())
				close(probed)
			}()
		}
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
		return struct{}{}
	})
	<-probed
	if saw := probeSaw.Load(); saw >= n {
		t.Fatalf("the probe first ran after %d of %d cells had started; the pool never yielded", saw, n)
	}
}

func TestCellFold(t *testing.T) {
	o := Options{Seed: 2014}
	const a, b, c = 3, 1 << 20, 2
	if got, want := o.Cell(a, b).At(c).Seed(), SeedFor(2014, a, b, c); got != want {
		t.Fatalf("o.Cell(a, b).At(c) = %d, want SeedFor(base, a, b, c) = %d", got, want)
	}
	if got, want := o.Cell().Seed(), o.BaseSeed(); got != want {
		t.Fatalf("o.Cell() = %d, want the base seed %d", got, want)
	}
	// Unpaired(k) raises the last coordinate by k, wherever the cell
	// goes on from there.
	for k := 0; k < 6; k++ {
		if got, want := o.Cell(a, b).Unpaired(k).At(c).Seed(), SeedFor(2014, a, b+k, c); got != want {
			t.Fatalf("Unpaired(%d) = %d, want SeedFor(base, a, b+%d, c) = %d", k, got, k, want)
		}
	}
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		sink += o.Cell(a, b).At(c).Unpaired(1).Seed()
	}); n != 0 {
		t.Fatalf("a cell allocates %.0f times, want none", n)
	}
	_ = sink
}

func TestSeedForStable(t *testing.T) {
	// Calibration depends on this derivation never changing.
	if got := SeedFor(2014, 7, 3); got != 2014*1000003*1000003+7*1000003+7919*1000003+3+7919 {
		t.Fatalf("SeedFor(2014,7,3) = %d", got)
	}
	if SeedFor(5) != 5 {
		t.Fatal("SeedFor with no parts should return base")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.BaseSeed() != DefaultSeed {
		t.Fatal("BaseSeed default")
	}
	if o.TrialCount(3) != 3 {
		t.Fatal("TrialCount default")
	}
	if (Options{Trials: 2}).TrialCount(3) != 2 {
		t.Fatal("TrialCount override")
	}
	if o.LocationCount(20) != 20 {
		t.Fatal("LocationCount default")
	}
	if (Options{Locations: 4}).LocationCount(20) != 4 {
		t.Fatal("LocationCount override")
	}
	if (Options{Locations: 30}).LocationCount(20) != 20 {
		t.Fatal("LocationCount clamp")
	}
	if o.WorkerCount() < 1 {
		t.Fatal("WorkerCount must be >= 1")
	}
}

func TestSelect(t *testing.T) {
	unregister(t, "zz-sel-a", "zz-sel-b")
	mk := func(s string) func(Options) fmt.Stringer {
		return func(Options) fmt.Stringer { return stringerFunc(s) }
	}
	Register(Meta{Name: "zz-sel-a", Title: "A", Order: 9001}, mk("a"))
	Register(Meta{Name: "zz-sel-b", Title: "B", Order: 9002}, mk("b"))

	// Empty csv selects everything, in registry order.
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d experiments, err %v; want full registry", len(all), err)
	}

	// Explicit names resolve in the given order; whitespace and empty
	// entries (trailing commas) are tolerated.
	got, err := Select(" zz-sel-b , zz-sel-a ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Meta.Name != "zz-sel-b" || got[1].Meta.Name != "zz-sel-a" {
		t.Fatalf("Select order = %v", []string{got[0].Meta.Name, got[1].Meta.Name})
	}

	// Unknown names error and the message carries the valid-name list.
	if _, err := Select("zz-sel-a,zz-sel-nope"); err == nil {
		t.Fatal("Select with unknown name should error")
	} else if !strings.Contains(err.Error(), "zz-sel-nope") || !strings.Contains(err.Error(), "valid names") {
		t.Fatalf("error %q should name the offender and list valid names", err)
	}

	// A csv of only separators selects nothing and must error too.
	if _, err := Select(" , ,"); err == nil {
		t.Fatal("Select of empty entries should error")
	}
}
