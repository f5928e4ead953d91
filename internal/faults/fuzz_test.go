package faults_test

import (
	"testing"
	"time"

	"multinet/internal/faults"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/tcp"
)

// decodeSchedule turns fuzz bytes into a valid fault schedule over the
// wifi/lte pair: 6 bytes per episode (kind, iface, start, duration,
// and two kind-specific operands). Invalid combinations cannot be
// produced — every decoded schedule passes Validate.
func decodeSchedule(data []byte) faults.Schedule {
	var eps []faults.Episode
	for len(data) >= 6 && len(eps) < 6 {
		b := data[:6]
		data = data[6:]
		e := faults.Episode{
			Kind:     faults.Kind(int(b[0]) % 5),
			Iface:    []string{"wifi", "lte"}[int(b[1])%2],
			Start:    time.Duration(b[2]) * 20 * time.Millisecond,
			Duration: time.Duration(1+int(b[3])%100) * 10 * time.Millisecond,
		}
		switch e.Kind {
		case faults.FlapTrain:
			e.Cycles = 1 + int(b[4])%4
			e.Period = e.Duration + time.Duration(1+int(b[5])%50)*10*time.Millisecond
		case faults.LossBurst:
			e.LossProb = 0.05 + 0.9*float64(b[4])/256
		case faults.RateCollapse:
			e.RateFactor = 0.05 + 0.9*float64(b[4])/256
		}
		eps = append(eps, e)
	}
	return faults.Schedule{Episodes: eps}
}

// FuzzChaosSchedule is the differential chaos target: arbitrary bytes
// become a fault schedule (the last byte also picks the transfer
// direction and the link kind), the same transfer runs under it twice,
// and the two runs must agree bit for bit (link counters, delivery totals,
// stall counts, end time) with zero invariant violations — the
// conservation, stranded-mapping, silent-stall, and pool-leak rules all
// hold under any schedule the fuzzer can express.
func FuzzChaosSchedule(f *testing.F) {
	f.Add([]byte{})                                         // fault-free baseline
	f.Add([]byte{0, 0, 2, 30, 0, 0})                        // admin-down mid-flow
	f.Add([]byte{1, 1, 1, 60, 0, 0})                        // lte blackhole
	f.Add([]byte{2, 0, 3, 5, 2, 4})                         // wifi flap train
	f.Add([]byte{3, 0, 0, 50, 128, 0, 4, 1, 2, 40, 200, 0}) // loss burst + rate collapse
	// The same episodes over delivery-opportunity links: bytes past the
	// last whole episode only choose direction (bit 0) and link kind (bit 1).
	f.Add([]byte{0, 0, 2, 30, 0, 0, 2})                        // admin-down, variable links, download
	f.Add([]byte{1, 1, 1, 60, 0, 0, 3})                        // lte blackhole, variable links, upload
	f.Add([]byte{2, 0, 3, 5, 2, 4, 2})                         // wifi flap train, variable links
	f.Add([]byte{3, 0, 0, 50, 128, 0, 4, 1, 2, 40, 200, 0, 3}) // loss burst (+ a rate collapse VarLinks ignore)
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := decodeSchedule(data)
		if err := sched.Validate(); err != nil {
			t.Fatalf("decoder produced invalid schedule: %v\n%s", err, sched)
		}
		defer netem.SetLeakTracking(false)
		defer tcp.SetLeakTracking(false)
		defer mptcp.SetLeakTracking(false)
		download := len(data) == 0 || data[len(data)-1]%2 == 0
		variable := len(data) > 0 && data[len(data)-1]%4 >= 2
		a := runChaos(t, 1234, sched, variable, download, 64<<10)
		b := runChaos(t, 1234, sched, variable, download, 64<<10)
		for _, v := range a.violations {
			t.Errorf("invariant violated: %s\nschedule:\n%s", v, sched)
		}
		if a.signature != b.signature {
			t.Errorf("divergent runs under identical schedule:\n%s\n%s\nschedule:\n%s",
				a.signature, b.signature, sched)
		}
	})
}
