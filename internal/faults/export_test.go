package faults

import (
	"math/rand"
	"time"
)

// GenSchedule draws a random schedule over the given interfaces: 1–4
// episodes of mixed kinds, starting within the first 60% of horizon and
// short enough that every fault ends before the horizon does. The same
// rng state always yields the same schedule — the chaos sweep and the
// differential fuzz target both rely on that.
func GenSchedule(rng *rand.Rand, ifaces []string, horizon time.Duration) Schedule {
	if len(ifaces) == 0 || horizon <= 0 {
		return Schedule{}
	}
	n := 1 + rng.Intn(4)
	eps := make([]Episode, 0, n)
	for i := 0; i < n; i++ {
		e := Episode{
			Kind:  Kind(rng.Intn(5)),
			Iface: ifaces[rng.Intn(len(ifaces))],
			Start: time.Duration(rng.Int63n(int64(horizon * 6 / 10))),
		}
		maxDur := horizon / 4
		e.Duration = 10*time.Millisecond + time.Duration(rng.Int63n(int64(maxDur)))
		switch e.Kind {
		case FlapTrain:
			e.Cycles = 2 + rng.Intn(3)
			// Keep the whole train inside the horizon budget.
			e.Duration = 10*time.Millisecond + time.Duration(rng.Int63n(int64(horizon/20)))
			e.Period = e.Duration + 10*time.Millisecond +
				time.Duration(rng.Int63n(int64(horizon/20)))
		case LossBurst:
			e.LossProb = 0.05 + 0.45*rng.Float64()
		case RateCollapse:
			e.RateFactor = 0.05 + 0.5*rng.Float64()
		}
		eps = append(eps, e)
	}
	return Schedule{Episodes: eps}
}
