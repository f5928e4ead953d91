package selector

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"multinet/internal/mptcp"
)

// refStore is the reference for Store: the map-of-pointers layout the
// flat shard arrays replaced (a *refSite per name, its paths in
// parallel slices in first-telemetry order), kept with its arithmetic
// verbatim as the oracle. Its sweep is the plain-map reading of the
// eviction rule: on the same per-shard schedule, delete every site
// whose newest sample is 2×StaleAfter old.
type refStore struct {
	shards [shardCount]refShard
	st     *Store // configuration only: halfLife, staleAfter
}

type refShard struct {
	sites   map[string]*refSite
	sweptAt time.Duration
	evicted int
}

type refSite struct {
	paths  []PathEstimate
	lastAt []time.Duration
}

func newRefStore(st *Store) *refStore {
	r := &refStore{st: st}
	for i := range r.shards {
		r.shards[i].sites = map[string]*refSite{}
	}
	return r
}

func (r *refStore) shard(site string) *refShard {
	return &r.shards[siteHash([]byte(site))%shardCount]
}

func (r *refStore) observe(site, path string, mbps float64, rtt, at time.Duration) {
	sh := r.shard(site)
	if at-sh.sweptAt >= r.st.staleAfter {
		r.sweep(sh, at)
	}
	s := sh.sites[site]
	if s == nil {
		s = &refSite{}
		sh.sites[site] = s
	}
	for i := range s.paths {
		if path == s.paths[i].Name {
			w := r.st.decayFactor(at - s.lastAt[i])
			decayed := s.paths[i].Mbps * w
			s.paths[i].Mbps = decayed + gain*(mbps-decayed)
			s.paths[i].RTT += time.Duration(gain * float64(rtt-s.paths[i].RTT))
			s.lastAt[i] = at
			return
		}
	}
	s.paths = append(s.paths, PathEstimate{Name: path, Mbps: mbps, RTT: rtt})
	s.lastAt = append(s.lastAt, at)
}

func (r *refStore) sweep(sh *refShard, at time.Duration) {
	sh.sweptAt = at
	var names []string
	for name := range sh.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		newest := time.Duration(math.MinInt64)
		for _, t := range sh.sites[name].lastAt {
			newest = max(newest, t)
		}
		if at-newest >= 2*r.st.staleAfter {
			delete(sh.sites, name)
			sh.evicted++
		}
	}
}

func (r *refStore) estimate(site string, at time.Duration) (Estimate, bool) {
	s := r.shard(site).sites[site]
	if s == nil {
		return Estimate{}, false
	}
	var e Estimate
	for i := range s.paths {
		p := s.paths[i]
		p.Mbps *= r.st.decayFactor(at - s.lastAt[i])
		e.Paths = append(e.Paths, p)
	}
	return e, true
}

func (r *refStore) decide(site string, flowBytes int, at time.Duration) (Decision, bool) {
	s := r.shard(site).sites[site]
	if s == nil {
		return Decision{}, false
	}
	var ranked []PathEstimate
	newest := time.Duration(math.MaxInt64)
	for i := range s.paths {
		p := s.paths[i]
		age := at - s.lastAt[i]
		newest = min(newest, age)
		p.Mbps *= r.st.decayFactor(age)
		ranked = append(ranked, p)
	}
	d := Decide(Estimate{Paths: ranked}, flowBytes)
	if len(ranked) > 0 && newest >= r.st.staleAfter {
		d.UseMPTCP = false
		d.CC = mptcp.Decoupled
		d.Scheduler = ""
		d.Rationale = RationaleStaleTelemetry
	}
	return d, true
}

func (r *refStore) sites() (n, evicted int) {
	for i := range r.shards {
		n += len(r.shards[i].sites)
		evicted += r.shards[i].evicted
	}
	return n, evicted
}

// sameDecision compares the exported fields of two decisions, the
// disparity bit for bit.
func sameDecision(a, b *Decision) bool {
	if len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Paths {
		if a.Paths[i] != b.Paths[i] {
			return false
		}
	}
	return a.UseMPTCP == b.UseMPTCP && a.CC == b.CC && a.Scheduler == b.Scheduler &&
		math.Float64bits(a.PairDisparity) == math.Float64bits(b.PairDisparity) && a.Rationale == b.Rationale
}

// sameEstimate compares two estimates path by path, bit for bit.
func sameEstimate(a, b Estimate) bool {
	if len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Paths {
		p, q := a.Paths[i], b.Paths[i]
		if p.Name != q.Name || math.Float64bits(p.Mbps) != math.Float64bits(q.Mbps) || p.RTT != q.RTT {
			return false
		}
	}
	return true
}

// TestStoreMatchesReference replays seeded random Observe/Decide
// sequences on injected instants against the store and the reference,
// and requires bit-equal decisions and estimates after every step. The
// sites carry one to five paths first reported in random order, the
// clock mostly creeps but sometimes jumps past the eviction horizon or
// runs backwards (out-of-order telemetry), and rates repeat often
// enough for ranking ties, so sweeps evict, compact and relink on
// every seed. The sites are named onto four shards, a dozen to each.
func TestStoreMatchesReference(t *testing.T) {
	pool := []string{"wifi", "lte", "wlan-2", "lte-b", "ethernet"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(StoreConfig{HalfLife: 2 * time.Second, StaleAfter: 5 * time.Second})
		ref := newRefStore(st)
		sites := make([]string, 48)
		width := make([]int, len(sites))
		for i := range sites {
			sites[i] = fmt.Sprintf("s%d", i)
			if i%3 == 0 {
				sites[i] = fmt.Sprintf("a-much-longer-site-name-%d", i)
			}
			sites[i] = st.onShard(i%4, sites[i])
			width[i] = 1 + rng.Intn(len(pool))
		}
		at := time.Second
		var d Decision
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(100); {
			case r < 2:
				at += time.Duration(3+rng.Intn(10)) * time.Second
			case r < 5:
				at -= time.Duration(rng.Intn(2000)) * time.Millisecond
			default:
				at += time.Duration(rng.Intn(300)) * time.Millisecond
			}
			k := rng.Intn(len(sites))
			site := sites[k]
			switch op := rng.Intn(10); {
			case op < 6:
				path := pool[rng.Intn(width[k])]
				mbps := float64(rng.Intn(8))
				rtt := time.Duration(10+rng.Intn(3)*15) * time.Millisecond
				st.Observe([]byte(site), []byte(path), mbps, rtt, at)
				ref.observe(site, path, mbps, rtt, at)
			case op < 9:
				flow := []int{1 << 10, 1 << 20, 5 << 20}[rng.Intn(3)]
				ok := st.Decide([]byte(site), flow, at, &d)
				want, wantOK := ref.decide(site, flow, at)
				if ok != wantOK || ok && !sameDecision(&d, &want) {
					t.Fatalf("seed %d step %d: Decide(%s) = %v %+v, reference %v %+v", seed, step, site, ok, d, wantOK, want)
				}
			default:
				e, ok := st.Estimate(site, at)
				want, wantOK := ref.estimate(site, at)
				if ok != wantOK || !sameEstimate(e, want) {
					t.Fatalf("seed %d step %d: Estimate(%s) = %v %+v, reference %v %+v", seed, step, site, ok, e, wantOK, want)
				}
			}
		}
		n, evicted := ref.sites()
		if st.Sites() != n || st.Evicted() != evicted {
			t.Fatalf("seed %d: Sites/Evicted = %d/%d, reference %d/%d", seed, st.Sites(), st.Evicted(), n, evicted)
		}
		if evicted == 0 {
			t.Fatalf("seed %d: no site was ever evicted; the sequence does not exercise the sweep", seed)
		}
	}
}
