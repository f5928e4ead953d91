package selector

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"multinet/internal/mptcp"
)

// Store is the online service's estimate state: per-site path
// estimates, sharded by site name so concurrent telemetry and decide
// traffic for different sites never contend. Each shard has its own
// mutex and site table; a query locks exactly one shard, and only long
// enough to copy the site's decayed estimate into the caller's
// Decision scratch — there is no cross-shard locking anywhere.
//
// A shard holds its sites in a few flat arrays of pointer-free records
// (see storeShard), so a store of any size is a handful of heap objects
// per shard, and the collector's mark work does not grow with the site
// count.
//
// Estimates age by exponential decay: a path's throughput estimate is
// worth half as much every HalfLife of silence, so a path that stops
// reporting sinks in the ranking and eventually fails the MPTCP
// disparity gate, exactly as a probe-driven estimate would have gone
// stale. Time is supplied by the caller as an explicit monotonic
// instant (cmd/serve feeds time.Since(start)), which keeps this
// package free of wall clocks: tests and simulations inject any clock
// they like, and the determinism analyzer holds for the whole package.
//
// Sites are forgotten by age: a site none of whose paths has reported
// for 2×StaleAfter is dropped by its shard's next sweep, and from then
// on it is unknown, as a site never seen is.
type Store struct {
	shards [shardCount]storeShard

	halfLife   time.Duration
	staleAfter time.Duration
}

const (
	// shardCount is the number of shards, a power of two so that
	// shard selection is a mask.
	shardCount = 64
	// gain is the EWMA weight of a fresh telemetry sample against the
	// decayed history.
	gain = 0.3
)

// storeShard is one lock domain. Its sites live in flat arrays of
// records that hold no pointers, linked by 1-based indices (0 ends a
// chain):
//
//   - index finds a site by the hash of its name (see siteIndex).
//   - sites holds one record per site, and keys the site names back to
//     back.
//   - paths holds the path records. A site's paths are chained in
//     first-telemetry order, which is the site's ranking tie-break order
//     (Estimate's ordering contract); since a new path is appended to
//     both the array and its site's chain, every chain runs in array
//     order.
//   - names interns the path names, once per shard, so no lock beyond
//     the shard's is ever needed.
type storeShard struct {
	mu      sync.Mutex
	sweptAt time.Duration // instant of the last sweep
	index   siteIndex
	sites   []siteRec
	keys    []byte
	paths   []pathRec
	names   []string

	uses    []uint32 // sweep scratch: live paths per name
	evicted int      // sites the sweeps have dropped

	// The padding rounds the shard to three cache lines, so the next
	// shard's mutex never shares a line with this one's hot fields.
	_ [8]byte
}

// siteRec is one site: its name is keys[keyOff:keyOff+keyLen] and first
// is the head of its path chain.
type siteRec struct {
	keyOff, keyLen, first uint32
}

// pathRec is one path's estimate with the instant of its last sample,
// the next path of its site, and its name's index in names.
type pathRec struct {
	mbps       float64
	rtt        time.Duration
	lastAt     time.Duration
	next, name uint32
}

// siteIndex is a shard's hash index: an open-addressing table of packed
// slots, each the top 32 bits of a site name's hash (its tag) over
// 1 + the site's index, or 0 when free. A tag's probe starts at its
// Fibonacci hash and runs forward; the table is at most three-quarters
// full, so a probe ends at a free slot, usually in the cache line it
// started in. Equal tags are told apart by comparing the name's bytes.
// The table doubles when it fills, and is only ever emptied whole, by a
// sweep, so it needs no deletion marks.
type siteIndex struct {
	slots []uint64
	shift uint32 // 32 − log2(len(slots))
	n     int
}

// minIndexSlots is the size of a shard's first index table.
const minIndexSlots = 8

// init gives the index an empty table of size slots, a power of two.
func (x *siteIndex) init(size int) {
	x.slots = make([]uint64, size)
	x.shift = 32 - uint32(bits.TrailingZeros(uint(size)))
	x.n = 0
}

// home returns the slot a tag's probe starts at.
func (x *siteIndex) home(tag uint32) uint32 { return tag * 0x9e3779b1 >> x.shift }

// put stores a packed slot value in the first free slot of its probe.
func (x *siteIndex) put(v uint64) {
	mask := uint32(len(x.slots) - 1)
	p := x.home(uint32(v >> 32))
	for x.slots[p] != 0 {
		p = (p + 1) & mask
	}
	x.slots[p] = v
	x.n++
}

// insert indexes site i (1-based) under hash h, doubling the table
// first when it would pass three-quarters full.
func (x *siteIndex) insert(h uint64, i uint32) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.init(2 * len(old))
		for _, v := range old {
			if v != 0 {
				x.put(v)
			}
		}
	}
	x.put(h>>32<<32 | uint64(i))
}

// StoreConfig configures a Store's decay. The zero value is usable: a
// 30 s half-life and a staleness floor of 8 half-lives.
type StoreConfig struct {
	// HalfLife is the silence after which a path's throughput
	// estimate has decayed to half (default 30 s).
	HalfLife time.Duration
	// StaleAfter is the staleness floor: when every path of a site has
	// been silent at least this long at decide time, the estimate is
	// too decayed to justify opening extra subflows, and Decide
	// degrades to single-path TCP on the best remembered path with the
	// RationaleStaleTelemetry slug (default 8×HalfLife, at which point
	// throughput estimates retain under 0.4% of their last sample).
	// After twice this long the site is forgotten altogether.
	StaleAfter time.Duration
}

// NewStore builds an empty sharded store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = 30 * time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 8 * cfg.HalfLife
	}
	st := &Store{halfLife: cfg.HalfLife, staleAfter: cfg.StaleAfter}
	for i := range st.shards {
		st.shards[i].index.init(minIndexSlots)
	}
	return st
}

// ShardCount returns the shard count (/v1/stats reports it).
func (st *Store) ShardCount() int { return shardCount }

// siteHash is FNV-1a-64 over the raw bytes of a site name: no
// allocation, no conversion. Its low bits pick the shard and its top 32
// bits are the site's tag in the shard's index.
func siteHash(site []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range site {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// shardOf returns the shard owning a site name.
func (st *Store) shardOf(site []byte) *storeShard {
	return &st.shards[siteHash(site)%shardCount]
}

// key returns the name of site i (0-based).
func (sh *storeShard) key(i uint32) []byte {
	s := &sh.sites[i]
	return sh.keys[s.keyOff : s.keyOff+s.keyLen]
}

// find returns 1 + the index of the site named site under hash h, or 0
// when the shard does not hold it.
//
//multinet:hotpath
func (sh *storeShard) find(h uint64, site []byte) uint32 {
	x := &sh.index
	tag, mask := uint32(h>>32), uint32(len(x.slots)-1)
	for p := x.home(tag); ; p = (p + 1) & mask {
		v := x.slots[p]
		if v == 0 {
			return 0
		}
		if uint32(v>>32) == tag && string(sh.key(uint32(v)-1)) == string(site) {
			return uint32(v)
		}
	}
}

// addSite appends a site with no paths yet and returns 1 + its index.
// The name is copied into keys; nothing is allocated beyond the arrays'
// amortised growth.
func (sh *storeShard) addSite(h uint64, site []byte) uint32 {
	sh.sites = append(sh.sites, siteRec{keyOff: uint32(len(sh.keys)), keyLen: uint32(len(site))})
	sh.keys = append(sh.keys, site...)
	i := uint32(len(sh.sites))
	sh.index.insert(h, i)
	return i
}

// addPath appends a path to site i (1-based) after the chain's last
// record tail (0 for a site with no path yet).
func (sh *storeShard) addPath(i, tail uint32, path []byte, mbps float64, rtt, at time.Duration) {
	sh.paths = append(sh.paths, pathRec{mbps: mbps, rtt: rtt, lastAt: at, name: sh.intern(path)})
	j := uint32(len(sh.paths))
	if tail == 0 {
		sh.sites[i-1].first = j
	} else {
		sh.paths[tail-1].next = j
	}
}

// intern returns the index of a path name in names, adding it on first
// sight. A shard sees a handful of distinct path names (one per access
// network kind), so a scan beats a map.
func (sh *storeShard) intern(name []byte) uint32 {
	for k, n := range sh.names {
		if n == string(name) {
			return uint32(k)
		}
	}
	sh.names = append(sh.names, string(name))
	sh.uses = append(sh.uses, 0)
	return uint32(len(sh.names) - 1)
}

// decayFactor returns 2^(-age/halfLife), clamping negative ages
// (out-of-order telemetry) to no decay.
func (st *Store) decayFactor(age time.Duration) float64 {
	if age <= 0 {
		return 1
	}
	return math.Exp2(-float64(age) / float64(st.halfLife))
}

// Observe folds one telemetry sample into the named site's estimate
// at monotonic instant `at`. The stored history is first decayed to
// `at`, then blended with the sample at the EWMA gain, so a
// burst of samples converges quickly while a stale estimate fades on
// its own. Site and path arrive as byte slices straight out of a
// request buffer; a new site's name is copied into the shard's key
// bytes and a path name is interned once per shard, so nothing is
// allocated beyond the shard arrays' amortised growth.
//
// At most once per StaleAfter of injected time, Observe first sweeps
// the site's shard (see sweep).
//
//multinet:hotpath
func (st *Store) Observe(site, path []byte, mbps float64, rtt time.Duration, at time.Duration) {
	st.observe(siteHash(site), site, path, mbps, rtt, at)
}

// observe is Observe with the site's hash supplied.
//
//multinet:hotpath
func (st *Store) observe(h uint64, site, path []byte, mbps float64, rtt, at time.Duration) {
	sh := &st.shards[h%shardCount]
	sh.mu.Lock()
	if at-sh.sweptAt >= st.staleAfter {
		st.sweep(sh, at)
	}
	i := sh.find(h, site)
	if i == 0 {
		i = sh.addSite(h, site)
	}
	tail := uint32(0)
	for j := sh.sites[i-1].first; j != 0; j = sh.paths[j-1].next {
		p := &sh.paths[j-1]
		if sh.names[p.name] == string(path) {
			w := st.decayFactor(at - p.lastAt)
			decayed := p.mbps * w
			p.mbps = decayed + gain*(mbps-decayed)
			// RTT is a latency, not a budget: it goes stale but does
			// not shrink with silence, so it is EWMA'd without decay.
			p.rtt += time.Duration(gain * float64(rtt-p.rtt))
			p.lastAt = at
			sh.mu.Unlock()
			return
		}
		tail = j
	}
	sh.addPath(i, tail, path, mbps, rtt, at)
	sh.mu.Unlock()
}

// evictedSite marks, during a sweep, a site record being dropped.
const evictedSite = math.MaxUint32

// sweep forgets every site of sh whose newest sample is at least
// 2×StaleAfter old at `at`, and compacts what survives in place: the
// site records, their paths (relinked in the same order), the key
// bytes, and the path names no survivor uses. The index is emptied and
// refilled in the table it already has, so a sweep allocates nothing.
// The caller holds sh.mu.
func (st *Store) sweep(sh *storeShard, at time.Duration) {
	sh.sweptAt = at
	horizon := 2 * st.staleAfter
	dead := 0
	for i := range sh.sites {
		if at-sh.newest(&sh.sites[i]) >= horizon {
			dead++
		}
	}
	if dead == 0 {
		return
	}
	// Tag every path with its site's new index (1-based; 0 when the site
	// is evicted), and empty each survivor's chain.
	live := uint32(0)
	for i := range sh.sites {
		s := &sh.sites[i]
		tag, first := uint32(0), uint32(evictedSite)
		if at-sh.newest(s) < horizon {
			live++
			tag, first = live, 0
		}
		for j := s.first; j != 0; {
			p := &sh.paths[j-1]
			j, p.next = p.next, tag
		}
		s.first = first
	}
	// Compact the sites and their key bytes.
	n, off := 0, uint32(0)
	for i := range sh.sites {
		s := sh.sites[i]
		if s.first == evictedSite {
			continue
		}
		copy(sh.keys[off:], sh.keys[s.keyOff:s.keyOff+s.keyLen])
		s.keyOff = off
		off += s.keyLen
		sh.sites[n] = s
		n++
	}
	sh.sites, sh.keys = sh.sites[:n], sh.keys[:off]
	sh.evicted += dead
	// Compact the paths in array order, pushing each onto the front of
	// its site's chain, and count each name's uses. The chains come out
	// newest first; reversing them restores array order.
	clear(sh.uses)
	w := uint32(0)
	for j := range sh.paths {
		p := sh.paths[j]
		if p.next == 0 {
			continue
		}
		s := &sh.sites[p.next-1]
		p.next, s.first = s.first, w+1
		sh.paths[w] = p
		w++
		sh.uses[p.name]++
	}
	sh.paths = sh.paths[:w]
	for i := range sh.sites {
		s := &sh.sites[i]
		prev := uint32(0)
		for j := s.first; j != 0; {
			p := &sh.paths[j-1]
			j, p.next, prev = p.next, prev, j
		}
		s.first = prev
	}
	sh.compactNames()
	clear(sh.index.slots)
	sh.index.n = 0
	for i := range sh.sites {
		sh.index.put(siteHash(sh.key(uint32(i)))>>32<<32 | uint64(i+1))
	}
}

// newest returns the instant of the newest sample of a site's paths.
func (sh *storeShard) newest(s *siteRec) time.Duration {
	t := time.Duration(math.MinInt64)
	for j := s.first; j != 0; j = sh.paths[j-1].next {
		t = max(t, sh.paths[j-1].lastAt)
	}
	return t
}

// compactNames drops the path names no path uses (uses holds the
// counts) and renumbers the paths' name indices.
func (sh *storeShard) compactNames() {
	n := 0
	for k, u := range sh.uses {
		if u == 0 {
			continue
		}
		sh.names[n] = sh.names[k]
		sh.uses[k] = uint32(n) // from here on, k's new index
		n++
	}
	if n == len(sh.names) {
		return
	}
	for j := range sh.paths {
		sh.paths[j].name = sh.uses[sh.paths[j].name]
	}
	clear(sh.names[n:])
	sh.names, sh.uses = sh.names[:n], sh.uses[:n]
}

// Decide evaluates the policy for the named site at monotonic instant
// `at`, filling the caller's pooled Decision. It returns false when
// the site has never reported telemetry, or has been forgotten. The
// site's estimate is copied, decayed, into d's scratch under the shard
// lock; the policy then runs outside the lock, so a slow decision
// never blocks the site's telemetry ingest.
//
// When every path of the site has been silent for at least StaleAfter
// the estimate is a memory, not a measurement: the decision keeps the
// remembered ranking but degrades to single-path TCP with the
// RationaleStaleTelemetry slug.
//
//multinet:hotpath
func (st *Store) Decide(site []byte, flowBytes int, at time.Duration, d *Decision) bool {
	return st.decide(siteHash(site), site, flowBytes, at, d)
}

// decide is Decide with the site's hash supplied.
//
//multinet:hotpath
func (st *Store) decide(h uint64, site []byte, flowBytes int, at time.Duration, d *Decision) bool {
	sh := &st.shards[h%shardCount]
	sh.mu.Lock()
	i := sh.find(h, site)
	if i == 0 {
		sh.mu.Unlock()
		return false
	}
	d.ranked = d.ranked[:0] //lint:allow hotpath decayed-copy scratch capacity is amortised by the pooled Decision
	newest := time.Duration(math.MaxInt64)
	for j := sh.sites[i-1].first; j != 0; j = sh.paths[j-1].next {
		p := &sh.paths[j-1]
		age := at - p.lastAt
		if age < newest {
			newest = age
		}
		d.ranked = append(d.ranked, PathEstimate{Name: sh.names[p.name], Mbps: p.mbps * st.decayFactor(age), RTT: p.rtt}) //lint:allow hotpath decayed-copy scratch capacity is amortised by the pooled Decision
	}
	sh.mu.Unlock()
	// DecideInto re-sorts d.ranked in place: handing it an Estimate
	// aliasing its own scratch is the designed zero-copy path.
	DecideInto(d, Estimate{Paths: d.ranked}, flowBytes)
	if len(d.ranked) > 0 && newest >= st.staleAfter {
		d.UseMPTCP = false
		d.CC = mptcp.Decoupled
		d.Scheduler = ""
		d.Rationale = RationaleStaleTelemetry
	}
	return true
}

// Sites returns the total number of sites across all shards.
func (st *Store) Sites() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += len(sh.sites)
		sh.mu.Unlock()
	}
	return n
}

// Evicted returns the number of sites the age sweeps have forgotten.
func (st *Store) Evicted() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.evicted
		sh.mu.Unlock()
	}
	return n
}

// LockSiteShard locks the shard owning site a and reports whether
// site b lives on a different shard. It exists so layers above the
// store (the HTTP service, load generators) can prove cross-shard
// independence end to end; production code has no use for it. The
// returned unlock must be called.
//
//lint:allow unusedapi internal/serve's TestServeShardIndependence holds a shard through it
func (st *Store) LockSiteShard(a, b []byte) (unlock func(), cross bool) {
	sh := st.shardOf(a)
	sh.mu.Lock()
	return sh.mu.Unlock, st.shardOf(b) != sh
}

// Estimate returns a decayed snapshot of the named site's estimate at
// instant `at` (diagnostics and tests; allocates).
//
//lint:allow unusedapi internal/serve's FuzzTelemetryBytes and TestServeRejectsNonFiniteTelemetry read the store through it
func (st *Store) Estimate(site string, at time.Duration) (Estimate, bool) {
	return st.estimate(siteHash([]byte(site)), site, at)
}

// estimate is Estimate with the site's hash supplied.
func (st *Store) estimate(h uint64, site string, at time.Duration) (Estimate, bool) {
	sh := &st.shards[h%shardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.find(h, []byte(site))
	if i == 0 {
		return Estimate{}, false
	}
	var e Estimate
	for j := sh.sites[i-1].first; j != 0; j = sh.paths[j-1].next {
		p := &sh.paths[j-1]
		e.Paths = append(e.Paths, PathEstimate{Name: sh.names[p.name], Mbps: p.mbps * st.decayFactor(at-p.lastAt), RTT: p.rtt})
	}
	return e, true
}
