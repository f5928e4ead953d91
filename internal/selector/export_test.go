package selector

import (
	"sort"
	"strconv"
)

// SiteNames returns every known site name, sorted (diagnostics; takes
// every shard lock in turn).
func (st *Store) SiteNames() []string {
	var names []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.sites {
			names = append(names, string(sh.key(uint32(k))))
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// onShard returns name, or name with the smallest suffix "-k" that puts
// it, on the store's fixed shard count, on shard i: tests that need
// sites to share a shard, or to spread over several, pick their names
// through it.
func (st *Store) onShard(i int, name string) string {
	b := []byte(name)
	for k := 0; st.shardOf(b) != &st.shards[i]; k++ {
		b = strconv.AppendInt(append(b[:len(name)], '-'), int64(k+1), 10)
	}
	return string(b)
}
