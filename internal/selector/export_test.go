package selector

import "sort"

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
