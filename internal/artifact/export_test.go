package artifact

import "maps"

// corruptReasons returns the rejections counted so far under each typed
// reason.
func (s *Store) corruptReasons() map[string]int64 {
	s.corruptMu.Lock()
	defer s.corruptMu.Unlock()
	return maps.Clone(s.corrupt)
}

// livePacks returns how many pack files the index serves entries from.
func (s *Store) livePacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	packs := map[*packFile]bool{}
	for _, de := range s.index {
		packs[de.pack] = true
	}
	return len(packs)
}

// size returns the number of cached entries.
func (c *MemCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SizesKey encodes a bound size vector canonically (sorted by variable
// name), e.g. "m=3|n=64".
func SizesKey(sizes map[string]int64) string {
	names := sortedKeys(sizes)
	vals := make([]int64, len(names))
	for i, k := range names {
		vals[i] = sizes[k]
	}
	return SizesKeySorted(names, vals)
}
