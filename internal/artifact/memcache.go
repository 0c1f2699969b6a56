package artifact

import "sync"

// DefaultMemEntries bounds the in-memory cache. Entries are evicted
// FIFO; the set of (transform, size, config) keys seen in steady state
// is small, so recency tracking isn't worth it.
const DefaultMemEntries = 64

// MemCache is the bounded, concurrency-safe in-memory tier: one live
// entry per invocation key. It is shared by pointer across
// Engine.WithConfig views (and, when several engines use one Store,
// across engines — the program fingerprint in every Key keeps their
// entries apart), so server requests racing a background tuner reuse
// each other's compilations whenever their configurations genuinely
// match.
type MemCache struct {
	max int

	mu      sync.Mutex
	entries map[string]any
	order   []string
}

// NewMemCache builds a cache bounded at max entries (DefaultMemEntries
// when max <= 0).
func NewMemCache(max int) *MemCache {
	if max <= 0 {
		max = DefaultMemEntries
	}
	return &MemCache{max: max, entries: map[string]any{}}
}

// GetOrCreate returns the cached value for key, calling create (under
// the cache lock — keep it cheap; defer I/O and compilation into the
// returned holder) and possibly evicting the oldest entry when absent.
// created reports whether create ran.
func (c *MemCache) GetOrCreate(key string, create func() any) (v any, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.entries[key]; ok {
		return v, false
	}
	if len(c.order) >= c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	v = create()
	c.entries[key] = v
	c.order = append(c.order, key)
	return v, true
}

// Contains reports whether key is cached, counting neither a hit nor a
// miss.
func (c *MemCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}
