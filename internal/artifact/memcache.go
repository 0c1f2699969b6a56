package artifact

import (
	"sync"
	"sync/atomic"
)

// DefaultMemPerKind bounds each in-memory cache. Entries are evicted
// FIFO; the set of (transform, size, config) keys seen in steady state
// is small, so recency tracking isn't worth it (unchanged from the
// bespoke caches this package replaced).
const DefaultMemPerKind = 64

// MemCache is the bounded, concurrency-safe in-memory tier of one
// artifact kind. It is shared by pointer across Engine.WithConfig views
// (and, when several engines use one Store, across engines — the
// program fingerprint in every Key keeps their entries apart), so
// server requests racing a background tuner reuse each other's
// compilations whenever their configurations genuinely match.
type MemCache struct {
	kind string
	max  int

	mu      sync.Mutex
	entries map[string]any
	order   []string
	onEvict func(key string, v any)

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewMemCache builds a cache bounded at max entries (DefaultMemPerKind
// when max <= 0).
func NewMemCache(kind string, max int) *MemCache {
	if max <= 0 {
		max = DefaultMemPerKind
	}
	return &MemCache{kind: kind, max: max, entries: map[string]any{}}
}

// GetOrCreate returns the cached value for key, calling create (under
// the cache lock — keep it cheap; defer I/O and compilation into the
// returned holder) and possibly evicting the oldest entry when absent.
// created reports whether create ran.
func (c *MemCache) GetOrCreate(key string, create func() any) (v any, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.entries[key]; ok {
		c.hits.Add(1)
		return v, false
	}
	c.misses.Add(1)
	if len(c.order) >= c.max {
		old := c.order[0]
		ov := c.entries[old]
		delete(c.entries, old)
		c.order = c.order[1:]
		c.evictions.Add(1)
		if c.onEvict != nil {
			c.onEvict(old, ov)
		}
	}
	v = create()
	c.entries[key] = v
	c.order = append(c.order, key)
	return v, true
}

// Len returns the number of cached entries.
func (c *MemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Contains reports whether key is cached, counting neither a hit nor a
// miss.
func (c *MemCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// SetOnEvict installs a callback invoked (under the cache lock) for
// every evicted entry. Installing the same logical callback repeatedly
// is fine; the last one wins.
func (c *MemCache) SetOnEvict(fn func(key string, v any)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Hits, Misses, and Evictions expose the cache's traffic counters.
func (c *MemCache) Hits() int64      { return c.hits.Load() }
func (c *MemCache) Misses() int64    { return c.misses.Load() }
func (c *MemCache) Evictions() int64 { return c.evictions.Load() }
