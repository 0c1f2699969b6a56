// Package configstore is a concurrency-safe, persistent store of tuned
// application configurations keyed by (program, input-size bucket,
// worker count). It is the layer that lets tuning decisions outlive a
// process: pbserve looks configurations up per request (nearest-bucket
// when no exact match exists), the background tuner promotes new
// configurations atomically when they measure faster, and the whole
// store round-trips through one JSON file (written atomically, loaded
// on boot) whose per-entry configuration payload reuses the textual
// choice.Config format, so individual entries stay hand-editable and
// compatible with pbtune/pbrun -config files.
package configstore

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"petabricks/internal/choice"
)

// Key identifies one tuned configuration.
type Key struct {
	// Program is the benchmark/transform name (e.g. "sort", "RollingSum").
	Program string `json:"program"`
	// Bucket is the log2 size bucket: configurations tuned at size s
	// serve requests whose size falls in the same power-of-two bucket.
	Bucket int `json:"bucket"`
	// Workers is the worker-pool width the configuration was tuned for.
	Workers int `json:"workers"`
}

// Bucket maps an input size to its log2 bucket (ceil(log2(size)); sizes
// <= 1 map to bucket 0).
func Bucket(size int64) int {
	b := 0
	for s := int64(1); s < size; s *= 2 {
		b++
	}
	return b
}

// KeyFor builds the key covering (program, size, workers).
func KeyFor(program string, size int64, workers int) Key {
	return Key{Program: program, Bucket: Bucket(size), Workers: workers}
}

// String renders the key as "program/b<bucket>/w<workers>".
func (k Key) String() string {
	return fmt.Sprintf("%s/b%d/w%d", k.Program, k.Bucket, k.Workers)
}

// Entry is one stored configuration with its provenance.
type Entry struct {
	Key Key
	// Cfg is the tuned configuration. The store owns it; accessors hand
	// out clones so callers can never mutate stored state.
	Cfg *choice.Config
	// Cost is the measured cost (seconds) of Cfg at promotion time.
	Cost float64
	// TunedAt records when the entry was last promoted.
	TunedAt time.Time
	// Hits counts lookups served by this entry since process start.
	Hits int64

	seq uint64 // LRU clock: last access order
}

// Stats are the store's counters since process start.
type Stats struct {
	Entries    int   `json:"entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Promotions int64 `json:"promotions"`
	Rejections int64 `json:"rejections"`
	Evictions  int64 `json:"evictions"`
	Saves      int64 `json:"saves"`
	// Merges counts entries accepted from peers via Merge (replication).
	Merges int64 `json:"merges"`
}

// Store is the concurrency-safe config store. The zero value is not
// usable; construct with Open.
type Store struct {
	mu      sync.Mutex
	path    string // persistence file; "" keeps the store memory-only
	max     int    // LRU bound on entry count
	entries map[Key]*Entry
	clock   uint64
	stats   Stats
}

// DefaultMax is the default LRU bound.
const DefaultMax = 256

// Open creates a store persisted at path (empty path: memory-only),
// bounded to max entries (<= 0: DefaultMax), loading any existing
// snapshot from disk.
func Open(path string, max int) (*Store, error) {
	if max <= 0 {
		max = DefaultMax
	}
	s := &Store{path: path, max: max, entries: map[Key]*Entry{}}
	if path != "" {
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Get returns a clone of the exact entry for k, if present. It does not
// count as a lookup hit and does not touch the LRU clock.
func (s *Store) Get(k Key) (*choice.Config, float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return nil, 0, false
	}
	return e.Cfg.Clone(), e.Cost, true
}

// Lookup finds the best stored configuration for (program, size,
// workers): the exact bucket when present, otherwise the nearest bucket
// for the same program — preferring entries tuned for the same worker
// count, then minimal bucket distance, larger buckets winning distance
// ties (a configuration tuned at a larger size degrades more gracefully
// than one tuned smaller). Every remaining tie breaks deterministically
// (closest worker count, then wider pools, then key order), so two
// lookups of the same store always serve the same entry — an empty
// store, a size below the smallest tuned bucket, and equidistant
// buckets are all well-defined, not map-iteration roulette. Returns a
// clone of the config and the key of the entry that served it; callers
// can compare key.Bucket against Bucket(size) to see how far the match
// stretched.
func (s *Store) Lookup(program string, size int64, workers int) (*choice.Config, Key, bool) {
	want := KeyFor(program, size, workers)
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Entry
	for _, e := range s.entries {
		if e.Key.Program != program {
			continue
		}
		if best == nil || lookupBetter(e.Key, best.Key, want) {
			best = e
		}
	}
	if best == nil {
		s.stats.Misses++
		return nil, Key{}, false
	}
	s.clock++
	best.seq = s.clock
	best.Hits++
	s.stats.Hits++
	return best.Cfg.Clone(), best.Key, true
}

// lookupBetter reports whether candidate a serves want better than the
// incumbent b. The ordering is total, so the winner never depends on
// map iteration order.
func lookupBetter(a, b, want Key) bool {
	// 1. Entries tuned for the requested pool width beat all others.
	if am, bm := a.Workers == want.Workers, b.Workers == want.Workers; am != bm {
		return am
	}
	// 2. Smaller size-bucket distance wins.
	if ad, bd := absInt(a.Bucket-want.Bucket), absInt(b.Bucket-want.Bucket); ad != bd {
		return ad < bd
	}
	// 3. Equidistant buckets: the larger one wins (tuned-at-larger-size
	// configurations degrade more gracefully when shrunk).
	if a.Bucket != b.Bucket {
		return a.Bucket > b.Bucket
	}
	// 4. Same bucket, both off-width: the closest worker count wins,
	// wider pools breaking exact ties.
	if ad, bd := absInt(a.Workers-want.Workers), absInt(b.Workers-want.Workers); ad != bd {
		return ad < bd
	}
	return a.Workers > b.Workers
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Put installs cfg for k unconditionally (cloned on the way in),
// evicting the least-recently-used entry if the bound is exceeded.
func (s *Store) Put(k Key, cfg *choice.Config, cost float64, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(k, cfg, cost, now)
	s.stats.Promotions++
}

// Promote atomically replaces the entry for k with cfg only when it is
// measurably faster: no entry exists yet, or newCost undercuts oldCost
// by at least margin (fraction, e.g. 0.02 for 2%). oldCost is the
// caller's fresh re-measurement of the incumbent configuration, so both
// sides were timed under the same machine conditions. Reports whether
// the promotion happened.
func (s *Store) Promote(k Key, cfg *choice.Config, newCost, oldCost, margin float64, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok && newCost >= oldCost*(1-margin) {
		s.stats.Rejections++
		return false
	}
	s.put(k, cfg, newCost, now)
	s.stats.Promotions++
	return true
}

// put installs the entry; caller holds s.mu.
func (s *Store) put(k Key, cfg *choice.Config, cost float64, now time.Time) {
	s.clock++
	prev := s.entries[k]
	e := &Entry{Key: k, Cfg: cfg.Clone(), Cost: cost, TunedAt: now, seq: s.clock}
	if prev != nil {
		e.Hits = prev.Hits
	}
	s.entries[k] = e
	s.evictOverflow()
}

// evictOverflow drops least-recently-used entries until the bound
// holds; caller holds s.mu.
func (s *Store) evictOverflow() {
	for len(s.entries) > s.max {
		var victim *Entry
		for _, cand := range s.entries {
			if victim == nil || cand.seq < victim.seq {
				victim = cand
			}
		}
		delete(s.entries, victim.Key)
		s.stats.Evictions++
	}
}

// Merge installs a configuration learned elsewhere (a replication
// peer) under the promote-if-faster rule: accept when no local entry
// exists for k, or when cost undercuts the local entry's recorded cost
// by at least margin. Unlike Promote, no re-measurement happens —
// replication trusts the peer's recorded cost, which holds on the
// homogeneous clusters this targets — and tunedAt is preserved from
// the peer so provenance survives the hop. Reports whether the entry
// was accepted.
func (s *Store) Merge(k Key, cfg *choice.Config, cost float64, tunedAt time.Time, margin float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if local, ok := s.entries[k]; ok {
		if cost >= local.Cost*(1-margin) {
			return false
		}
	}
	s.clock++
	prev := s.entries[k]
	e := &Entry{Key: k, Cfg: cfg.Clone(), Cost: cost, TunedAt: tunedAt, seq: s.clock}
	if prev != nil {
		e.Hits = prev.Hits
	}
	s.entries[k] = e
	s.evictOverflow()
	s.stats.Merges++
	return true
}

// Digest returns a hash of the store's logical content (keys, costs,
// tuned-at stamps). Two stores with the same tuned state have the same
// digest, so replication peers can skip fetching full snapshots when
// nothing changed. The hash is order-independent (entries XOR in), so
// it is stable across save/load cycles and map iteration order.
func (s *Store) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d uint64
	for k, e := range s.entries {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/b%d/w%d|%x|%d", k.Program, k.Bucket, k.Workers,
			math.Float64bits(e.Cost), e.TunedAt.UnixNano())
		d ^= h.Sum64()
	}
	return d
}

// Snapshot returns the entries sorted by key for reporting.
func (s *Store) Snapshot() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		c := *e
		c.Cfg = e.Cfg.Clone()
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		return a.Workers < b.Workers
	})
	return out
}

// Stats returns the counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// --- persistence --------------------------------------------------------

type fileEntry struct {
	Program string    `json:"program"`
	Bucket  int       `json:"bucket"`
	Workers int       `json:"workers"`
	Cost    float64   `json:"cost"`
	TunedAt time.Time `json:"tuned_at"`
	// Config is the textual choice.Config payload (the pbtune file
	// format), embedded so entries stay hand-editable.
	Config string `json:"config"`
}

type fileFormat struct {
	Version int         `json:"version"`
	Entries []fileEntry `json:"entries"`
}

// Save writes the store to its file atomically (temp file + rename in
// the same directory). Memory-only stores save trivially.
func (s *Store) Save() error {
	s.mu.Lock()
	if s.path == "" {
		s.mu.Unlock()
		return nil
	}
	ff := fileFormat{Version: 1}
	// Serialize in deterministic order so repeated saves of the same
	// state are byte-identical.
	keys := make([]Key, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		return a.Workers < b.Workers
	})
	for _, k := range keys {
		e := s.entries[k]
		var sb strings.Builder
		if err := e.Cfg.Write(&sb); err != nil {
			s.mu.Unlock()
			return err
		}
		ff.Entries = append(ff.Entries, fileEntry{
			Program: k.Program, Bucket: k.Bucket, Workers: k.Workers,
			Cost: e.Cost, TunedAt: e.TunedAt, Config: sb.String(),
		})
	}
	path := s.path
	s.stats.Saves++
	s.mu.Unlock()

	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// The data reaches the disk before the rename, and the rename
	// before Save returns: a crash then leaves the old snapshot or the
	// new one, never a short file that load would refuse to boot on.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir flushes a directory's entries, making a rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// load reads the snapshot file; a missing file is an empty store.
func (s *Store) load() error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var ff fileFormat
	if err := json.Unmarshal(data, &ff); err != nil {
		return fmt.Errorf("configstore: %s: %w", s.path, err)
	}
	for _, fe := range ff.Entries {
		cfg, err := choice.Read(strings.NewReader(fe.Config))
		if err != nil {
			return fmt.Errorf("configstore: %s: entry %s: %w", s.path, fe.Program, err)
		}
		k := Key{Program: fe.Program, Bucket: fe.Bucket, Workers: fe.Workers}
		s.clock++
		s.entries[k] = &Entry{Key: k, Cfg: cfg, Cost: fe.Cost, TunedAt: fe.TunedAt, seq: s.clock}
	}
	// Respect the bound even if the file holds more than max entries.
	s.evictOverflow()
	return nil
}
