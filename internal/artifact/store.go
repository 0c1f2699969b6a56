package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/obs"
)

// fileMagic opens every artifact file; anything else is garbage.
const fileMagic = "pba1"

// fileExt is the artifact file extension the directory scan recognizes.
const fileExt = ".pba"

// maxHeaderLine bounds the header read so a corrupt file can't make the
// scanner slurp gigabytes looking for a newline.
const maxHeaderLine = 4096

// Corruption reasons, the Reason values of CorruptError. They are also
// the label set of the corrupt counters in Stats and /v1/stats.
const (
	CorruptHeader    = "header"    // unparseable or oversized header line
	CorruptMagic     = "magic"     // wrong magic string
	CorruptSchema    = "schema"    // artifact written under another schema version
	CorruptTruncated = "truncated" // payload shorter than the header declares
	CorruptChecksum  = "checksum"  // payload bytes fail the FNV-64 checksum
	CorruptDecode    = "decode"    // payload decodes to an invalid artifact
)

// CorruptError is the typed reason an on-disk artifact was rejected.
// The store never serves a corrupt artifact and never panics on one: a
// rejected load is a cache miss, so the caller recompiles.
type CorruptError struct {
	Path   string
	Reason string
	Detail string
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("artifact: %s: corrupt (%s)", e.Path, e.Reason)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// header is the JSON first line of every artifact file. Len and Sum
// guard the payload; Schema guards its shape.
type header struct {
	Magic  string `json:"magic"`
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Len    int64  `json:"len"`
	Sum    string `json:"sum"` // FNV-64 of the payload, hex
}

// EntryInfo describes one disk-tier artifact for listings.
type EntryInfo struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Schema int    `json:"schema"`
	Size   int64  `json:"size"`
	Sum    string `json:"sum"`
}

type diskEntry struct {
	info EntryInfo
	path string
}

// Options configures a Store.
type Options struct {
	// MemMax bounds each in-memory kind cache (default
	// DefaultMemPerKind).
	MemMax int
	// Logf receives operational lines (corrupt artifacts quarantined,
	// save failures). Nil is silent.
	Logf func(format string, args ...any)
}

// Store is the tiered artifact store. All methods are safe for
// concurrent use. A Store with no directory is the memory tiers only —
// the default every Engine gets — and a Store opened on a directory
// adds the persistent tier beneath them.
type Store struct {
	dir    string
	memMax int
	logf   func(string, ...any)

	mu     sync.Mutex
	caches map[string]*MemCache
	index  map[string]*diskEntry // artifact ID → entry

	corruptMu sync.Mutex
	corrupt   map[string]int64 // reason → count

	diskHits     atomic.Int64
	diskMisses   atomic.Int64
	saves        atomic.Int64
	saveErrors   atomic.Int64
	corruptTotal atomic.Int64

	metrics atomic.Pointer[storeMetrics]
}

type storeMetrics struct {
	loadHist *obs.Histogram
}

// NewMemOnly returns a store with only the in-memory tiers; Load always
// misses and Save is a no-op.
func NewMemOnly() *Store { return newStore("", Options{}) }

// Open scans dir (created if missing) and returns a store whose disk
// tier is backed by it. Valid artifacts are indexed without reading
// their payloads (payload checksums verify at Load time); files with a
// corrupt header are quarantined and counted, and files written under
// another schema version are skipped and counted but left in place —
// a newer binary may still want them.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: Open needs a directory (use NewMemOnly for a memory-only store)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := newStore(dir, opts)
	names, err := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if err != nil {
		return nil, fmt.Errorf("artifact: scanning %s: %w", dir, err)
	}
	sort.Strings(names)
	for _, path := range names {
		h, err := readHeader(path)
		if err != nil {
			s.recordCorrupt(path, err, true)
			continue
		}
		if h.Schema != SchemaVersion {
			s.recordCorrupt(path, &CorruptError{Path: path, Reason: CorruptSchema,
				Detail: fmt.Sprintf("schema %d, want %d", h.Schema, SchemaVersion)}, false)
			continue
		}
		id := idFromPath(path)
		fi, statErr := os.Stat(path)
		size := int64(0)
		if statErr == nil {
			size = fi.Size()
		}
		s.index[id] = &diskEntry{
			info: EntryInfo{ID: id, Kind: h.Kind, Key: h.Key, Schema: h.Schema, Size: size, Sum: h.Sum},
			path: path,
		}
	}
	return s, nil
}

func newStore(dir string, opts Options) *Store {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Store{
		dir:     dir,
		memMax:  opts.MemMax,
		logf:    logf,
		caches:  map[string]*MemCache{},
		index:   map[string]*diskEntry{},
		corrupt: map[string]int64{},
	}
}

// Dir returns the disk-tier directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Persistent reports whether the store has a disk tier.
func (s *Store) Persistent() bool { return s != nil && s.dir != "" }

// Len returns the number of disk-tier artifacts currently indexed.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Mem returns the in-memory cache of one artifact kind, creating it on
// first use. The returned cache is shared by every caller of the same
// kind on this store.
func (s *Store) Mem(kind string) *MemCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.caches[kind]
	if !ok {
		c = NewMemCache(kind, s.memMax)
		s.caches[kind] = c
	}
	return c
}

// idFromPath recovers the artifact ID from its filename.
func idFromPath(path string) string {
	base := filepath.Base(path)
	return base[:len(base)-len(fileExt)]
}

func (s *Store) pathFor(id string) string {
	return filepath.Join(s.dir, id+fileExt)
}

// readHeader reads and validates the header line of an artifact file
// without touching the payload.
func readHeader(path string) (*header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &CorruptError{Path: path, Reason: CorruptHeader, Detail: err.Error()}
	}
	defer f.Close()
	buf := make([]byte, maxHeaderLine)
	n, _ := f.Read(buf)
	buf = buf[:n]
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return nil, &CorruptError{Path: path, Reason: CorruptHeader, Detail: "no header line"}
	}
	var h header
	if err := json.Unmarshal(buf[:nl], &h); err != nil {
		return nil, &CorruptError{Path: path, Reason: CorruptHeader, Detail: err.Error()}
	}
	if h.Magic != fileMagic {
		return nil, &CorruptError{Path: path, Reason: CorruptMagic, Detail: fmt.Sprintf("magic %q", h.Magic)}
	}
	return &h, nil
}

// recordCorrupt counts (and optionally quarantines) one corrupt file.
// Schema-skewed files are counted but kept; everything else is garbage
// that can never load, so it is removed to stop the scan re-reporting
// it every boot.
func (s *Store) recordCorrupt(path string, err error, remove bool) {
	reason := CorruptHeader
	if ce, ok := err.(*CorruptError); ok {
		reason = ce.Reason
	}
	s.corruptTotal.Add(1)
	s.corruptMu.Lock()
	s.corrupt[reason]++
	s.corruptMu.Unlock()
	s.logf("artifact: rejecting %s: %v", path, err)
	if remove {
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			s.logf("artifact: removing corrupt %s: %v", path, rmErr)
		}
	}
}

// Save writes one artifact payload to the disk tier with the atomic
// temp-file + rename idiom the configstore uses: a crash mid-save
// leaves either the old artifact or none, never a torn file. Saving on
// a memory-only store is a silent no-op (the memory tiers already hold
// the live object).
func (s *Store) Save(kind string, key Key, payload []byte) error {
	if s == nil || s.dir == "" {
		return nil
	}
	id := key.ID(kind)
	h := header{
		Magic:  fileMagic,
		Schema: SchemaVersion,
		Kind:   kind,
		Key:    key.String(),
		Len:    int64(len(payload)),
		Sum:    strconv.FormatUint(HashBytes(payload), 16),
	}
	hb, err := json.Marshal(&h)
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("artifact: encoding header: %w", err)
	}
	data := make([]byte, 0, len(hb)+1+len(payload))
	data = append(data, hb...)
	data = append(data, '\n')
	data = append(data, payload...)
	path := s.pathFor(id)
	if err := atomicWrite(s.dir, path, data); err != nil {
		s.saveErrors.Add(1)
		s.logf("artifact: saving %s: %v", id, err)
		return err
	}
	s.saves.Add(1)
	s.mu.Lock()
	s.index[id] = &diskEntry{
		info: EntryInfo{ID: id, Kind: kind, Key: h.Key, Schema: SchemaVersion, Size: int64(len(data)), Sum: h.Sum},
		path: path,
	}
	s.mu.Unlock()
	return nil
}

// atomicWrite writes data to path via a temp file in dir and a rename.
func atomicWrite(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// Load fetches one artifact from the disk tier and hands the verified
// payload to decode. It returns true only when the payload passed every
// integrity check (schema, length, checksum) AND decode accepted it; on
// any failure the file is quarantined with a typed reason and Load
// reports a miss, so the caller recompiles. The memory tiers are the
// caller's (richer, already-decoded) responsibility via Mem.
func (s *Store) Load(kind string, key Key, decode func(payload []byte) error) bool {
	if s == nil || s.dir == "" {
		return false
	}
	start := time.Now()
	id := key.ID(kind)
	s.mu.Lock()
	de, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		s.diskMisses.Add(1)
		return false
	}
	payload, err := s.readVerified(de, kind, key)
	if err == nil {
		if derr := decode(payload); derr != nil {
			err = &CorruptError{Path: de.path, Reason: CorruptDecode, Detail: derr.Error()}
		}
	}
	if err != nil {
		s.dropEntry(id)
		s.recordCorrupt(de.path, err, true)
		s.diskMisses.Add(1)
		return false
	}
	s.diskHits.Add(1)
	if m := s.metrics.Load(); m != nil {
		m.loadHist.ObserveSince(start)
	}
	return true
}

// readVerified reads one indexed artifact and verifies header identity,
// declared length, and payload checksum.
func (s *Store) readVerified(de *diskEntry, kind string, key Key) ([]byte, error) {
	data, err := os.ReadFile(de.path)
	if err != nil {
		return nil, &CorruptError{Path: de.path, Reason: CorruptTruncated, Detail: err.Error()}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || nl > maxHeaderLine {
		return nil, &CorruptError{Path: de.path, Reason: CorruptHeader, Detail: "no header line"}
	}
	var h header
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return nil, &CorruptError{Path: de.path, Reason: CorruptHeader, Detail: err.Error()}
	}
	if h.Magic != fileMagic {
		return nil, &CorruptError{Path: de.path, Reason: CorruptMagic, Detail: fmt.Sprintf("magic %q", h.Magic)}
	}
	if h.Schema != SchemaVersion {
		return nil, &CorruptError{Path: de.path, Reason: CorruptSchema,
			Detail: fmt.Sprintf("schema %d, want %d", h.Schema, SchemaVersion)}
	}
	if h.Kind != kind || h.Key != key.String() {
		return nil, &CorruptError{Path: de.path, Reason: CorruptHeader,
			Detail: fmt.Sprintf("artifact is (%s, %s), want (%s, %s)", h.Kind, h.Key, kind, key.String())}
	}
	payload := data[nl+1:]
	if int64(len(payload)) != h.Len {
		return nil, &CorruptError{Path: de.path, Reason: CorruptTruncated,
			Detail: fmt.Sprintf("payload %d bytes, header declares %d", len(payload), h.Len)}
	}
	if sum := strconv.FormatUint(HashBytes(payload), 16); sum != h.Sum {
		return nil, &CorruptError{Path: de.path, Reason: CorruptChecksum,
			Detail: fmt.Sprintf("payload sum %s, header declares %s", sum, h.Sum)}
	}
	return payload, nil
}

func (s *Store) dropEntry(id string) {
	s.mu.Lock()
	delete(s.index, id)
	s.mu.Unlock()
}

// List returns the disk-tier entries sorted by ID.
func (s *Store) List() []EntryInfo {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]EntryInfo, 0, len(s.index))
	for _, de := range s.index {
		out = append(out, de.info)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReadRaw returns the full file bytes of one artifact (header +
// payload), for tests and tools that inspect or tamper with the disk
// tier.
func (s *Store) ReadRaw(id string) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("artifact: no store")
	}
	s.mu.Lock()
	de, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("artifact: unknown artifact %q", id)
	}
	return os.ReadFile(de.path)
}

// CorruptCount returns the total number of corrupt-artifact rejections.
func (s *Store) CorruptCount() int64 {
	if s == nil {
		return 0
	}
	return s.corruptTotal.Load()
}

// DiskHits and DiskMisses expose the disk-tier traffic counters.
func (s *Store) DiskHits() int64 {
	if s == nil {
		return 0
	}
	return s.diskHits.Load()
}

func (s *Store) DiskMisses() int64 {
	if s == nil {
		return 0
	}
	return s.diskMisses.Load()
}

// Stats is the /v1/stats "artifacts" section.
func (s *Store) Stats() map[string]any {
	if s == nil {
		return map[string]any{"enabled": false}
	}
	s.mu.Lock()
	entries := len(s.index)
	var bytesOnDisk int64
	for _, de := range s.index {
		bytesOnDisk += de.info.Size
	}
	mem := map[string]any{}
	for kind, c := range s.caches {
		mem[kind] = map[string]any{
			"entries":   c.Len(),
			"hits":      c.Hits(),
			"misses":    c.Misses(),
			"evictions": c.Evictions(),
		}
	}
	s.mu.Unlock()
	s.corruptMu.Lock()
	reasons := make(map[string]int64, len(s.corrupt))
	for k, v := range s.corrupt {
		reasons[k] = v
	}
	s.corruptMu.Unlock()
	return map[string]any{
		"enabled":    true,
		"persistent": s.dir != "",
		"dir":        s.dir,
		"schema":     SchemaVersion,
		"mem":        mem,
		"disk": map[string]any{
			"entries":     entries,
			"bytes":       bytesOnDisk,
			"hits":        s.diskHits.Load(),
			"misses":      s.diskMisses.Load(),
			"saves":       s.saves.Load(),
			"save_errors": s.saveErrors.Load(),
		},
		"corrupt": map[string]any{
			"total":   s.corruptTotal.Load(),
			"reasons": reasons,
		},
	}
}

// Instrument registers the pb_artifact_* metrics on reg. Per-tier
// hit/miss/evict/corrupt counters are exported at scrape time from the
// store's always-on atomics; loads additionally feed a latency
// histogram.
func (s *Store) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	memTotal := func(f func(*MemCache) int64) func() int64 {
		return func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var t int64
			for _, c := range s.caches {
				t += f(c)
			}
			return t
		}
	}
	reg.CounterFunc("pb_artifact_hits_total", "Artifact cache hits by tier.",
		memTotal((*MemCache).Hits), obs.L("tier", "mem"))
	reg.CounterFunc("pb_artifact_misses_total", "Artifact cache misses by tier.",
		memTotal((*MemCache).Misses), obs.L("tier", "mem"))
	reg.CounterFunc("pb_artifact_evictions_total", "Artifact cache evictions by tier.",
		memTotal((*MemCache).Evictions), obs.L("tier", "mem"))
	reg.CounterFunc("pb_artifact_hits_total", "Artifact cache hits by tier.",
		s.diskHits.Load, obs.L("tier", "disk"))
	reg.CounterFunc("pb_artifact_misses_total", "Artifact cache misses by tier.",
		s.diskMisses.Load, obs.L("tier", "disk"))
	reg.CounterFunc("pb_artifact_saves_total", "Artifacts persisted to the disk tier.", s.saves.Load)
	reg.CounterFunc("pb_artifact_save_errors_total", "Failed artifact saves.", s.saveErrors.Load)
	reg.CounterFunc("pb_artifact_corrupt_total", "Artifacts rejected as corrupt or schema-skewed.", s.corruptTotal.Load)
	s.metrics.Store(&storeMetrics{
		loadHist: reg.Histogram("pb_artifact_load_seconds", "Disk-tier artifact load latency (verified hits).",
			obs.LatencyBuckets),
	})
}
