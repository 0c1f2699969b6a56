package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// fileMagic opens every artifact file; anything else is garbage.
const fileMagic = "pba1"

// fileExt is the artifact file extension the directory scan recognizes.
const fileExt = ".pba"

// tmpInfix marks a pack that was never renamed into place: commits
// write "<pack>.pba.tmp<random>" first.
const tmpInfix = fileExt + ".tmp"

// maxHeaderLine bounds the header read so a corrupt file can't make the
// scanner slurp gigabytes looking for a newline.
const maxHeaderLine = 4096

// Corruption reasons, the Reason values of CorruptError.
const (
	CorruptHeader    = "header"    // unparseable or oversized header line or pack index
	CorruptMagic     = "magic"     // wrong magic string
	CorruptSchema    = "schema"    // file written under another schema version
	CorruptTruncated = "truncated" // file shorter or longer than its header and index declare
	CorruptChecksum  = "checksum"  // pack index or entry payload fails its FNV-64 checksum
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

// header is the JSON first line of every artifact file. Magic and
// Schema identify the format; in a pack (see pack.go) Len and Sum guard
// the index that follows. Files of schemas 1-4 held one artifact each;
// their headers parse far enough to be recognised as skewed.
type header struct {
	Magic  string `json:"magic"`
	Schema int    `json:"schema"`
	Len    int64  `json:"len"`
	Sum    string `json:"sum"` // FNV-64, hex
	// lineLen is the header line's length with its newline.
	lineLen int
}

// parseHeader parses the header line at the start of buf.
func parseHeader(buf []byte) (*header, error) {
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	h := &header{lineLen: nl + 1}
	if err := json.Unmarshal(buf[:nl], h); err != nil {
		return nil, err
	}
	return h, nil
}

// EntryInfo describes one disk-tier artifact for listings: its payload
// is Size bytes at Offset in the pack file Pack (a name in the store's
// directory).
type EntryInfo struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Pack   string `json:"pack"`
	Offset int64  `json:"offset"`
	Size   int64  `json:"size"`
	Sum    string `json:"sum"`
}

type diskEntry struct {
	info EntryInfo
	pack *packFile
}

// Options configures a Store.
type Options struct {
	// Logf receives operational lines (corrupt artifacts quarantined,
	// save failures, leftover temp files removed). Nil is silent.
	Logf func(format string, args ...any)
}

// Store is the tiered artifact store. All methods are safe for
// concurrent use. A Store with no directory is the memory tier only —
// the default every Engine gets — and a Store opened on a directory
// adds the persistent tier beneath it. A directory belongs to one
// Store at a time.
type Store struct {
	dir  string
	logf func(string, ...any)
	mem  *MemCache

	mu    sync.Mutex
	index map[string]*diskEntry // artifact ID → newest entry

	// commitMu serialises commits; seq is the last pack sequence
	// number issued.
	commitMu sync.Mutex
	seq      uint64

	corruptMu sync.Mutex
	corrupt   map[string]int64 // reason → count

	diskHits     atomic.Int64
	diskMisses   atomic.Int64
	corruptTotal atomic.Int64
}

// NewMemOnly returns a store with only the in-memory tier; Load always
// misses and Pending returns nil.
func NewMemOnly() *Store { return newStore("", Options{}) }

// Open scans dir (created if missing) and returns a store whose disk
// tier is backed by it. Each pack's header and index are verified and
// its entries indexed without reading their payloads (payload checksums
// verify at Load time); where two packs hold the same entry the newer
// serves it, and a pack left with nothing to serve is deleted. Packs
// with a corrupt header or index are quarantined and counted; files
// written under another schema version are skipped and counted but left
// in place — a newer binary may still want them. Temp files of a commit
// that never reached its rename are removed: the directory belongs to
// this store, so no other writer can be midway through one.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: Open needs a directory (use NewMemOnly for a memory-only store)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := newStore(dir, opts)
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: scanning %s: %w", dir, err)
	}
	type scanned struct {
		pf      *packFile
		base    int64
		entries []packEntry
	}
	var packs []scanned
	for _, f := range files {
		name, path := f.Name(), filepath.Join(dir, f.Name())
		switch {
		case !f.Type().IsRegular():
			// Not a file a store writes.
		case strings.Contains(name, tmpInfix):
			s.logf("artifact: removing %s, left by a commit that never finished", path)
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				s.logf("artifact: removing %s: %v", path, err)
			}
		case strings.HasSuffix(name, fileExt):
			pf, entries, base, err := readPack(path)
			if err != nil {
				s.recordCorrupt(path, err)
				continue
			}
			packs = append(packs, scanned{pf, base, entries})
		}
	}
	// Oldest first, so a newer copy of an entry replaces an older one
	// (ties, which no commit writes, in name order).
	sort.SliceStable(packs, func(i, j int) bool { return packs[i].pf.seq < packs[j].pf.seq })
	for _, p := range packs {
		s.install(p.pf, p.base, p.entries)
		s.seq = max(s.seq, p.pf.seq)
	}
	for _, p := range packs {
		if p.pf.live == 0 {
			s.removePacks([]*packFile{p.pf})
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
		logf:    logf,
		mem:     NewMemCache(DefaultMemEntries),
		index:   map[string]*diskEntry{},
		corrupt: map[string]int64{},
	}
}

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

// Mem returns the store's in-memory cache, shared by every caller on
// this store.
func (s *Store) Mem() *MemCache { return s.mem }

// countCorrupt counts and logs one rejection under its typed reason.
func (s *Store) countCorrupt(path string, err error) {
	reason := CorruptHeader
	if ce, ok := err.(*CorruptError); ok {
		reason = ce.Reason
	}
	s.corruptTotal.Add(1)
	s.corruptMu.Lock()
	s.corrupt[reason]++
	s.corruptMu.Unlock()
	s.logf("artifact: rejecting %s: %v", path, err)
}

// recordCorrupt counts a file rejected by the scan and quarantines it.
// Schema-skewed files are counted but kept; everything else is garbage
// that can never load, so it is removed to stop the scan re-reporting
// it every boot.
func (s *Store) recordCorrupt(path string, err error) {
	s.countCorrupt(path, err)
	if ce, ok := err.(*CorruptError); ok && ce.Reason == CorruptSchema {
		return
	}
	if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
		s.logf("artifact: removing corrupt %s: %v", path, rmErr)
	}
}

// Load fetches one artifact from the disk tier and hands the verified
// payload to decode. It returns true only when the payload passed its
// checksum AND decode accepted it; on any failure the entry is dropped
// with a typed reason (its pack is deleted once it has nothing left to
// serve) and Load reports a miss, so the caller recompiles. The memory
// tier is the caller's (richer, already-decoded) responsibility via
// Mem.
func (s *Store) Load(kind string, key Key, decode func(payload []byte) error) bool {
	if s == nil || s.dir == "" {
		return false
	}
	ks := key.String()
	id := entryID(kind, ks)
	s.mu.Lock()
	de := s.index[id]
	s.mu.Unlock()
	if de == nil || de.info.Kind != kind || de.info.Key != ks {
		s.diskMisses.Add(1)
		return false
	}
	payload, err := readEntry(de)
	if err == nil {
		if derr := decode(payload); derr != nil {
			err = &CorruptError{Path: de.pack.path, Reason: CorruptDecode, Detail: derr.Error()}
		}
	}
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.countCorrupt(de.pack.path, err)
		}
		s.drop(de)
		s.diskMisses.Add(1)
		return false
	}
	s.diskHits.Add(1)
	return true
}

// drop removes de from the index unless a newer copy already replaced
// it, and deletes its pack once that serves nothing else.
func (s *Store) drop(de *diskEntry) {
	var dead []*packFile
	s.mu.Lock()
	if s.index[de.info.ID] == de {
		delete(s.index, de.info.ID)
		if de.pack.live--; de.pack.live == 0 {
			dead = append(dead, de.pack)
		}
	}
	s.mu.Unlock()
	s.removePacks(dead)
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
