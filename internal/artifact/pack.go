package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
)

// The disk tier is a set of packs. A pack is one file holding every
// artifact one top-level run created:
//
//	{"magic":"pba1","schema":5,"len":L,"sum":"…"}\n   header line
//	{"seq":N,"entries":[{"kind","key","off","len","sum"},…]}\n   index, L bytes
//	payload 0 | payload 1 | …                            back to back
//
// The header's sum guards the index, and each index entry's sum guards
// its payload, so a damaged pack is either rejected whole at Open (bad
// header or index) or entry by entry at Load (bad payload). N orders
// packs: when two hold the same (kind, key), the higher N serves it.
// A pack is written once, by one commit, with one temp file and one
// rename; packs left with no entry to serve are deleted.

const (
	// maxIndexBytes bounds a pack's index; Open rejects a larger one
	// without reading it.
	maxIndexBytes = 1 << 20
	// maxPackEntries bounds the entries of one pack; a commit with more
	// writes several packs.
	maxPackEntries = 256
)

// packIndex is a pack's index.
type packIndex struct {
	Seq     uint64      `json:"seq"`
	Entries []packEntry `json:"entries"`
}

// packEntry locates one artifact in a pack. Off counts from the first
// payload byte; payloads are laid out in entry order without gaps.
type packEntry struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	Sum  string `json:"sum"` // FNV-64 of the payload, hex
}

// packFile is one pack on disk. live counts the index entries it
// serves; at zero every entry it holds has a newer copy or was
// rejected, and the file is deleted.
type packFile struct {
	path string
	seq  uint64
	live int
}

func sumHex(b []byte) string { return strconv.FormatUint(HashBytes(b), 16) }

// readPack reads and verifies a pack's header and index, but not its
// payloads, and checks that the file is exactly as long as they declare.
// It returns the pack, its entries, and the file offset of the first
// payload byte.
func readPack(path string) (*packFile, []packEntry, int64, error) {
	bad := func(reason, format string, args ...any) (*packFile, []packEntry, int64, error) {
		return nil, nil, 0, &CorruptError{Path: path, Reason: reason, Detail: fmt.Sprintf(format, args...)}
	}
	f, err := os.Open(path)
	if err != nil {
		return bad(CorruptHeader, "%v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return bad(CorruptHeader, "%v", err)
	}
	buf := make([]byte, maxHeaderLine)
	n, _ := f.ReadAt(buf, 0) // a file shorter than buf ends in io.EOF; what was read is parsed either way
	h, err := parseHeader(buf[:n])
	if err != nil {
		return bad(CorruptHeader, "%v", err)
	}
	if h.Magic != fileMagic {
		return bad(CorruptMagic, "magic %q", h.Magic)
	}
	if h.Schema != SchemaVersion {
		return bad(CorruptSchema, "schema %d, want %d", h.Schema, SchemaVersion)
	}
	start := int64(h.lineLen)
	if h.Len <= 0 || h.Len > maxIndexBytes {
		return bad(CorruptHeader, "index of %d bytes", h.Len)
	}
	if start+h.Len > fi.Size() {
		return bad(CorruptTruncated, "index runs to byte %d of a %d-byte file", start+h.Len, fi.Size())
	}
	raw := make([]byte, h.Len)
	if _, err := f.ReadAt(raw, start); err != nil {
		return bad(CorruptTruncated, "%v", err)
	}
	if sum := sumHex(raw); sum != h.Sum {
		return bad(CorruptChecksum, "index sum %s, header declares %s", sum, h.Sum)
	}
	var idx packIndex
	if err := json.Unmarshal(raw, &idx); err != nil {
		return bad(CorruptHeader, "index: %v", err)
	}
	if len(idx.Entries) > maxPackEntries {
		return bad(CorruptHeader, "%d entries, bound %d", len(idx.Entries), maxPackEntries)
	}
	base := start + h.Len
	end := int64(0)
	for i, e := range idx.Entries {
		if e.Kind == "" || e.Key == "" || e.Off != end || e.Len < 0 || e.Len > fi.Size() {
			return bad(CorruptHeader, "entry %d (%s, %s) at %d+%d, want offset %d", i, e.Kind, e.Key, e.Off, e.Len, end)
		}
		end += e.Len
	}
	if base+end != fi.Size() {
		return bad(CorruptTruncated, "file %d bytes, header and index declare %d", fi.Size(), base+end)
	}
	return &packFile{path: path, seq: idx.Seq}, idx.Entries, base, nil
}

// readEntry reads one indexed payload and verifies its checksum. A pack
// deleted since it was indexed (superseded by a concurrent commit)
// yields an error wrapping os.ErrNotExist, which is not corruption.
func readEntry(de *diskEntry) ([]byte, error) {
	f, err := os.Open(de.pack.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, &CorruptError{Path: de.pack.path, Reason: CorruptTruncated, Detail: err.Error()}
	}
	defer f.Close()
	payload := make([]byte, de.info.Size)
	if _, err := f.ReadAt(payload, de.info.Offset); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, &CorruptError{Path: de.pack.path, Reason: CorruptTruncated,
			Detail: fmt.Sprintf("entry %s: %v", de.info.ID, err)}
	}
	if sum := sumHex(payload); sum != de.info.Sum {
		return nil, &CorruptError{Path: de.pack.path, Reason: CorruptChecksum,
			Detail: fmt.Sprintf("entry %s: payload sum %s, index declares %s", de.info.ID, sum, de.info.Sum)}
	}
	return payload, nil
}

// install points the index at every entry of pf, whose payloads start
// at file offset base, superseding older copies. It returns the packs
// left with nothing to serve. Callers hold s.mu.
func (s *Store) install(pf *packFile, base int64, entries []packEntry) []*packFile {
	var dead []*packFile
	for _, e := range entries {
		id := entryID(e.Kind, e.Key)
		if old := s.index[id]; old != nil {
			old.pack.live--
			dead = append(dead, old.pack)
		}
		pf.live++
		s.index[id] = &diskEntry{
			info: EntryInfo{ID: id, Kind: e.Kind, Key: e.Key, Pack: filepath.Base(pf.path),
				Offset: base + e.Off, Size: e.Len, Sum: e.Sum},
			pack: pf,
		}
	}
	return slices.DeleteFunc(dead, func(p *packFile) bool { return p.live > 0 })
}

// removePacks deletes packs that no longer serve any entry.
func (s *Store) removePacks(dead []*packFile) {
	for _, pf := range dead {
		if err := os.Remove(pf.path); err != nil && !os.IsNotExist(err) {
			s.logf("artifact: removing superseded pack %s: %v", pf.path, err)
		}
	}
}

// Pending is the set of artifacts one top-level run creates, written
// as one pack when the run ends (see Commit). Recording an artifact is
// in-memory only, so a plan build or a rule lowering never waits on the
// disk. All methods are safe for concurrent use, and every method of a
// nil *Pending — what a memory-only store hands out — is a no-op.
type Pending struct {
	s     *Store
	mu    sync.Mutex
	items []pendingItem
}

type pendingItem struct {
	kind   string
	key    Key
	encode func() ([]byte, error)
}

// Pending returns an empty pending set for one top-level run, or nil
// when the store has no disk tier.
func (s *Store) Pending() *Pending {
	if !s.Persistent() {
		return nil
	}
	return &Pending{s: s}
}

// Add records one artifact to persist. encode runs once, at Commit, so
// it sees everything the run added to the artifact by then; a second
// Add of the same (kind, key) is dropped. An encode error, or a nil
// payload, leaves the artifact memory-only.
func (p *Pending) Add(kind string, key Key, encode func() ([]byte, error)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range p.items {
		if it.kind == kind && it.key == key {
			return
		}
	}
	p.items = append(p.items, pendingItem{kind, key, encode})
}

// Commit encodes every recorded artifact and writes them to the disk
// tier as one pack, then deletes the packs it leaves with nothing to
// serve. The set is empty afterwards. Failures are counted and logged
// by the store; the artifacts stay memory-only.
func (p *Pending) Commit() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	items := p.items
	p.items = nil
	p.mu.Unlock()
	if len(items) == 0 {
		return nil
	}
	return p.s.commit(items)
}

// commit encodes items and writes them as packs of at most
// maxPackEntries entries — one pack for any realistic run. Commits are
// serialised, so a pack's sequence number orders its encodings after
// those of every earlier pack: an artifact that grows across runs (a
// holder's jit programs) is never superseded by an older snapshot.
func (s *Store) commit(items []pendingItem) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	var firstErr error
	var entries []packEntry
	var payloads [][]byte
	flush := func() {
		if err := s.writePack(entries, payloads); err != nil && firstErr == nil {
			firstErr = err
		}
		entries, payloads = entries[:0], payloads[:0]
	}
	off := int64(0)
	for _, it := range items {
		payload, err := it.encode()
		if err != nil || payload == nil {
			continue
		}
		if len(entries) == maxPackEntries {
			flush()
			off = 0
		}
		entries = append(entries, packEntry{Kind: it.kind, Key: it.key.String(), Off: off,
			Len: int64(len(payload)), Sum: sumHex(payload)})
		payloads = append(payloads, payload)
		off += int64(len(payload))
	}
	if len(entries) > 0 {
		flush()
	}
	return firstErr
}

// writePack writes one pack with the atomic temp-file + rename idiom
// (a crash mid-commit leaves the earlier packs and no new one, never a
// torn file) and installs its entries. Callers hold s.commitMu.
func (s *Store) writePack(entries []packEntry, payloads [][]byte) error {
	s.seq++
	idx, err := json.Marshal(&packIndex{Seq: s.seq, Entries: entries})
	if err == nil && len(idx)+1 > maxIndexBytes {
		err = fmt.Errorf("index of %d bytes exceeds %d", len(idx)+1, maxIndexBytes)
	}
	var hb []byte
	if err == nil {
		idx = append(idx, '\n')
		hb, err = json.Marshal(&header{Magic: fileMagic, Schema: SchemaVersion, Len: int64(len(idx)), Sum: sumHex(idx)})
	}
	if err != nil {
		s.logf("artifact: encoding pack index: %v", err)
		return fmt.Errorf("artifact: encoding pack index: %w", err)
	}
	base := len(hb) + 1 + len(idx)
	size := base
	for _, p := range payloads {
		size += len(p)
	}
	data := make([]byte, 0, size)
	data = append(append(append(data, hb...), '\n'), idx...)
	for _, p := range payloads {
		data = append(data, p...)
	}
	path := filepath.Join(s.dir, fmt.Sprintf("v%d-%016x%s", SchemaVersion, s.seq, fileExt))
	if err := atomicWrite(s.dir, path, data); err != nil {
		s.logf("artifact: writing pack %s: %v", path, err)
		return err
	}
	pf := &packFile{path: path, seq: s.seq}
	s.mu.Lock()
	dead := s.install(pf, int64(base), entries)
	s.mu.Unlock()
	s.removePacks(dead)
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
