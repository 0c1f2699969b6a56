package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func testKey(n int) Key {
	return Key{
		Prog:      HashString("prog"),
		Transform: "T",
		Sizes:     SizesKey(map[string]int64{"n": int64(n)}),
		ConfigFP:  42,
		Engine:    2,
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadPayload fetches one artifact and returns the verified payload, or
// nil on a miss.
func loadPayload(s *Store, kind string, key Key) []byte {
	var got []byte
	if !s.Load(kind, key, func(p []byte) error {
		got = append([]byte(nil), p...)
		return nil
	}) {
		return nil
	}
	return got
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(64)
	payload := []byte("serialized bytecode payload")
	if err := s.Save(KindJIT, key, payload); err != nil {
		t.Fatal(err)
	}
	if got := loadPayload(s, KindJIT, key); !bytes.Equal(got, payload) {
		t.Fatalf("same-process load = %q, want %q", got, payload)
	}

	// A fresh store on the same directory — the restart path — must
	// serve the identical payload from its scan-built index.
	s2 := openStore(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexes %d artifacts, want 1", s2.Len())
	}
	if got := loadPayload(s2, KindJIT, key); !bytes.Equal(got, payload) {
		t.Fatalf("reopened load = %q, want %q", got, payload)
	}
	if s2.DiskHits() != 1 || s2.DiskMisses() != 0 || s2.CorruptCount() != 0 {
		t.Errorf("hits=%d misses=%d corrupt=%d, want 1/0/0",
			s2.DiskHits(), s2.DiskMisses(), s2.CorruptCount())
	}
}

func TestStoreLoadMissesOnAbsentAndWrongKey(t *testing.T) {
	s := openStore(t, t.TempDir())
	if s.Load(KindJIT, testKey(64), func([]byte) error { return nil }) {
		t.Error("load of absent artifact reported a hit")
	}
	if err := s.Save(KindJIT, testKey(64), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if loadPayload(s, KindJIT, testKey(128)) != nil {
		t.Error("load under a different key served another key's artifact")
	}
	if loadPayload(s, KindProgram, testKey(64)) != nil {
		t.Error("load under a different kind served another kind's artifact")
	}
}

func TestMemOnlyStoreNeverTouchesDisk(t *testing.T) {
	s := NewMemOnly()
	if s.Persistent() {
		t.Fatal("memory-only store claims persistence")
	}
	if err := s.Save(KindJIT, testKey(1), []byte("x")); err != nil {
		t.Fatalf("Save on memory-only store: %v", err)
	}
	if s.Load(KindJIT, testKey(1), func([]byte) error { return nil }) {
		t.Error("memory-only Load reported a hit")
	}
}

// TestStoreCrashMidSave simulates every intermediate state a crash
// during Save can leave behind — the temp file written but not renamed,
// with and without a previous artifact version — and requires the store
// to come back serving either the old payload or a clean miss, never a
// torn read.
func TestStoreCrashMidSave(t *testing.T) {
	key := testKey(64)
	old := []byte("old valid payload")

	t.Run("no_prior_version", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir)
		// The moment before rename: a half-written temp file exists and
		// the destination does not.
		final := s.pathFor(key.ID(KindJIT))
		tmp := final + ".tmp12345"
		if err := os.WriteFile(tmp, []byte("partial garb"), 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		if s2.Len() != 0 {
			t.Errorf("temp file was indexed: %d entries", s2.Len())
		}
		if loadPayload(s2, KindJIT, key) != nil {
			t.Error("load served a half-written artifact")
		}
	})

	t.Run("prior_version_intact", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir)
		if err := s.Save(KindJIT, key, old); err != nil {
			t.Fatal(err)
		}
		tmp := s.pathFor(key.ID(KindJIT)) + ".tmp67890"
		if err := os.WriteFile(tmp, []byte("partial replacement garb"), 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		if got := loadPayload(s2, KindJIT, key); !bytes.Equal(got, old) {
			t.Errorf("after simulated crash, load = %q, want prior version %q", got, old)
		}
		if s2.CorruptCount() != 0 {
			t.Errorf("intact prior version counted corrupt %d times", s2.CorruptCount())
		}
	})
}

// corruptReasonOf reopens dir, attempts the load, and returns the
// recorded corrupt-reason counts.
func corruptReasonsAfterLoad(t *testing.T, dir string, key Key) (bool, map[string]int64) {
	t.Helper()
	s := openStore(t, dir)
	hit := s.Load(KindJIT, key, func([]byte) error { return nil })
	stats := s.Stats()
	reasons := stats["corrupt"].(map[string]any)["reasons"].(map[string]int64)
	return hit, reasons
}

// TestStoreTruncationRejected truncates a valid artifact at several
// points (inside the payload, at the header boundary, mid-header) and
// requires a typed rejection — never a hit, never a panic.
func TestStoreTruncationRejected(t *testing.T) {
	key := testKey(64)
	payload := []byte("a payload long enough to truncate at interesting points")
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save(KindJIT, key, payload); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor(key.ID(KindJIT))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := bytes.IndexByte(full, '\n') + 1
	cuts := []int{
		len(full) - 1, // one payload byte short
		headerLen + 3, // a few payload bytes survive
		headerLen,     // payload entirely gone
		headerLen - 2, // header loses its newline
		headerLen / 2, // mid-header
		0,             // empty file
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut_at_%d", cut), func(t *testing.T) {
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			hit, reasons := corruptReasonsAfterLoad(t, dir, key)
			if hit {
				t.Fatal("truncated artifact served as a hit")
			}
			var total int64
			for _, n := range reasons {
				total += n
			}
			if total == 0 {
				t.Errorf("truncation at %d recorded no corrupt reason (reasons %v)", cut, reasons)
			}
			// Restore for the next subtest.
			if err := os.WriteFile(path, full, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreBitFlipRejected flips one bit at every position of a small
// artifact file. Each flip must yield either a clean typed rejection or
// — only if the store somehow still verifies — a bit-identical payload.
// Serving modified bytes is the one outcome that is never acceptable.
func TestStoreBitFlipRejected(t *testing.T) {
	key := testKey(8)
	payload := []byte("payload")
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save(KindJIT, key, payload); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor(key.ID(KindJIT))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for pos := 0; pos < len(full); pos++ {
		for bit := 0; bit < 8; bit += 3 { // bits 0,3,6 per byte keep runtime sane
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			if bytes.Equal(mut, full) {
				continue
			}
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := openStore(t, dir)
			var served []byte
			hit := s2.Load(KindJIT, key, func(p []byte) error {
				served = append([]byte(nil), p...)
				return nil
			})
			if hit && !bytes.Equal(served, payload) {
				t.Fatalf("bit flip at byte %d bit %d served modified payload %q", pos, bit, served)
			}
			if !hit {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Error("no bit flip was rejected; corruption detection exercised nothing")
	}
	// Restore and confirm the store recovers once the bytes are right
	// again (the quarantine removed the file, so re-save).
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir)
	if got := loadPayload(s3, KindJIT, key); !bytes.Equal(got, payload) {
		t.Errorf("restored artifact failed to load: got %q", got)
	}
}

// TestStoreCorruptReasonsTyped pins each corruption class to its typed
// reason so operators can tell a truncated disk from a flipped bit from
// a software rollback in /v1/stats.
func TestStoreCorruptReasonsTyped(t *testing.T) {
	key := testKey(64)
	payload := []byte("the payload bytes")
	write := func(t *testing.T, dir string, mutate func(h *header, payload []byte) ([]byte, []byte)) {
		t.Helper()
		h := header{
			Magic:  fileMagic,
			Schema: SchemaVersion,
			Kind:   KindJIT,
			Key:    key.String(),
			Len:    int64(len(payload)),
			Sum:    strconv.FormatUint(HashBytes(payload), 16),
		}
		hb, pb := mutate(&h, append([]byte(nil), payload...))
		if hb == nil {
			b, err := json.Marshal(&h)
			if err != nil {
				t.Fatal(err)
			}
			hb = b
		}
		data := append(append(hb, '\n'), pb...)
		path := filepath.Join(dir, key.ID(KindJIT)+fileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		reason string
		mutate func(h *header, payload []byte) ([]byte, []byte)
	}{
		{"bad_magic", CorruptMagic, func(h *header, p []byte) ([]byte, []byte) {
			h.Magic = "nope"
			return nil, p
		}},
		{"wrong_checksum", CorruptChecksum, func(h *header, p []byte) ([]byte, []byte) {
			h.Sum = "deadbeef"
			return nil, p
		}},
		{"short_payload", CorruptTruncated, func(h *header, p []byte) ([]byte, []byte) {
			return nil, p[:len(p)-4]
		}},
		{"garbage_header", CorruptHeader, func(h *header, p []byte) ([]byte, []byte) {
			return []byte(`{"magic": truncated garbage`), p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir, tc.mutate)
			s := openStore(t, dir)
			hit := s.Load(KindJIT, key, func([]byte) error { return nil })
			if hit {
				t.Fatal("corrupt artifact served as a hit")
			}
			reasons := s.Stats()["corrupt"].(map[string]any)["reasons"].(map[string]int64)
			if reasons[tc.reason] == 0 {
				t.Errorf("reason %q not recorded; got %v", tc.reason, reasons)
			}
		})
	}
}

// TestStoreDecodeRejectionQuarantines covers the last line of defense:
// bytes that pass every integrity check but decode to an invalid
// artifact are counted under the decode reason and quarantined.
func TestStoreDecodeRejectionQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(64)
	if err := s.Save(KindJIT, key, []byte("checksummed but semantically invalid")); err != nil {
		t.Fatal(err)
	}
	hit := s.Load(KindJIT, key, func([]byte) error { return fmt.Errorf("not a program set") })
	if hit {
		t.Fatal("rejected decode reported a hit")
	}
	reasons := s.Stats()["corrupt"].(map[string]any)["reasons"].(map[string]int64)
	if reasons[CorruptDecode] == 0 {
		t.Errorf("decode reason not recorded; got %v", reasons)
	}
	if s.Len() != 0 {
		t.Error("undecodable artifact still indexed")
	}
	if _, err := os.Stat(s.pathFor(key.ID(KindJIT))); !os.IsNotExist(err) {
		t.Error("undecodable artifact not quarantined from disk")
	}
}

// TestStoreQuarantineOnOpen drops unreadable garbage beside a valid
// artifact and reopens: the garbage is counted and removed, the valid
// artifact survives.
func TestStoreQuarantineOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(64)
	payload := []byte("good payload")
	if err := s.Save(KindJIT, key, payload); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "v2-junk"+fileExt)
	if err := os.WriteFile(junk, []byte("no header here, just noise"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if s2.Len() != 1 {
		t.Errorf("reopened store indexes %d artifacts, want 1", s2.Len())
	}
	if s2.CorruptCount() != 1 {
		t.Errorf("corrupt count = %d, want 1", s2.CorruptCount())
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Error("garbage file not quarantined by the scan")
	}
	if got := loadPayload(s2, KindJIT, key); !bytes.Equal(got, payload) {
		t.Errorf("valid artifact lost in quarantine sweep: got %q", got)
	}
}

func TestStoreList(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Save(KindJIT, testKey(64), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(KindJIT, testKey(128), []byte("two")); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(list))
	}
	if list[0].ID > list[1].ID {
		t.Error("List not sorted by ID")
	}
	for _, e := range list {
		if e.Schema != SchemaVersion || e.Kind != KindJIT || e.Size <= 0 {
			t.Errorf("bad entry %+v", e)
		}
	}
	// Reopening indexes the same entries from the directory scan.
	if got := openStore(t, dir).List(); len(got) != 2 || got[0] != list[0] || got[1] != list[1] {
		t.Errorf("reopened List = %+v, want %+v", got, list)
	}
}

// TestKindsShareKeyWithoutCollision saves plan and jit artifacts under
// the same invocation key and requires two distinct disk files, each
// loading its own payload. Before IDs were kind-qualified these hashed
// to the same filename and the second save silently overwrote the
// first.
func TestKindsShareKeyWithoutCollision(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(48)
	jit := []byte("jit bytecode payload")
	plan := []byte("plan descriptor payload")
	if err := s.Save(KindJIT, key, jit); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(KindPlan, key, plan); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("store indexes %d entries for two kinds of one key, want 2", s.Len())
	}
	if got := loadPayload(s, KindJIT, key); !bytes.Equal(got, jit) {
		t.Errorf("jit payload = %q, want %q", got, jit)
	}
	if got := loadPayload(s, KindPlan, key); !bytes.Equal(got, plan) {
		t.Errorf("plan payload = %q, want %q", got, plan)
	}
	// Survives a reopen: both files on disk, both load.
	s2 := openStore(t, dir)
	if s2.Len() != 2 {
		t.Fatalf("reopened store indexes %d entries, want 2", s2.Len())
	}
	if got := loadPayload(s2, KindJIT, key); !bytes.Equal(got, jit) {
		t.Errorf("reopened jit payload = %q, want %q", got, jit)
	}
	if got := loadPayload(s2, KindPlan, key); !bytes.Equal(got, plan) {
		t.Errorf("reopened plan payload = %q, want %q", got, plan)
	}
}
