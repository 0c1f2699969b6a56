package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// item is one artifact a test commits.
type item struct {
	kind    string
	key     Key
	payload []byte
}

// commit writes items to s as one pack, the way a top-level run does.
func commit(t testing.TB, s *Store, items ...item) {
	t.Helper()
	p := s.Pending()
	for _, it := range items {
		payload := it.payload
		p.Add(it.kind, it.key, func() ([]byte, error) { return payload, nil })
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
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

// packFiles returns the names of the pack files in dir.
func packFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+fileExt))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	return names
}

// mixedPack is the two-entry pack of the corruption tests: one plan and
// one jit artifact, as a cold run of a planned, jit-lowered transform
// commits them.
func mixedPack() []item {
	return []item{
		{KindPlan, testKey(64), []byte("plan descriptor payload: tasks, bounds, edges")},
		{KindJIT, testKey(64), []byte("jit bytecode payload")},
	}
}

// writeMixedPack commits mixedPack to a fresh directory and returns the
// pack's path and bytes.
func writeMixedPack(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	commit(t, openStore(t, dir), mixedPack()...)
	names := packFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("one commit wrote %d packs, want 1", len(names))
	}
	path := filepath.Join(dir, names[0])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, full
}

// checkEntries opens a store on dir and loads every item: each must be
// served bit-identical or missed with a typed corruption reason on
// record. Serving modified bytes is the one outcome that is never
// acceptable. It returns how many items were served.
func checkEntries(t *testing.T, dir string, items []item) int {
	t.Helper()
	s := openStore(t, dir)
	served := 0
	for _, it := range items {
		got := loadPayload(s, it.kind, it.key)
		switch {
		case got == nil:
			if s.CorruptCount() == 0 {
				t.Fatalf("%s entry missed with no corruption reason on record", it.kind)
			}
		case !bytes.Equal(got, it.payload):
			t.Fatalf("%s entry served modified payload %q", it.kind, got)
		default:
			served++
		}
	}
	reasons := s.corruptReasons()
	for r := range reasons {
		switch r {
		case CorruptHeader, CorruptMagic, CorruptSchema, CorruptTruncated, CorruptChecksum, CorruptDecode:
		default:
			t.Fatalf("untyped corruption reason %q", r)
		}
	}
	return served
}

// rewrite replaces dir's contents with one file.
func rewrite(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(64)
	payload := []byte("serialized bytecode payload")
	commit(t, s, item{KindJIT, key, payload})
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
	commit(t, s, item{KindJIT, testKey(64), []byte("x")})
	if loadPayload(s, KindJIT, testKey(128)) != nil {
		t.Error("load under a different key served another key's artifact")
	}
	if loadPayload(s, KindPlan, testKey(64)) != nil {
		t.Error("load under a different kind served another kind's artifact")
	}
}

func TestMemOnlyStoreNeverTouchesDisk(t *testing.T) {
	s := NewMemOnly()
	if s.Persistent() {
		t.Fatal("memory-only store claims persistence")
	}
	p := s.Pending()
	if p != nil {
		t.Fatal("memory-only store handed out a pending set")
	}
	p.Add(KindJIT, testKey(1), func() ([]byte, error) {
		t.Fatal("memory-only store encoded an artifact")
		return nil, nil
	})
	if err := p.Commit(); err != nil {
		t.Fatalf("Commit on memory-only store: %v", err)
	}
	if s.Load(KindJIT, testKey(1), func([]byte) error { return nil }) {
		t.Error("memory-only Load reported a hit")
	}
}

// TestPendingEncodesOnceAtCommit pins the collect-then-commit contract:
// Add never encodes, a repeated (kind, key) encodes once, at Commit,
// with whatever the artifact holds by then; an artifact without a
// persistent form (nil payload) is skipped; the whole set is one pack.
func TestPendingEncodesOnceAtCommit(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	p := s.Pending()
	calls := 0
	grown := []byte("v1")
	enc := func() ([]byte, error) {
		calls++
		return grown, nil
	}
	p.Add(KindJIT, testKey(8), enc)
	p.Add(KindJIT, testKey(8), enc)
	p.Add(KindPlan, testKey(8), func() ([]byte, error) { return []byte("plan"), nil })
	p.Add(KindPlan, testKey(16), func() ([]byte, error) { return nil, nil })
	grown = []byte("v2, grown after Add")
	if calls != 0 {
		t.Fatalf("Add encoded %d times before Commit", calls)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("repeated Add encoded %d times, want 1", calls)
	}
	if got := loadPayload(s, KindJIT, testKey(8)); !bytes.Equal(got, grown) {
		t.Errorf("committed %q, want the payload at commit time %q", got, grown)
	}
	if s.Len() != 2 || len(packFiles(t, dir)) != 1 {
		t.Errorf("%d entries in %d packs, want 2 in 1", s.Len(), len(packFiles(t, dir)))
	}
	// The set is empty after a commit: a second Commit writes nothing.
	if err := p.Commit(); err != nil || len(packFiles(t, dir)) != 1 {
		t.Errorf("empty commit: err %v, %d packs", err, len(packFiles(t, dir)))
	}
}

// TestStoreCrashMidSave simulates every state a crash during a commit
// can leave behind — the temp file written but not renamed, with and
// without an earlier pack — and requires the store to come back
// serving either the earlier pack's entries or a clean miss, never a
// torn read, and to delete the temp file.
func TestStoreCrashMidSave(t *testing.T) {
	_, full := writeMixedPack(t)
	openLogged := func(t *testing.T, dir string) (*Store, string) {
		var log strings.Builder
		s, err := Open(dir, Options{Logf: func(f string, a ...any) { fmt.Fprintf(&log, f+"\n", a...) }})
		if err != nil {
			t.Fatal(err)
		}
		return s, log.String()
	}
	checkTmpGone := func(t *testing.T, tmp, log string) {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("temp file of the unfinished commit survived Open: %v", err)
		}
		if !strings.Contains(log, filepath.Base(tmp)) {
			t.Errorf("removal of %s not logged; log:\n%s", filepath.Base(tmp), log)
		}
	}

	t.Run("no_prior_version", func(t *testing.T) {
		dir := t.TempDir()
		// The moment before rename: a half-written temp file exists and
		// no pack does.
		tmp := filepath.Join(dir, "v9-0000000000000001.pba.tmp12345")
		if err := os.WriteFile(tmp, full[:len(full)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		s, log := openLogged(t, dir)
		if s.Len() != 0 {
			t.Errorf("temp file was indexed: %d entries", s.Len())
		}
		for _, it := range mixedPack() {
			if loadPayload(s, it.kind, it.key) != nil {
				t.Errorf("load served a half-written %s entry", it.kind)
			}
		}
		if s.CorruptCount() != 0 {
			t.Errorf("temp file counted corrupt %d times", s.CorruptCount())
		}
		checkTmpGone(t, tmp, log)
	})

	t.Run("prior_version_intact", func(t *testing.T) {
		dir := t.TempDir()
		commit(t, openStore(t, dir), mixedPack()...)
		// The next commit, mid-write: a partial pack that would have
		// superseded the jit entry.
		tmp := filepath.Join(dir, "v9-0000000000000002.pba.tmp67890")
		if err := os.WriteFile(tmp, full[:len(full)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		s, log := openLogged(t, dir)
		for _, it := range mixedPack() {
			if got := loadPayload(s, it.kind, it.key); !bytes.Equal(got, it.payload) {
				t.Errorf("after simulated crash, %s load = %q, want prior version %q", it.kind, got, it.payload)
			}
		}
		if s.CorruptCount() != 0 {
			t.Errorf("intact prior pack counted corrupt %d times", s.CorruptCount())
		}
		checkTmpGone(t, tmp, log)
	})
}

// TestStoreTruncationRejected cuts a two-entry pack at every byte. Open
// checks a pack's length against its header and index, so every cut
// must reject both entries with a typed reason — never a hit, never a
// panic — and the uncut pack must serve both.
func TestStoreTruncationRejected(t *testing.T) {
	path, full := writeMixedPack(t)
	dir, name := filepath.Dir(path), filepath.Base(path)
	items := mixedPack()
	for cut := 0; cut < len(full); cut++ {
		t.Run(fmt.Sprintf("cut_at_%d", cut), func(t *testing.T) {
			rewrite(t, dir, name, full[:cut])
			if served := checkEntries(t, dir, items); served != 0 {
				t.Fatalf("pack cut at %d of %d bytes served %d entries", cut, len(full), served)
			}
		})
	}
	rewrite(t, dir, name, full)
	if served := checkEntries(t, dir, items); served != len(items) {
		t.Fatalf("intact pack served %d of %d entries", served, len(items))
	}
}

// TestStoreBitFlipRejected flips every bit of a two-entry pack's header
// and index, and bits 0, 3 and 6 of every payload byte. Each entry must
// be served bit-identical or rejected with a typed reason; a payload
// flip must reject the entry it lands in and leave the other served.
func TestStoreBitFlipRejected(t *testing.T) {
	path, full := writeMixedPack(t)
	dir, name := filepath.Dir(path), filepath.Base(path)
	items := mixedPack()
	s := openStore(t, dir)
	payloadStart := int(s.List()[0].Offset)
	for _, e := range s.List() {
		payloadStart = min(payloadStart, int(e.Offset))
	}
	rejected := 0
	for pos := 0; pos < len(full); pos++ {
		step := 1
		if pos >= payloadStart {
			step = 3
		}
		for bit := 0; bit < 8; bit += step {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			rewrite(t, dir, name, mut)
			served := checkEntries(t, dir, items)
			if pos >= payloadStart && served != len(items)-1 {
				t.Fatalf("payload flip at byte %d bit %d: %d entries served, want %d", pos, bit, served, len(items)-1)
			}
			rejected += len(items) - served
		}
	}
	if rejected == 0 {
		t.Error("no bit flip was rejected; corruption detection exercised nothing")
	}
	// Restore: the store recovers once the bytes are right again.
	rewrite(t, dir, name, full)
	if served := checkEntries(t, dir, items); served != len(items) {
		t.Errorf("restored pack served %d of %d entries", served, len(items))
	}
}

// TestStoreCorruptReasonsTyped pins each corruption class to its typed
// reason so operators can tell a truncated disk from a flipped bit from
// a software rollback in /v1/stats.
func TestStoreCorruptReasonsTyped(t *testing.T) {
	key := testKey(64)
	payload := []byte("the payload bytes")
	dir0 := t.TempDir()
	commit(t, openStore(t, dir0), item{KindJIT, key, payload})
	name := packFiles(t, dir0)[0]
	full, err := os.ReadFile(filepath.Join(dir0, name))
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(full, '\n')
	cases := []struct {
		name   string
		reason string
		mutate func(raw []byte) []byte
	}{
		{"bad_magic", CorruptMagic, func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(`"magic":"`+fileMagic+`"`), []byte(`"magic":"nope"`), 1)
		}},
		{"wrong_checksum", CorruptChecksum, func(raw []byte) []byte {
			raw[len(raw)-1] ^= 0x01
			return raw
		}},
		{"short_payload", CorruptTruncated, func(raw []byte) []byte {
			return raw[:len(raw)-4]
		}},
		{"trailing_bytes", CorruptTruncated, func(raw []byte) []byte {
			return append(raw, "appended"...)
		}},
		{"garbage_header", CorruptHeader, func(raw []byte) []byte {
			return append([]byte(`{"magic": truncated garbage`), raw[nl:]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rewrite(t, dir, name, tc.mutate(append([]byte(nil), full...)))
			s := openStore(t, dir)
			if s.Load(KindJIT, key, func([]byte) error { return nil }) {
				t.Fatal("corrupt artifact served as a hit")
			}
			reasons := s.corruptReasons()
			if reasons[tc.reason] == 0 {
				t.Errorf("reason %q not recorded; got %v", tc.reason, reasons)
			}
		})
	}
}

// TestStoreDecodeRejectionQuarantines covers the last line of defense:
// bytes that pass every integrity check but decode to an invalid
// artifact are counted under the decode reason and dropped; the pack
// goes once none of its entries is left to serve.
func TestStoreDecodeRejectionQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	items := mixedPack()
	commit(t, s, items...)
	reject := func(it item) {
		if s.Load(it.kind, it.key, func([]byte) error { return fmt.Errorf("not a program set") }) {
			t.Fatal("rejected decode reported a hit")
		}
	}
	reject(items[1])
	reasons := s.corruptReasons()
	if reasons[CorruptDecode] != 1 {
		t.Errorf("decode reason not recorded once; got %v", reasons)
	}
	if s.Len() != 1 || len(packFiles(t, dir)) != 1 {
		t.Fatalf("after one rejection: %d entries, %d packs; want the other entry still served", s.Len(), len(packFiles(t, dir)))
	}
	if got := loadPayload(s, items[0].kind, items[0].key); !bytes.Equal(got, items[0].payload) {
		t.Errorf("sibling entry lost with the rejected one: got %q", got)
	}
	reject(items[0])
	if s.Len() != 0 {
		t.Error("undecodable artifacts still indexed")
	}
	if n := len(packFiles(t, dir)); n != 0 {
		t.Errorf("pack with no entry left to serve not quarantined from disk (%d packs)", n)
	}
}

// TestStoreQuarantineOnOpen drops unreadable garbage beside a valid
// pack and reopens: the garbage is counted and removed, the valid pack
// survives.
func TestStoreQuarantineOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(64)
	payload := []byte("good payload")
	commit(t, s, item{KindJIT, key, payload})
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

// TestStoreList lists two entries of one pack and reads each payload
// back from the pack file at the listed offset.
func TestStoreList(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	one, two := []byte("one"), []byte("two, longer")
	commit(t, s, item{KindJIT, testKey(64), one}, item{KindJIT, testKey(128), two})
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(list))
	}
	if list[0].ID > list[1].ID {
		t.Error("List not sorted by ID")
	}
	for _, e := range list {
		if e.Kind != KindJIT || e.Size <= 0 || e.Pack != list[0].Pack {
			t.Errorf("bad entry %+v", e)
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Pack))
		if err != nil {
			t.Fatal(err)
		}
		got := raw[e.Offset : e.Offset+e.Size]
		if want := map[string][]byte{testKey(64).String(): one, testKey(128).String(): two}[e.Key]; !bytes.Equal(got, want) {
			t.Errorf("entry %s reads %q from its pack, want %q", e.Key, got, want)
		}
	}
	// Reopening indexes the same entries from the directory scan.
	if got := openStore(t, dir).List(); len(got) != 2 || got[0] != list[0] || got[1] != list[1] {
		t.Errorf("reopened List = %+v, want %+v", got, list)
	}
}

// TestKindsShareKeyWithoutCollision commits plan and jit artifacts under
// the same invocation key and requires two distinct entries, each
// loading its own payload. Before IDs were kind-qualified these hashed
// to the same identity and the second overwrote the first.
func TestKindsShareKeyWithoutCollision(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	key := testKey(48)
	jit := []byte("jit bytecode payload")
	plan := []byte("plan descriptor payload")
	commit(t, s, item{KindJIT, key, jit}, item{KindPlan, key, plan})
	if s.Len() != 2 {
		t.Fatalf("store indexes %d entries for two kinds of one key, want 2", s.Len())
	}
	if got := loadPayload(s, KindJIT, key); !bytes.Equal(got, jit) {
		t.Errorf("jit payload = %q, want %q", got, jit)
	}
	if got := loadPayload(s, KindPlan, key); !bytes.Equal(got, plan) {
		t.Errorf("plan payload = %q, want %q", got, plan)
	}
	// Survives a reopen.
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

// TestPackNewestWinsAfterReopen commits an entry twice, in two packs:
// the later commit serves it in-process and after a reopen — decided by
// the sequence number in the checksummed index, not by file names —
// while the older pack keeps serving the entry only it holds.
func TestPackNewestWinsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	plan, old, grown := []byte("plan"), []byte("jit: rule 0"), []byte("jit: rules 0 and 1")
	commit(t, s, item{KindPlan, testKey(64), plan}, item{KindJIT, testKey(64), old})
	commit(t, s, item{KindJIT, testKey(64), grown})
	check := func(s *Store, when string) {
		t.Helper()
		if got := loadPayload(s, KindJIT, testKey(64)); !bytes.Equal(got, grown) {
			t.Errorf("%s: jit = %q, want the newer %q", when, got, grown)
		}
		if got := loadPayload(s, KindPlan, testKey(64)); !bytes.Equal(got, plan) {
			t.Errorf("%s: plan = %q, want %q", when, got, plan)
		}
	}
	check(s, "in-process")
	names := packFiles(t, dir)
	if len(names) != 2 {
		t.Fatalf("%d packs on disk, want 2 (the older still serves the plan)", len(names))
	}
	check(openStore(t, dir), "reopened")

	// Swap the names so the older pack sorts last.
	a, b := filepath.Join(dir, names[0]), filepath.Join(dir, names[1])
	tmp := filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	check(openStore(t, dir), "reopened with swapped names")

	// A commit after the reopen still outranks both.
	s3 := openStore(t, dir)
	newest := []byte("jit: rules 0, 1 and 2")
	commit(t, s3, item{KindJIT, testKey(64), newest})
	if got := loadPayload(openStore(t, dir), KindJIT, testKey(64)); !bytes.Equal(got, newest) {
		t.Errorf("commit after reopen: jit = %q, want %q", got, newest)
	}
}

// TestPackSupersededDeleted keeps disk use bounded: a pack whose every
// entry a newer commit supersedes is deleted at that commit, and one a
// crash left behind between rename and delete is deleted by Open.
func TestPackSupersededDeleted(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	commit(t, s, item{KindJIT, testKey(64), []byte("old")})
	oldName := packFiles(t, dir)[0]
	oldRaw, err := os.ReadFile(filepath.Join(dir, oldName))
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s, item{KindJIT, testKey(64), []byte("new")})
	if names := packFiles(t, dir); len(names) != 1 || names[0] == oldName {
		t.Fatalf("packs after superseding commit = %v, want only the new one", names)
	}
	if packs, entries := s.livePacks(), s.Len(); packs != 1 || entries != 1 {
		t.Errorf("index serves %d entries from %d packs, want 1 pack, 1 entry", entries, packs)
	}

	// The crash window: the superseded pack is back on disk.
	if err := os.WriteFile(filepath.Join(dir, oldName), oldRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if got := loadPayload(s2, KindJIT, testKey(64)); string(got) != "new" {
		t.Errorf("reopened jit = %q, want %q", got, "new")
	}
	if names := packFiles(t, dir); len(names) != 1 || names[0] == oldName {
		t.Errorf("packs after reopen = %v, want the superseded one deleted", names)
	}
	if s2.CorruptCount() != 0 {
		t.Errorf("superseded pack counted corrupt %d times", s2.CorruptCount())
	}
}

// TestPendingConcurrentCommits races commits that each write a key of
// their own and rewrite a shared one. Every key must survive a reopen,
// and no pack may outlive its last live entry.
func TestPendingConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			commit(t, s, item{KindJIT, testKey(1000 + i), []byte(fmt.Sprint("own ", i))},
				item{KindPlan, testKey(1), []byte(fmt.Sprint("shared ", i))})
		}(i)
	}
	wg.Wait()
	s2 := openStore(t, dir)
	for i := 0; i < n; i++ {
		if got := loadPayload(s2, KindJIT, testKey(1000+i)); string(got) != fmt.Sprint("own ", i) {
			t.Errorf("key %d = %q", i, got)
		}
	}
	if got := loadPayload(s2, KindPlan, testKey(1)); !strings.HasPrefix(string(got), "shared ") {
		t.Errorf("shared key = %q", got)
	}
	if got := len(packFiles(t, dir)); got != n {
		t.Errorf("%d packs on disk, want %d (each still serves its own key)", got, n)
	}
}
