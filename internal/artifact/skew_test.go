package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fixture returns a committed stale-schema artifact fixture (raw file
// bytes and filename) matching the glob prefix. Each file was written
// by a hypothetical older binary: valid header, valid checksum, old
// schema number — readable, verifiable, and still unloadable, because
// the payload shape is behind the current schema.
func fixture(t *testing.T, prefix string) (name string, raw []byte) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("testdata", "artifacts", prefix+"-*"+fileExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one committed %s fixture, got %v (err %v)", prefix, matches, err)
	}
	raw, err = os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(matches[0]), raw
}

// fixtureV1 is the schema-1 jit-kind fixture.
func fixtureV1(t *testing.T) (string, []byte) { return fixture(t, "v1") }

// fixtureV3Plan is the schema-3 plan-kind fixture: written by the last
// release before plan descriptors changed shape (and before file IDs
// became kind-qualified — its filename hashes the key alone).
func fixtureV3Plan(t *testing.T) (string, []byte) { return fixture(t, "v3") }

// fixtureV4 is the schema-4 jit-kind fixture: the last release that
// wrote one file per artifact, before packs.
func fixtureV4(t *testing.T) (string, []byte) { return fixture(t, "v4") }

// fixtureV5 is a schema-5 pack, committed by pbserve (Heat1D, n=32: a
// plan entry and a gob-encoded jit entry) before the jit payload left
// gob. Its checksums hold; only its schema number keeps it out.
func fixtureV5(t *testing.T) (string, []byte) { return fixture(t, "v5") }

// fixtureV6 is a schema-6 pack, committed by pbserve (Heat1D, n=32: a
// plan entry and a jit entry in the binary codec) before jit programs
// gained call sites.
func fixtureV6(t *testing.T) (string, []byte) { return fixture(t, "v6") }

// fixtureV7 is a schema-7 pack, committed by pbserve (Heat1D, n=32: a
// plan entry and a jit entry with an empty call-site table) before the
// jit instruction set gained rotated loops.
func fixtureV7(t *testing.T) (string, []byte) { return fixture(t, "v7") }

// fixtureV8 is a schema-8 pack, committed by an engine over a disk store
// (Heat1D, n=32: one jit entry) before the jit instruction set gained
// the if-converted rules' sel.
func fixtureV8(t *testing.T) (string, []byte) { return fixture(t, "v8") }

// fixtureV9 is a schema-9 pack, committed by a pooled engine over a disk
// store (Heat1D, n=32: a plan entry and a jit entry) while a plan was
// persisted as a CSR descriptor rather than its own tasks and edges.
func fixtureV9(t *testing.T) (string, []byte) { return fixture(t, "v9") }

// TestVersionSkewRejectedOnOpen opens a store over a directory holding
// artifacts from older schema versions — one from schema 1, one
// single-artifact file from schema 4, the format packs replaced, a
// schema-5 pack whose jit entry is a gob stream, a schema-6 pack whose
// jit entry predates call sites, a schema-7 pack whose jit entry
// predates rotated loops, a schema-8 pack whose jit entry predates sel,
// and a schema-9 pack whose plan entry is a CSR descriptor. The store
// must reject each cleanly — counted under the schema reason,
// never indexed, never served — while leaving the files in place (a
// rollback to the older binary may still want them). The caller's
// recompile path then commits a current-schema pack beside them
// without interference.
func TestVersionSkewRejectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	var stale []string
	for _, fx := range []func(*testing.T) (string, []byte){fixtureV1, fixtureV4, fixtureV5, fixtureV6, fixtureV7, fixtureV8, fixtureV9} {
		name, raw := fx(t)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, path)
	}
	keep := func(s *Store, when string) {
		t.Helper()
		if s.CorruptCount() != 7 {
			t.Errorf("%s: corrupt count = %d, want 7", when, s.CorruptCount())
		}
		reasons := s.corruptReasons()
		if reasons[CorruptSchema] != 7 {
			t.Errorf("%s: schema reason count = %d, want 7 (reasons %v)", when, reasons[CorruptSchema], reasons)
		}
		for _, path := range stale {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: schema-skewed %s was quarantined; want kept in place: %v", when, filepath.Base(path), err)
			}
		}
	}

	s := openStore(t, dir)
	if s.Len() != 0 {
		t.Fatalf("stale artifacts indexed by a v%d store", SchemaVersion)
	}
	keep(s, "open")

	// The recompile path: a miss, then a current-schema commit, then
	// hits. The v4 fixture's own key misses too.
	key := testKey(64)
	v4Key := Key{Prog: HashString("fixture program"), Transform: "Heat1D", Sizes: "n=33", ConfigFP: 0xcbf29ce484222325, Engine: 2}
	if loadPayload(s, KindJIT, key) != nil || loadPayload(s, KindJIT, v4Key) != nil {
		t.Fatal("load hit against a store holding only stale artifacts")
	}
	fresh := []byte("recompiled under the current schema")
	commit(t, s, item{KindJIT, key, fresh})
	if got := loadPayload(s, KindJIT, key); !bytes.Equal(got, fresh) {
		t.Errorf("recompiled artifact loads %q, want %q", got, fresh)
	}
	// Reopen: still exactly one valid entry, the stale files still
	// there, still counted.
	s2 := openStore(t, dir)
	if s2.Len() != 1 {
		t.Errorf("reopened store indexes %d artifacts, want 1", s2.Len())
	}
	keep(s2, "reopen")
}

// TestVersionSkewPlanKeptAndRebuilt is the plan-kind twin of the jit
// skew test: a schema-3 plan descriptor file (from before descriptors
// changed shape and IDs became kind-qualified) must be kept in place
// for rollback, counted under the schema reason, never indexed — and
// the rebuild path must persist a current-schema plan descriptor
// beside it for the same logical key without colliding.
func TestVersionSkewPlanKeptAndRebuilt(t *testing.T) {
	name, raw := fixtureV3Plan(t)
	dir := t.TempDir()
	stale := filepath.Join(dir, name)
	if err := os.WriteFile(stale, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openStore(t, dir)
	if s.Len() != 0 {
		t.Fatalf("v3 plan artifact indexed by a v%d store", SchemaVersion)
	}
	reasons := s.corruptReasons()
	if reasons[CorruptSchema] != 1 {
		t.Errorf("schema reason count = %d, want 1 (reasons %v)", reasons[CorruptSchema], reasons)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Errorf("schema-skewed plan artifact was quarantined; want kept in place: %v", err)
	}

	// The rebuild path: the interpreter misses, reconstructs the plan,
	// and commits the fresh descriptor under the current schema.
	key := testKey(32)
	if loadPayload(s, KindPlan, key) != nil {
		t.Fatal("load hit against a store holding only a v3 plan artifact")
	}
	fresh := []byte("plan descriptor rebuilt under the current schema")
	commit(t, s, item{KindPlan, key, fresh})
	if got := loadPayload(s, KindPlan, key); !bytes.Equal(got, fresh) {
		t.Errorf("rebuilt plan loads %q, want %q", got, fresh)
	}
	s2 := openStore(t, dir)
	if s2.Len() != 1 {
		t.Errorf("reopened store indexes %d artifacts, want 1", s2.Len())
	}
	if _, err := os.Stat(stale); err != nil {
		t.Errorf("stale plan fixture removed across reopen: %v", err)
	}
}
