package configstore

import (
	"path/filepath"
	"testing"
	"time"

	"petabricks/internal/choice"
)

// TestResolveEpoch: the epoch Resolve reports moves on every put,
// accepted promotion, eviction and load, and on nothing else; Rehit
// counts a kept answer exactly as Lookup counts it while the epoch
// stands, and refuses, counting nothing, once it has moved.
func TestResolveEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	cfg := choice.NewConfig()
	a, b, c := KeyFor("a", 64, 2), KeyFor("b", 64, 2), KeyFor("c", 64, 2)
	epoch := func() uint64 {
		_, _, _, ep := s.Resolve("none", 1, 1)
		return ep
	}
	moved := func(what string, f func()) {
		t.Helper()
		before := epoch()
		f()
		if epoch() == before {
			t.Errorf("%s did not move the epoch", what)
		}
	}
	stood := func(what string, f func()) {
		t.Helper()
		before := epoch()
		f()
		if epoch() != before {
			t.Errorf("%s moved the epoch", what)
		}
	}
	moved("put", func() { s.Put(a, cfg, 1, now) })
	moved("promotion", func() { s.Promote(b, cfg, 1, 0, 0.02, now) })
	stood("rejected promotion", func() { s.Promote(b, cfg, 1, 1, 0.02, now) })
	stood("lookup", func() { s.Lookup("a", 64, 2) })

	_, k, ok, ep := s.Resolve("a", 64, 2)
	if !ok || k != a {
		t.Fatalf("Resolve(a) = %v %v", k, ok)
	}
	s.Lookup("b", 64, 2) // b is now more recent than a
	st := s.Stats()
	if !s.Rehit(k, true, ep) || !s.Rehit(KeyFor("none", 1, 1), false, ep) {
		t.Fatal("Rehit refused while the epoch stood")
	}
	if got := s.Stats(); got.Hits != st.Hits+1 || got.Misses != st.Misses+1 {
		t.Errorf("Rehit counted hits %d->%d misses %d->%d, want one each", st.Hits, got.Hits, st.Misses, got.Misses)
	}
	// The rehit made a the most recently used, so a fill evicts b.
	moved("put with eviction", func() { s.Put(c, cfg, 1, now) })
	if _, _, ok := s.Get(b); ok {
		t.Error("b survived; the rehit did not refresh a's recency")
	}
	st = s.Stats()
	if s.Rehit(k, true, ep) {
		t.Error("Rehit accepted a stale epoch")
	}
	if got := s.Stats(); got.Hits != st.Hits || got.Misses != st.Misses {
		t.Error("a refused Rehit counted")
	}

	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path, 2); err != nil {
		t.Fatal(err)
	}
	if epoch() == 0 {
		t.Error("load did not move the epoch")
	}
}
