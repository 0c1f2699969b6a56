package configstore

import (
	"testing"
	"time"
)

func TestLookupEdgeCases(t *testing.T) {
	s, _ := Open("", 10)
	// Empty store: miss, no panic.
	if _, _, ok := s.Lookup("sort", 100, 8); ok {
		t.Fatal("empty store lookup must miss")
	}
	// Size below the smallest stored bucket still matches it.
	s.Put(Key{"sort", 9, 8}, cfgWith(9), 1, time.Unix(1, 0))
	_, k, ok := s.Lookup("sort", 1, 8) // bucket 0
	if !ok || k.Bucket != 9 {
		t.Fatalf("below-smallest lookup: %v ok=%v, want bucket 9", k, ok)
	}
	// Size far above the largest stored bucket matches it too.
	_, k, ok = s.Lookup("sort", 1<<30, 8)
	if !ok || k.Bucket != 9 {
		t.Fatalf("above-largest lookup: %v ok=%v, want bucket 9", k, ok)
	}
}

// TestLookupDeterministicTieBreak: with candidates equidistant in both
// bucket and workers, the result is a fixed total order (larger bucket,
// then closest workers, then wider pool) — never map-iteration luck.
func TestLookupDeterministicTieBreak(t *testing.T) {
	mk := func() *Store {
		s, _ := Open("", 10)
		s.Put(Key{"sort", 10, 2}, cfgWith(10), 1, time.Unix(1, 0))
		s.Put(Key{"sort", 14, 6}, cfgWith(14), 1, time.Unix(1, 0))
		return s
	}
	// Want bucket 12, workers 4: both entries are 2 buckets away and 2
	// workers away. The larger bucket must win, every time.
	for i := 0; i < 50; i++ {
		_, k, ok := mk().Lookup("sort", 1<<12, 4)
		if !ok || k.Bucket != 14 {
			t.Fatalf("iteration %d: got %v, want bucket 14 (deterministic tie-break)", i, k)
		}
	}
	// Same bucket, both off-width: the closest worker count wins.
	s, _ := Open("", 10)
	s.Put(Key{"sort", 10, 3}, cfgWith(10), 1, time.Unix(1, 0))
	s.Put(Key{"sort", 10, 16}, cfgWith(10), 1, time.Unix(1, 0))
	_, k, _ := s.Lookup("sort", 1<<10, 4)
	if k.Workers != 3 {
		t.Fatalf("got workers %d, want 3 (closer to requested 4)", k.Workers)
	}
	// Same bucket, equal worker distance: the wider pool wins.
	s.Put(Key{"sort", 10, 5}, cfgWith(10), 1, time.Unix(1, 0))
	_, k, _ = s.Lookup("sort", 1<<10, 4)
	if k.Workers != 5 {
		t.Fatalf("got workers %d, want 5 (wider pool on exact tie)", k.Workers)
	}
}
