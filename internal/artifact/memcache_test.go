package artifact

import (
	"fmt"
	"sync"
	"testing"
)

func TestMemCacheGetOrCreate(t *testing.T) {
	c := NewMemCache(4)
	v, created := c.GetOrCreate("a", func() any { return 1 })
	if !created || v.(int) != 1 {
		t.Fatalf("first GetOrCreate = (%v, %v), want (1, true)", v, created)
	}
	v, created = c.GetOrCreate("a", func() any { return 2 })
	if created || v.(int) != 1 {
		t.Fatalf("second GetOrCreate = (%v, %v), want cached (1, false)", v, created)
	}
}

// TestMemCacheBoundAndEvict fills the cache past its bound and checks
// FIFO eviction order: exactly the oldest keys are gone, in the order
// they were inserted.
func TestMemCacheBoundAndEvict(t *testing.T) {
	const max = 4
	c := NewMemCache(max)
	for i := 0; i < max+3; i++ {
		c.GetOrCreate(fmt.Sprintf("k%d", i), func() any { return i })
		// Each insertion past the bound evicts exactly the oldest key.
		for j := 0; j <= i; j++ {
			if want := j > i-max; c.Contains(fmt.Sprintf("k%d", j)) != want {
				t.Fatalf("after inserting k%d: k%d cached = %v, want %v", i, j, !want, want)
			}
		}
	}
	if c.size() != max {
		t.Errorf("cache holds %d entries, want bound %d", c.size(), max)
	}
}

func TestMemCacheDefaultBound(t *testing.T) {
	c := NewMemCache(0)
	for i := 0; i < DefaultMemEntries+5; i++ {
		c.GetOrCreate(fmt.Sprintf("k%d", i), func() any { return nil })
	}
	if c.size() != DefaultMemEntries {
		t.Errorf("cache holds %d entries, want default bound %d", c.size(), DefaultMemEntries)
	}
}

// TestMemCacheConcurrent hammers one key from many goroutines; exactly
// one create may run and every caller must observe its value. Run under
// -race.
func TestMemCacheConcurrent(t *testing.T) {
	c := NewMemCache(8)
	var creates int // guarded by the cache lock: create runs under it
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, _ := c.GetOrCreate("shared", func() any {
					creates++
					return "value"
				})
				if v.(string) != "value" {
					t.Errorf("observed %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if creates != 1 {
		t.Errorf("create ran %d times, want exactly once", creates)
	}
}
