package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCoalesceSharedResult: every caller that joins while an execution
// is in flight must observe that execution's value, and the function
// runs exactly once. The leader's fn blocks on a gate until all
// followers have registered, so the test is deterministic.
func TestCoalesceSharedResult(t *testing.T) {
	c := NewCoalescer(0)
	var execs atomic.Int64
	const followerCount = 31
	gate := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, f := c.Do("sort/256/1", func() (any, error) {
			execs.Add(1)
			<-gate
			return "result-42", nil
		})
		if v != "result-42" || err != nil || f {
			t.Errorf("leader: got %v, %v, follower=%v", v, err, f)
		}
	}()
	// Wait until the leader is inside fn, then pile followers on.
	for execs.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	results := make([]any, followerCount)
	followers := make([]bool, followerCount)
	for i := 0; i < followerCount; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, f := c.Do("sort/256/1", func() (any, error) {
				execs.Add(1)
				return "rogue", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
			followers[i] = f
		}(i)
	}
	// Release the leader once every follower has joined the call.
	for c.Followers() < followerCount {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
	for i, v := range results {
		if v != "result-42" {
			t.Fatalf("caller %d observed %v", i, v)
		}
		if !followers[i] {
			t.Fatalf("caller %d not marked as follower", i)
		}
	}
	if c.Leaders() != 1 || c.Followers() != followerCount {
		t.Fatalf("counters leaders=%d followers=%d", c.Leaders(), c.Followers())
	}
}

// TestCoalesceDistinctKeys: different keys never share an execution.
func TestCoalesceDistinctKeys(t *testing.T) {
	c := NewCoalescer(5 * time.Millisecond)
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			v, err, _ := c.Do(key, func() (any, error) {
				execs.Add(1)
				return key, nil
			})
			if err != nil || v != key {
				t.Errorf("key %s: got %v, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 8 {
		t.Fatalf("executed %d times, want 8", got)
	}
}

// TestCoalesceErrorShared: a leader's error propagates to every
// follower of that execution.
func TestCoalesceErrorShared(t *testing.T) {
	c := NewCoalescer(10 * time.Millisecond)
	boom := errors.New("boom")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err, _ := c.Do("k", func() (any, error) { return nil, boom })
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d got %v, want boom", i, err)
		}
	}
}

// TestCoalesceSequentialNotShared: once an execution finishes, the
// next caller for the same key starts fresh — results are never cached
// past the in-flight window.
func TestCoalesceSequentialNotShared(t *testing.T) {
	c := NewCoalescer(0)
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		_, _, follower := c.Do("k", func() (any, error) {
			execs.Add(1)
			return i, nil
		})
		if follower {
			t.Fatalf("sequential call %d coalesced", i)
		}
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("executed %d times, want 3", got)
	}
}

// TestCoalesceNil: a nil coalescer executes directly.
func TestCoalesceNil(t *testing.T) {
	var c *Coalescer
	v, err, follower := c.Do("k", func() (any, error) { return 7, nil })
	if v != 7 || err != nil || follower {
		t.Fatalf("nil coalescer: %v %v %v", v, err, follower)
	}
}
