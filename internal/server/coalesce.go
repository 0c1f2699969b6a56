package server

import (
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/obs"
)

// Coalescer collapses concurrent identical requests into one
// execution: the first caller for a key becomes the leader, waits one
// micro-batch window so identical requests arriving just behind it can
// pile on, then runs the function once; every caller observes the same
// result. Benchmark executions are deterministic in (program, n, seed,
// accuracy), so sharing the result is semantically invisible — what
// the followers save is an admission slot and a full execution each,
// which is what lets a node absorb bursts of hot identical keys.
//
// The zero value is not usable; construct with NewCoalescer. A nil
// *Coalescer executes everything directly (no coalescing).
type Coalescer struct {
	window time.Duration
	mu     sync.Mutex
	calls  map[string]*call

	leaders   atomic.Int64
	followers atomic.Int64
}

// call is one in-flight coalesced execution.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// NewCoalescer builds a coalescer whose leaders linger window before
// executing (0: no lingering; concurrent duplicates still coalesce,
// but back-to-back sequential ones do not).
func NewCoalescer(window time.Duration) *Coalescer {
	return &Coalescer{window: window, calls: map[string]*call{}}
}

// Do executes fn under key, coalescing with any in-flight execution of
// the same key. It reports the shared result and whether this caller
// was a follower (joined an execution it did not start).
func (c *Coalescer) Do(key string, fn func() (any, error)) (v any, err error, follower bool) {
	if c == nil {
		v, err = fn()
		return v, err, false
	}
	c.mu.Lock()
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		c.followers.Add(1)
		<-cl.done
		return cl.val, cl.err, true
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()
	c.leaders.Add(1)

	if c.window > 0 {
		time.Sleep(c.window) // micro-batch: let duplicates pile on
	}
	cl.val, cl.err = fn()

	// Unregister before signalling: a caller arriving after this point
	// starts a fresh execution instead of observing a stale result.
	c.mu.Lock()
	delete(c.calls, key)
	c.mu.Unlock()
	close(cl.done)
	return cl.val, cl.err, false
}

// Leaders returns how many executions ran (nil: 0).
func (c *Coalescer) Leaders() int64 {
	if c == nil {
		return 0
	}
	return c.leaders.Load()
}

// Followers returns how many callers shared a leader's result.
func (c *Coalescer) Followers() int64 {
	if c == nil {
		return 0
	}
	return c.followers.Load()
}

// Instrument registers the coalescer's counters.
func (c *Coalescer) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("pb_server_coalesce_total", "Coalesced run requests by role.", c.leaders.Load, obs.L("role", "leader"))
	reg.CounterFunc("pb_server_coalesce_total", "Coalesced run requests by role.", c.followers.Load, obs.L("role", "follower"))
}
