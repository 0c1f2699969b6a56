package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/autotuner"
	"petabricks/internal/configstore"
)

// tuneJob is one tuning request: train program up to size max, then key
// the result under the bucket of size.
type tuneJob struct {
	program string
	size    int64
	max     int64
	reply   chan tuneOutcome // non-nil: a client is waiting
}

// tuneOutcome reports one finished tuning run.
type tuneOutcome struct {
	Key      string
	Promoted bool
	NewCost  float64
	OldCost  float64
	Err      error
}

// tuner is the background tuning goroutine: it drains /v1/tune jobs
// one at a time. Tuning runs execute on the shared pool;
// configurations are promoted into the store only when measurably
// faster than the incumbent, re-measured back to back under current
// machine conditions.
type tuner struct {
	s    *Server
	jobs chan tuneJob
	quit chan struct{}
	done chan struct{}

	stopMu   sync.RWMutex
	stopping bool

	seed      atomic.Int64
	completed atomic.Int64
	promoted  atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64
}

func newTuner(s *Server) *tuner {
	t := &tuner{
		s:    s,
		jobs: make(chan tuneJob, 16),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	t.seed.Store(s.opts.Seed)
	return t
}

func (t *tuner) startLoop() { go t.loop() }

// stop shuts the tuning loop down and drains the queue: jobs still
// waiting are failed with a shutdown error so clients blocked on
// /v1/tune?wait unblock immediately instead of hanging the HTTP drain
// until its timeout. The stopping flag (checked under stopMu by
// enqueue) guarantees no job can slip into the queue after the drain.
func (t *tuner) stop() {
	t.stopMu.Lock()
	t.stopping = true
	t.stopMu.Unlock()
	close(t.quit)
	<-t.done
	for {
		select {
		case j := <-t.jobs:
			if j.reply != nil {
				j.reply <- tuneOutcome{Err: errors.New("server shutting down before tuning started")}
			}
		default:
			return
		}
	}
}

// enqueue hands a job to the tuning goroutine; false when the queue is
// full or the server is shutting down (the caller sheds).
func (t *tuner) enqueue(j tuneJob) bool {
	t.stopMu.RLock()
	defer t.stopMu.RUnlock()
	if t.stopping {
		return false
	}
	select {
	case t.jobs <- j:
		return true
	default:
		return false
	}
}

func (t *tuner) loop() {
	defer close(t.done)
	for {
		select {
		case j := <-t.jobs:
			t.run(j)
		case <-t.quit:
			return
		}
	}
}

func (t *tuner) run(j tuneJob) {
	out := t.tuneOnce(j)
	if out.Err != nil {
		t.failed.Add(1)
		t.s.opts.Logf("pbserve: tune %s failed: %v", j.program, out.Err)
	} else {
		t.completed.Add(1)
		if out.Promoted {
			t.promoted.Add(1)
		} else {
			t.rejected.Add(1)
		}
		t.s.opts.Logf("pbserve: tuned %s -> %s promoted=%v new=%.4gs old=%.4gs",
			j.program, out.Key, out.Promoted, out.NewCost, out.OldCost)
	}
	if j.reply != nil {
		j.reply <- out
	}
}

func (t *tuner) tuneOnce(j tuneJob) tuneOutcome {
	b, ok := t.s.reg.Get(j.program)
	if !ok {
		return tuneOutcome{Err: fmt.Errorf("unknown program %q", j.program)}
	}
	if !b.Tunable() {
		return tuneOutcome{Err: fmt.Errorf("program %q is not tunable", j.program)}
	}
	key := configstore.KeyFor(j.program, j.size, t.s.pool.NumWorkers())
	seed := t.seed.Add(1000)
	prog := b.Program(t.s.pool)
	trials := b.Trials
	if trials <= 0 {
		trials = 1
	}
	eval := &autotuner.WallClock{P: prog, Trials: trials, Seed: seed}
	opts := autotuner.Options{MinSize: b.MinSize, MaxSize: j.max}
	if b.CheckTol >= 0 {
		opts.Check = autotuner.ConsistencyCheck(prog, b.CheckTol, seed+1)
	}
	cfg, _, err := autotuner.Tune(b.Space(), eval, opts)
	if err != nil {
		return tuneOutcome{Key: key.String(), Err: err}
	}

	// Promotion gate: re-measure challenger and incumbent back to back at
	// the serving size so both see the same machine conditions; promote
	// only on a speedup beyond the margin. A fresh store always accepts.
	newCost := eval.Measure(cfg, j.size)
	oldCost := 0.0
	if old, _, had := t.s.store.Get(key); had {
		oldCost = eval.Measure(old, j.size)
	}
	promoted := t.s.store.Promote(key, cfg, newCost, oldCost, t.s.opts.PromoteMargin, time.Now())
	if promoted {
		if err := t.s.store.Save(); err != nil {
			t.s.opts.Logf("pbserve: store save failed: %v", err)
		}
	}
	return tuneOutcome{Key: key.String(), Promoted: promoted, NewCost: newCost, OldCost: oldCost}
}

// statsSnapshot reports tuner counters for /v1/stats.
func (t *tuner) statsSnapshot() map[string]any {
	return map[string]any{
		"queued":    len(t.jobs),
		"completed": t.completed.Load(),
		"promoted":  t.promoted.Load(),
		"rejected":  t.rejected.Load(),
		"failed":    t.failed.Load(),
	}
}
