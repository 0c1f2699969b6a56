package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"petabricks/internal/obs"
)

// ErrPoolClosed is returned by Submit, TryRun and Run.SubmitAll after Close or
// Shutdown: the workers are (or will be) gone, so newly submitted work
// could never execute. It is deterministic — a closed pool never
// silently drops or hangs a submission.
var ErrPoolClosed = errors.New("runtime: pool is closed")

// Mode selects the scheduling discipline; the work-stealing mode is the
// paper's design, the central-queue mode exists as an ablation baseline.
type Mode int

// Scheduler modes.
const (
	// ModeWorkStealing uses per-worker deques with random victim
	// selection (the paper's scheduler).
	ModeWorkStealing Mode = iota
	// ModeCentralQueue funnels every task through one shared queue; used
	// by the scheduler ablation benchmark.
	ModeCentralQueue
)

// Pool is a fixed set of worker goroutines executing Tasks. Use NewPool,
// submit work with Run/Submit, and release the workers with Close.
type Pool struct {
	mode    Mode
	workers []*Worker

	// injected[injHead:] is the shared overflow queue, oldest first.
	injectMu sync.Mutex
	injected []*Task
	injHead  int

	sleepMu  sync.Mutex
	sleepCv  *sync.Cond
	sleeping int
	closed   atomic.Bool
	wg       sync.WaitGroup // worker goroutines still running

	// Recycled Run arenas (see run.go).
	runMu   sync.Mutex
	runFree []*Run

	// taskLat, when set by Instrument, times a sample of task executions
	// (see Worker.run). It is an atomic pointer so uninstrumented pools
	// pay one nil-check load.
	taskLat atomic.Pointer[obs.Histogram]
}

// NewPool starts a work-stealing pool with n workers. If n <= 0, it uses
// runtime.NumCPU().
func NewPool(n int) *Pool { return NewPoolMode(n, ModeWorkStealing) }

// NewPoolMode starts a pool with an explicit scheduling mode.
func NewPoolMode(n int, mode Mode) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p := &Pool{mode: mode}
	p.sleepCv = sync.NewCond(&p.sleepMu)
	p.workers = make([]*Worker, n)
	for i := range p.workers {
		p.workers[i] = &Worker{
			pool:  p,
			id:    i,
			deque: newDeque(),
			rng:   rand.New(rand.NewSource(int64(i)*7919 + 1)),
		}
	}
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w := w
		go func() {
			defer p.wg.Done()
			w.loop()
		}()
	}
	return p
}

// NumWorkers returns the number of worker goroutines.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Steals returns the number of successful steals so far (diagnostics).
func (p *Pool) Steals() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.steals.Load()
	}
	return n
}

// Executed returns the number of tasks executed so far (diagnostics).
func (p *Pool) Executed() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.execs.Load()
	}
	return n
}

// Close releases the pool's workers. Each worker keeps executing until
// it finds no queued work, then exits; draining is therefore only
// guaranteed for work submitted before Close, so callers must finish
// their Run/Wait calls first. After Close, Submit, TryRun and
// Run.SubmitAll return ErrPoolClosed and Run panics — submissions
// racing Close are the caller's bug and may be lost. Close is idempotent.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.sleepMu.Lock()
	p.sleepCv.Broadcast()
	p.sleepMu.Unlock()
}

// Shutdown closes the pool and blocks until every worker goroutine has
// drained its remaining queued work and exited, so a daemon can stop on
// SIGTERM without leaking workers. In-flight Run calls should be
// allowed to finish first (workers keep executing already-queued tasks
// until none remain); Submit after Shutdown returns ErrPoolClosed.
func (p *Pool) Shutdown() {
	p.Close()
	p.wg.Wait()
}

// NewTask creates a task executing fn. It runs once submitted.
func (p *Pool) NewTask(name string, fn func(*Worker)) *Task {
	return &Task{pool: p, fn: fn, name: name, doneCh: make(chan struct{})}
}

// Submit queues the task on the shared inject queue. On a closed pool it returns ErrPoolClosed without scheduling
// anything (the task is consumed either way: re-submitting it panics).
func (p *Pool) Submit(t *Task) error {
	if t.pool != p {
		panic("runtime: Submit of task from another pool")
	}
	if t.runRef != nil {
		panic("runtime: Submit of an arena task; use Run.SubmitAll")
	}
	if t.submitted.Swap(true) {
		panic(fmt.Sprintf("runtime: task %q submitted twice", t.name))
	}
	if p.closed.Load() {
		return ErrPoolClosed
	}
	p.inject(t)
	return nil
}

// Run executes fn on a pool worker and blocks until it (including all its
// nested Do/For joins) returns. It is the entry point for external
// goroutines. Run on a closed pool panics with ErrPoolClosed; callers
// that can outlive the pool use TryRun.
func (p *Pool) Run(fn func(*Worker)) {
	if err := p.TryRun(fn); err != nil {
		panic(err)
	}
}

// TryRun is Run returning ErrPoolClosed, with fn never started, when the
// pool is closed.
func (p *Pool) TryRun(fn func(*Worker)) error {
	t := p.NewTask("run", fn)
	if err := p.Submit(t); err != nil {
		return err
	}
	t.Wait()
	t.rethrow()
	return nil
}

// inject adds a task to the shared overflow queue and wakes a worker.
func (p *Pool) inject(t *Task) {
	p.injectMu.Lock()
	p.compactInjected(1)
	p.injected = append(p.injected, t)
	p.injectMu.Unlock()
	p.signal()
}

// popInjected takes the oldest task off the shared overflow queue in
// O(1): the head index advances, and the storage is reused from the
// front once the queue drains.
func (p *Pool) popInjected() *Task {
	p.injectMu.Lock()
	defer p.injectMu.Unlock()
	if p.injHead == len(p.injected) {
		return nil
	}
	t := p.injected[p.injHead]
	p.injected[p.injHead] = nil
	p.injHead++
	if p.injHead == len(p.injected) {
		p.injected, p.injHead = p.injected[:0], 0
	}
	return t
}

// injectedLen is the number of tasks waiting in the overflow queue.
// Callers hold injectMu.
func (p *Pool) injectedLen() int { return len(p.injected) - p.injHead }

// compactInjected makes room for n more tasks by sliding the live
// entries to the front, when appending would otherwise reallocate and at
// least half the slice is popped slots. A compaction moves no more
// entries than were popped since the last one, so pops and pushes stay
// amortised O(1). Callers hold injectMu.
func (p *Pool) compactInjected(n int) {
	if len(p.injected)+n <= cap(p.injected) || 2*p.injHead < len(p.injected) {
		return
	}
	live := copy(p.injected, p.injected[p.injHead:])
	clear(p.injected[live:])
	p.injected, p.injHead = p.injected[:live], 0
}

func (p *Pool) signal() {
	p.sleepMu.Lock()
	if p.sleeping > 0 {
		p.sleepCv.Signal()
	}
	p.sleepMu.Unlock()
}

// signalN wakes up to n sleeping workers with one lock acquisition.
func (p *Pool) signalN(n int) {
	if n <= 0 {
		return
	}
	p.sleepMu.Lock()
	if p.sleeping > 0 {
		if n >= p.sleeping {
			p.sleepCv.Broadcast()
		} else {
			for i := 0; i < n; i++ {
				p.sleepCv.Signal()
			}
		}
	}
	p.sleepMu.Unlock()
}

// injectBatch adds many tasks to the shared overflow queue under one
// lock acquisition and wakes enough workers to start on them.
func (p *Pool) injectBatch(ts []*Task) {
	if len(ts) == 0 {
		return
	}
	p.injectMu.Lock()
	p.compactInjected(len(ts))
	p.injected = append(p.injected, ts...)
	p.injectMu.Unlock()
	p.signalN(len(ts))
}
