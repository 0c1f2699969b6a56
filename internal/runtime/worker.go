package runtime

import (
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"time"
)

// Worker is one scheduler thread. Task functions receive the worker that
// executes them and use it to spawn nested parallel work; this threads
// the scheduling context through the computation the way Cilk's worker
// state does, without any thread-local storage.
type Worker struct {
	pool  *Pool
	id    int
	deque *deque
	rng   *rand.Rand

	// Per-worker scheduler statistics, always maintained (plain atomic
	// adds on events that are rare relative to task bodies). Pool
	// aggregates them; Pool.Instrument exposes them per worker.
	steals atomic.Int64 // successful steals by this worker
	execs  atomic.Int64 // tasks executed by this worker
	parks  atomic.Int64 // times this worker went to sleep empty-handed
	wakes  atomic.Int64 // times this worker was signalled awake

	// untimed counts the tasks run since the last timed one on an
	// instrumented pool; only this worker's goroutine touches it.
	untimed uint32
}

// taskSampleEvery is the task-timing sample period: an instrumented
// worker times its first task and one in every taskSampleEvery after.
const taskSampleEvery = 64

// ID returns the worker index in [0, NumWorkers).
func (w *Worker) ID() int { return w.id }

// loop is the scheduling loop run by each worker goroutine.
func (w *Worker) loop() {
	for {
		t := w.next()
		if t != nil {
			w.run(t)
			continue
		}
		// Exit only after a scan that found nothing: a worker woken by a
		// submission that raced Close must still drain it.
		if w.pool.closed.Load() {
			return
		}
		w.sleep()
	}
}

// sleep parks the worker until new work is signalled. The re-check under
// the sleep lock closes the lost-wakeup window: any enqueue signals after
// publishing its task, and publication is sequenced before the signal's
// lock acquisition.
func (w *Worker) sleep() {
	p := w.pool
	p.sleepMu.Lock()
	if w.anyWork() || p.closed.Load() {
		p.sleepMu.Unlock()
		return
	}
	p.sleeping++
	w.parks.Add(1)
	p.sleepCv.Wait()
	w.wakes.Add(1)
	p.sleeping--
	p.sleepMu.Unlock()
}

// anyWork is a racy scan used only to decide whether to park.
func (w *Worker) anyWork() bool {
	p := w.pool
	p.injectMu.Lock()
	n := p.injectedLen()
	p.injectMu.Unlock()
	if n > 0 {
		return true
	}
	for _, v := range p.workers {
		if v.deque.size() > 0 {
			return true
		}
	}
	return false
}

// run executes t. On an instrumented pool it times a sample of tasks —
// two clock reads cost more than many a tile — while the per-worker task
// count stays exact.
func (w *Worker) run(t *Task) {
	w.execs.Add(1)
	if h := w.pool.taskLat.Load(); h != nil {
		if w.untimed == 0 {
			w.untimed = taskSampleEvery - 1
			start := time.Now()
			t.execute(w)
			h.ObserveSince(start)
			return
		}
		w.untimed--
	}
	t.execute(w)
}

// next finds the next task: own deque first (depth-first, LIFO), then the
// shared inject queue, then stealing from random victims.
func (w *Worker) next() *Task {
	if t := w.deque.pop(); t != nil {
		return t
	}
	if t := w.pool.popInjected(); t != nil {
		return t
	}
	return w.stealAny()
}

func (w *Worker) stealAny() *Task {
	p := w.pool
	n := len(p.workers)
	if n <= 1 {
		return nil
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t := v.deque.steal(); t != nil {
			w.steals.Add(1)
			return t
		}
	}
	return nil
}

// spawn creates and immediately schedules a task running fn, preferring
// the local deque so that joins pop their own children first.
func (w *Worker) spawn(name string, fn func(*Worker)) *Task {
	t := w.pool.NewTask(name, fn)
	t.submitted.Store(true)
	if w.pool.mode == ModeCentralQueue {
		w.pool.inject(t)
	} else {
		w.deque.push(t)
		w.pool.signal()
	}
	return t
}

// helpUntil executes queued tasks until done() reports true, yielding
// when no work is available. This is how joins avoid blocking worker
// threads: a waiting worker keeps the machine busy with other tasks.
func (w *Worker) helpUntil(done func() bool) {
	spins := 0
	for !done() {
		if t := w.next(); t != nil {
			w.run(t)
			spins = 0
			continue
		}
		spins++
		if spins > 64 {
			goruntime.Gosched()
			spins = 0
		}
	}
}

// Do runs the given functions as a fork-join group, executing the first
// inline (work-first, as Cilk does) and spawning the rest onto the local
// deque where idle workers can steal them. It returns when all have
// completed.
func (w *Worker) Do(fs ...func(*Worker)) {
	switch len(fs) {
	case 0:
		return
	case 1:
		fs[0](w)
		return
	}
	var join atomic.Int64
	join.Store(int64(len(fs) - 1))
	children := make([]*Task, 0, len(fs)-1)
	for _, f := range fs[1:] {
		f := f
		children = append(children, w.spawn("do", func(w2 *Worker) {
			defer join.Add(-1)
			f(w2)
		}))
	}
	fs[0](w)
	w.helpUntil(func() bool { return join.Load() == 0 })
	for _, c := range children {
		c.rethrow()
	}
}

// For executes body over [lo, hi) by recursive binary splitting, running
// chunks of at most grain iterations sequentially. This is the "large
// data parallel tasks are divided up into smaller tasks" path of §3.4.
func (w *Worker) For(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	w.forSplit(lo, hi, grain, body)
}

func (w *Worker) forSplit(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	if hi-lo <= grain {
		if hi > lo {
			body(w, lo, hi)
		}
		return
	}
	mid := lo + (hi-lo)/2
	w.Do(
		func(w1 *Worker) { w1.forSplit(lo, mid, grain, body) },
		func(w2 *Worker) { w2.forSplit(mid, hi, grain, body) },
	)
}

// Do is a convenience wrapper running Worker.Do from outside the pool.
func (p *Pool) Do(fs ...func(*Worker)) {
	p.Run(func(w *Worker) { w.Do(fs...) })
}
