package runtime

import (
	"fmt"
	"sync/atomic"
)

// Task is one unit of work on the pool. Standalone tasks run a function:
// Pool.Run submits one and waits for it, and Worker.Do/For spawn them as
// fork-join children. Dependency edges between tasks (§3.2: "A task may
// not be executed until all the tasks that it depends on have
// completed") live in a TaskGraph, whose Run schedules arena tasks as
// their dependencies finish (run.go).
type Task struct {
	pool *Pool
	fn   func(*Worker)
	name string

	done      atomic.Bool
	submitted atomic.Bool
	doneCh    chan struct{}
	panicVal  atomic.Pointer[taskPanic]

	// Arena tasks (see run.go) carry their Run and slot index instead of
	// fn/doneCh; execute dispatches to the Run's body.
	runRef *Run
	runIdx int32
}

// taskPanic carries a recovered panic from a task to its waiter.
type taskPanic struct{ val any }

// rethrow re-panics a captured task panic in the caller.
func (t *Task) rethrow() {
	if p := t.panicVal.Load(); p != nil {
		panic(fmt.Sprintf("runtime: task %q panicked: %v", t.name, p.val))
	}
}

// Wait blocks until the task has completed. It must be called from
// outside the pool's workers, which join through Do/For instead.
func (t *Task) Wait() { <-t.doneCh }

// finish marks t complete and wakes its waiters.
func (t *Task) finish() {
	t.done.Store(true)
	close(t.doneCh)
}

// enqueue makes a ready task runnable, preferring the local deque of the
// worker that released it (depth-first order, as the paper's scheduler
// does to maximize locality).
func (t *Task) enqueue(w *Worker) {
	if w != nil && w.pool == t.pool {
		w.deque.push(t)
		t.pool.signal()
		return
	}
	t.pool.inject(t)
}

func (t *Task) execute(w *Worker) {
	if r := t.runRef; r != nil {
		// Arena task: the Run tracks dependencies in flat counters and
		// captures panics itself; the per-task finish machinery (doneCh)
		// is never armed for these.
		r.execTask(t, w)
		return
	}
	defer func() {
		// A panicking task must still complete, or every join waiting on
		// it deadlocks; the panic is captured and re-thrown at the join.
		if r := recover(); r != nil {
			t.panicVal.Store(&taskPanic{val: r})
		}
		t.finish()
	}()
	t.fn(w)
}
