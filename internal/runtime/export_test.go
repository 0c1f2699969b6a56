package runtime

// Closed reports whether Close or Shutdown has been called.
func (p *Pool) Closed() bool { return p.closed.Load() }

// ParallelFor is a convenience wrapper running For from outside the pool.
func (p *Pool) ParallelFor(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	p.Run(func(w *Worker) { w.For(lo, hi, grain, body) })
}

// Pool returns the owning pool.
func (w *Worker) Pool() *Pool { return w.pool }

// Panicked returns the recovered panic value of a completed task, if any.
func (t *Task) Panicked() (any, bool) {
	if p := t.panicVal.Load(); p != nil {
		return p.val, true
	}
	return nil, false
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Done reports whether the task has finished executing.
func (t *Task) Done() bool { return t.done.Load() }
