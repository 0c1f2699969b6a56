package runtime

import (
	"strconv"

	"petabricks/internal/obs"
)

// Instrument registers this pool's scheduler metrics on reg: per-worker
// steal/exec/park/wake counters and queue-depth gauges (labelled
// worker="i"), the shared inject-queue depth, and a sampled task
// execution latency histogram (each worker times its first
// task and one in 64 after it). Call once, on a long-lived pool
// (pbserve's); a nil registry is a no-op.
func (p *Pool) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, w := range p.workers {
		w := w
		l := obs.L("worker", strconv.Itoa(w.id))
		reg.CounterFunc("pb_pool_worker_steals_total", "Successful steals by worker.", w.steals.Load, l)
		reg.CounterFunc("pb_pool_worker_tasks_total", "Tasks executed by worker.", w.execs.Load, l)
		reg.CounterFunc("pb_pool_worker_parks_total", "Park (sleep) events by worker.", w.parks.Load, l)
		reg.CounterFunc("pb_pool_worker_wakes_total", "Wake events by worker.", w.wakes.Load, l)
		reg.GaugeFunc("pb_pool_worker_queue_depth", "Tasks queued in the worker's deque.",
			func() float64 { return float64(w.deque.size()) }, l)
	}
	reg.GaugeFunc("pb_pool_inject_queue_depth", "Tasks in the shared overflow queue.", func() float64 {
		p.injectMu.Lock()
		n := p.injectedLen()
		p.injectMu.Unlock()
		return float64(n)
	})
	p.taskLat.Store(reg.Histogram("pb_pool_task_seconds", "Task execution latency, sampled: one task in 64 per worker.", obs.LatencyBuckets))
}
