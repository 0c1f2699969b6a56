package runtime

import (
	"strings"
	"sync/atomic"
	"testing"

	"petabricks/internal/obs"
)

// TestPoolInstrument runs parallel work on an instrumented pool and
// checks that the scrape shows live per-worker counters and a task
// latency histogram.
func TestPoolInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(4)
	defer p.Shutdown()
	p.Instrument(reg)

	var sum atomic.Int64
	p.ParallelFor(0, 1<<14, 8, func(w *Worker, lo, hi int) {
		sum.Add(int64(hi - lo))
	})
	if sum.Load() != 1<<14 {
		t.Fatalf("parallel for covered %d iterations, want %d", sum.Load(), 1<<14)
	}

	if p.Executed() == 0 {
		t.Fatal("instrumented pool executed no tasks")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pb_pool_worker_tasks_total{worker="0"}`,
		`pb_pool_worker_steals_total{worker="3"}`,
		`pb_pool_worker_parks_total{worker="1"}`,
		`pb_pool_worker_queue_depth{worker="2"}`,
		"pb_pool_inject_queue_depth",
		"# TYPE pb_pool_task_seconds histogram",
		"pb_pool_task_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The per-worker counters must sum to the pool aggregates.
	var execs float64
	for _, s := range reg.Snapshot() {
		if s.Name == "pb_pool_worker_tasks_total" {
			execs += s.Value
		}
		if s.Name == "pb_pool_task_seconds" && s.Count == 0 {
			t.Error("task latency histogram recorded nothing")
		}
	}
	if int64(execs) != p.Executed() {
		t.Errorf("per-worker exec sum %v != pool Executed %d", execs, p.Executed())
	}
}

// TestTaskTimingSampled: an instrumented worker times its first task and
// one in every 64 after it, while its task count stays exact.
func TestTaskTimingSampled(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(1)
	defer p.Shutdown()
	p.Instrument(reg)
	for i := 0; i < 130; i++ {
		p.Run(func(*Worker) {})
	}
	var timed int64
	var execs float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "pb_pool_task_seconds":
			timed = s.Count
		case "pb_pool_worker_tasks_total":
			execs += s.Value
		}
	}
	if execs != 130 {
		t.Errorf("pb_pool_worker_tasks_total = %v, want 130", execs)
	}
	if timed != 3 { // tasks 1, 65 and 129
		t.Errorf("pb_pool_task_seconds counted %d tasks, want 3", timed)
	}
}
