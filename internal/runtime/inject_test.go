package runtime

import (
	"fmt"
	"sync"
	"testing"

	"petabricks/internal/obs"
)

// idlePool is a pool with no worker goroutines, so a test alone pushes
// and pops its inject queue.
func idlePool() *Pool {
	p := &Pool{}
	p.sleepCv = sync.NewCond(&p.sleepMu)
	return p
}

func namedTasks(prefix string, n int) []*Task {
	ts := make([]*Task, n)
	for i := range ts {
		ts[i] = &Task{name: fmt.Sprintf("%s%d", prefix, i)}
	}
	return ts
}

// TestInjectQueueFIFO interleaves batches, single injects and partial
// drains, and checks tasks leave the queue in the order they entered it,
// that the queue's live length is right at every step, and that a popped
// slot keeps no task reachable.
func TestInjectQueueFIFO(t *testing.T) {
	p := idlePool()
	var want []*Task
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			got := p.popInjected()
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("pop from an empty queue returned %q", got.name)
				}
				return
			}
			if got != want[0] {
				t.Fatalf("popped %v, want %q", got, want[0].name)
			}
			want = want[1:]
		}
	}
	for round := 0; round < 40; round++ {
		batch := namedTasks(fmt.Sprintf("r%d.", round), 1+round%7)
		p.injectBatch(batch)
		want = append(want, batch...)
		one := &Task{name: fmt.Sprintf("r%d.single", round)}
		p.inject(one)
		want = append(want, one)
		pop(1 + round%5)
		p.injectMu.Lock()
		n := p.injectedLen()
		for i, popped := range p.injected[:p.injHead] {
			if popped != nil {
				t.Fatalf("round %d: popped slot %d still references %q", round, i, popped.name)
			}
		}
		p.injectMu.Unlock()
		if n != len(want) {
			t.Fatalf("round %d: queue holds %d tasks, want %d", round, n, len(want))
		}
	}
	pop(len(want) + 1)
	if p.injHead != 0 || len(p.injected) != 0 {
		t.Fatalf("drained queue: head %d, len %d; want both 0", p.injHead, len(p.injected))
	}
}

// TestInjectQueueDepthGauge: after a partial drain the depth gauge, and
// the park check, count only the tasks still queued.
func TestInjectQueueDepthGauge(t *testing.T) {
	p := idlePool()
	w := &Worker{pool: p, deque: newDeque()}
	p.workers = []*Worker{w}
	reg := obs.NewRegistry()
	p.Instrument(reg)
	depth := func() float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == "pb_pool_inject_queue_depth" {
				return s.Value
			}
		}
		t.Fatal("no pb_pool_inject_queue_depth series")
		return 0
	}
	p.injectBatch(namedTasks("t", 10))
	for i := 0; i < 7; i++ {
		p.popInjected()
	}
	if d := depth(); d != 3 {
		t.Fatalf("depth after 7 of 10 popped = %v, want 3", d)
	}
	if !w.anyWork() {
		t.Fatal("anyWork with 3 tasks queued = false")
	}
	for i := 0; i < 3; i++ {
		p.popInjected()
	}
	if d := depth(); d != 0 {
		t.Fatalf("depth after a full drain = %v, want 0", d)
	}
	if w.anyWork() {
		t.Fatal("anyWork on a drained queue = true")
	}
}

// BenchmarkInjectDrain submits n roots in one batch and pops them all.
// The ns/task metric stays flat as n grows: a pop is O(1), not a copy
// of the queue behind it.
func BenchmarkInjectDrain(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("roots=%d", n), func(b *testing.B) {
			p := idlePool()
			ts := namedTasks("t", n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.injectBatch(ts)
				for p.popInjected() != nil {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/task")
		})
	}
}
