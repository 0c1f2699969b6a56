package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutes(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Bool
	p.Run(func(w *Worker) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("Run did not execute the function")
	}
}

func TestDoRunsAllBranches(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	fs := make([]func(*Worker), 50)
	for i := range fs {
		fs[i] = func(*Worker) { count.Add(1) }
	}
	p.Do(fs...)
	if count.Load() != 50 {
		t.Fatalf("Do ran %d of 50 branches", count.Load())
	}
}

func TestNestedDo(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	p.Run(func(w *Worker) {
		w.Do(
			func(w1 *Worker) {
				w1.Do(
					func(*Worker) { count.Add(1) },
					func(*Worker) { count.Add(1) },
				)
			},
			func(w2 *Worker) {
				w2.Do(
					func(*Worker) { count.Add(1) },
					func(*Worker) { count.Add(1) },
				)
			},
		)
	})
	if count.Load() != 4 {
		t.Fatalf("nested Do ran %d of 4", count.Load())
	}
}

func TestParallelForCoversRange(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	const n = 10000
	hits := make([]int32, n)
	p.ParallelFor(0, n, 16, func(w *Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForEmptyAndTiny(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var n atomic.Int64
	p.ParallelFor(5, 5, 4, func(w *Worker, lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 0 {
		t.Fatal("empty range should not run")
	}
	p.ParallelFor(0, 3, 100, func(w *Worker, lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 3 {
		t.Fatalf("tiny range covered %d of 3", n.Load())
	}
}

func TestRecursiveFib(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var fib func(w *Worker, n int) int64
	fib = func(w *Worker, n int) int64 {
		if n < 2 {
			return int64(n)
		}
		if n < 10 { // sequential cutoff, as generated code would use
			return fib(w, n-1) + fib(w, n-2)
		}
		var a, b int64
		w.Do(
			func(w1 *Worker) { a = fib(w1, n-1) },
			func(w2 *Worker) { b = fib(w2, n-2) },
		)
		return a + b
	}
	var got int64
	p.Run(func(w *Worker) { got = fib(w, 25) })
	if got != 75025 {
		t.Fatalf("fib(25) = %d, want 75025", got)
	}
}

// TestTaskDependencies runs a chain a → b → c as a TaskGraph: every
// task starts only after its predecessor finished.
func TestTaskDependencies(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	b := NewGraphBuilder(3)
	b.Edge(0, 1)
	b.Edge(1, 2)
	b.Edge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	r := p.NewRun(g, func(_ *Worker, i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	if err := r.SubmitAll(nil); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	r.Release()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestDoubleSubmitPanics(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	a := p.NewTask("a", func(*Worker) {})
	p.Submit(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double submit")
		}
	}()
	p.Submit(a)
}

func TestCentralQueueMode(t *testing.T) {
	p := NewPoolMode(4, ModeCentralQueue)
	defer p.Close()
	var count atomic.Int64
	p.ParallelFor(0, 1000, 8, func(w *Worker, lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 1000 {
		t.Fatalf("central queue covered %d of 1000", count.Load())
	}
}

func TestStealsHappen(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// A deep unbalanced spawn tree from a single worker forces steals.
	p.Run(func(w *Worker) {
		w.For(0, 100000, 1, func(w2 *Worker, lo, hi int) {
			s := 0
			for i := 0; i < 50; i++ {
				s += i
			}
			_ = s
		})
	})
	if p.Steals() == 0 {
		t.Error("expected at least one steal on a 4-worker pool")
	}
	if p.Executed() == 0 {
		t.Error("expected executed tasks to be counted")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
}

func TestNumWorkersDefault(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.NumWorkers() < 1 {
		t.Fatal("default worker count must be >= 1")
	}
	if p.workers[0].Pool() != p {
		t.Fatal("worker Pool() broken")
	}
	if p.workers[0].ID() != 0 {
		t.Fatal("worker ID() broken")
	}
}

func TestManyConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(func(w *Worker) {
				w.For(0, 100, 4, func(w2 *Worker, lo, hi int) {
					total.Add(int64(hi - lo))
				})
			})
		}()
	}
	wg.Wait()
	if total.Load() != 1600 {
		t.Fatalf("concurrent runs covered %d of 1600", total.Load())
	}
}

func TestPanicPropagatesFromRun(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("panic in Run body should reach the caller")
		}
	}()
	p.Run(func(*Worker) { panic("boom") })
}

func TestPanicPropagatesFromDoBranch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	caught := make(chan any, 1)
	p.Run(func(w *Worker) {
		defer func() { caught <- recover() }()
		w.Do(
			func(*Worker) {},
			func(*Worker) { panic("branch boom") },
		)
	})
	v := <-caught
	if v == nil {
		t.Fatal("panic in a spawned Do branch should reach the join")
	}
	// The pool stays usable afterwards.
	var ok atomic.Bool
	p.Run(func(*Worker) { ok.Store(true) })
	if !ok.Load() {
		t.Fatal("pool broken after task panic")
	}
}

func TestTaskPanicked(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	tk := p.NewTask("boom", func(*Worker) { panic(42) })
	p.Submit(tk)
	tk.Wait()
	v, ok := tk.Panicked()
	if !ok || v != 42 {
		t.Fatalf("Panicked = %v, %v", v, ok)
	}
	// The pool keeps running tasks after one panicked.
	ok2 := p.NewTask("after", func(*Worker) {})
	p.Submit(ok2)
	ok2.Wait()
}
