package runtime

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestRandomDAGStress builds random task DAGs (edges only from earlier
// to later tasks, so they are acyclic by construction), runs each one
// several times through a re-armed Run, and checks the two scheduler
// contracts the interpreter relies on: every task runs exactly once per
// run, and no task runs before all of its dependencies have finished.
// Run under -race this is the deque/pool stress test.
func TestRandomDAGStress(t *testing.T) {
	rounds, tasksPerDAG := 30, 120
	if testing.Short() {
		rounds, tasksPerDAG = 8, 60
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			p := NewPool(workers)
			defer p.Shutdown()
			for round := 0; round < rounds; round++ {
				rng := rand.New(rand.NewSource(int64(round*31 + workers)))
				n := 2 + rng.Intn(tasksPerDAG)
				deps := make([][]int, n)
				b := NewGraphBuilder(n)
				for i := 0; i < n; i++ {
					// Edges point strictly backwards: j < i.
					for j := 0; j < i; j++ {
						if rng.Intn(5) == 0 {
							deps[i] = append(deps[i], j)
							b.Edge(j, i)
						}
					}
				}
				g, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 3; rep++ {
					runs := make([]atomic.Int32, n)
					done := make([]atomic.Bool, n)
					r := p.NewRun(g, func(_ *Worker, i int) {
						for _, d := range deps[i] {
							if !done[d].Load() {
								t.Errorf("round %d: task %d ran before dependency %d finished", round, i, d)
							}
						}
						if runs[i].Add(1) != 1 {
							t.Errorf("round %d: task %d ran more than once", round, i)
						}
						done[i].Store(true)
					})
					if err := r.SubmitAll(nil); err != nil {
						t.Fatal(err)
					}
					r.Wait()
					r.Release()
					for i := 0; i < n; i++ {
						if got := runs[i].Load(); got != 1 {
							t.Fatalf("round %d: task %d ran %d times, want exactly 1", round, i, got)
						}
					}
				}
			}
		})
	}
}

// TestRandomNestedForkJoinStress mixes the structured primitives the
// compiled schedules use — nested Do branches and ParallelFor with
// random grains — and counts every leaf exactly once.
func TestRandomNestedForkJoinStress(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 6
	}
	p := NewPool(4)
	defer p.Shutdown()
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		span := 50 + rng.Intn(200)
		grain := 1 + rng.Intn(8)
		var count atomic.Int64
		var nested atomic.Int64
		p.Run(func(w *Worker) {
			p.ParallelFor(0, span, grain, func(w *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					count.Add(1)
				}
				// Sometimes fork again from inside a body, like a
				// recursive choice rule would.
				if (lo+round)%7 == 0 {
					w.Do(func(w *Worker) { nested.Add(1) },
						func(w *Worker) { nested.Add(1) })
				}
			})
		})
		if got := count.Load(); got != int64(span) {
			t.Fatalf("round %d: ParallelFor covered %d of %d iterations", round, got, span)
		}
		if nested.Load()%2 != 0 {
			t.Fatalf("round %d: Do branch lost: %d nested increments", round, nested.Load())
		}
	}
}

// TestShutdownDrainsUnderLoad submits a burst of independent tasks and
// immediately shuts the pool down: Shutdown must block until every
// already-submitted task has executed (none lost, none duplicated).
func TestShutdownDrainsUnderLoad(t *testing.T) {
	for round := 0; round < 10; round++ {
		p := NewPool(4)
		const n = 200
		var ran atomic.Int64
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			tasks[i] = p.NewTask(fmt.Sprintf("burst%d", i), func(*Worker) { ran.Add(1) })
		}
		for _, task := range tasks {
			p.Submit(task)
		}
		p.Shutdown()
		if got := ran.Load(); got != n {
			t.Fatalf("round %d: Shutdown drained %d of %d submitted tasks", round, got, n)
		}
		for i, task := range tasks {
			if !task.Done() {
				t.Fatalf("round %d: task %d not marked done after Shutdown", round, i)
			}
		}
	}
}
