package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
)

func mkTask(id int) *Task { return &Task{name: "t", fn: nil, doneCh: make(chan struct{})} }

func TestDequeLIFOOwner(t *testing.T) {
	d := newDeque()
	a, b, c := mkTask(1), mkTask(2), mkTask(3)
	d.push(a)
	d.push(b)
	d.push(c)
	if d.pop() != c || d.pop() != b || d.pop() != a {
		t.Fatal("owner pops must be LIFO")
	}
	if d.pop() != nil {
		t.Fatal("empty deque should pop nil")
	}
}

func TestDequeFIFOSteal(t *testing.T) {
	d := newDeque()
	a, b := mkTask(1), mkTask(2)
	d.push(a)
	d.push(b)
	if d.steal() != a {
		t.Fatal("steal must take the oldest task")
	}
	if d.pop() != b {
		t.Fatal("owner should still get the newest")
	}
	if d.steal() != nil {
		t.Fatal("empty deque should steal nil")
	}
}

func TestDequeGrowth(t *testing.T) {
	d := newDeque()
	const n = 1000 // larger than the initial ring
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = mkTask(i)
		d.push(tasks[i])
	}
	for i := n - 1; i >= 0; i-- {
		if d.pop() != tasks[i] {
			t.Fatalf("pop order broken at %d after growth", i)
		}
	}
}

func TestDequeInterleaved(t *testing.T) {
	d := newDeque()
	a, b, c := mkTask(1), mkTask(2), mkTask(3)
	d.push(a)
	if d.pop() != a {
		t.Fatal("single push/pop")
	}
	d.push(b)
	d.push(c)
	if d.steal() != b || d.pop() != c || d.pop() != nil || d.steal() != nil {
		t.Fatal("interleaved ops broken")
	}
	// Reusable after emptying.
	d.push(a)
	if d.pop() != a {
		t.Fatal("deque unusable after drain")
	}
}

// Stress: one owner pushing/popping, many thieves stealing. Every task
// must be executed exactly once.
func TestDequeStress(t *testing.T) {
	d := newDeque()
	const total = 200000
	var claimed atomic.Int64
	seen := make([]int32, total)
	claim := func(task *Task) {
		i := task.runIdx // reuse the field as an id for the test
		if atomic.AddInt32(&seen[i], 1) != 1 {
			t.Errorf("task %d claimed twice", i)
		}
		claimed.Add(1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if task := d.steal(); task != nil {
					claim(task)
					continue
				}
				select {
				case <-stop:
					if task := d.steal(); task == nil {
						return
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		task := &Task{doneCh: make(chan struct{})}
		task.runIdx = int32(i)
		d.push(task)
		if i%3 == 0 {
			if got := d.pop(); got != nil {
				claim(got)
			}
		}
	}
	// Owner drains what remains.
	for {
		got := d.pop()
		if got == nil {
			break
		}
		claim(got)
	}
	close(stop)
	wg.Wait()
	// Thieves may have raced the final drain; drain once more.
	for {
		got := d.steal()
		if got == nil {
			break
		}
		claim(got)
	}
	if claimed.Load() != total {
		t.Fatalf("claimed %d of %d tasks", claimed.Load(), total)
	}
}
