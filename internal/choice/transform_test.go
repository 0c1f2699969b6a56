package choice

import (
	"sort"
	"testing"

	"petabricks/internal/runtime"
)

// testSortTransform builds a miniature sort transform with an insertion
// sort base case and a recursive merge sort, mirroring the paper's
// motivating example.
func testSortTransform() *Transform[[]int, []int] {
	t := &Transform[[]int, []int]{
		Name: "tsort",
		Size: func(in []int) int64 { return int64(len(in)) },
	}
	t.Choices = []Choice[[]int, []int]{
		{Name: "IS", Fn: func(c *Call[[]int, []int], in []int) []int {
			out := append([]int{}, in...)
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j] < out[j-1]; j-- {
					out[j], out[j-1] = out[j-1], out[j]
				}
			}
			return out
		}},
		{Name: "MS", Recursive: true, Fn: func(c *Call[[]int, []int], in []int) []int {
			if len(in) <= 1 {
				return append([]int{}, in...)
			}
			mid := len(in) / 2
			var l, r []int
			c.Parallel(
				func(cc *Call[[]int, []int]) { l = cc.Recurse(in[:mid]) },
				func(cc *Call[[]int, []int]) { r = cc.Recurse(in[mid:]) },
			)
			out := make([]int, 0, len(in))
			i, j := 0, 0
			for i < len(l) && j < len(r) {
				if l[i] <= r[j] {
					out = append(out, l[i])
					i++
				} else {
					out = append(out, r[j])
					j++
				}
			}
			out = append(out, l[i:]...)
			return append(out, r[j:]...)
		}},
	}
	return t
}

func input(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = (i * 7919) % 1000
	}
	return in
}

func isSorted(xs []int) bool { return sort.IntsAreSorted(xs) }

func TestRunSequential(t *testing.T) {
	tr := testSortTransform()
	ex := NewExec(nil, nil) // nil pool: sequential, default config (choice 0)
	out := Run(ex, tr, input(100))
	if !isSorted(out) || len(out) != 100 {
		t.Fatal("sequential run failed")
	}
}

func TestRunSelectorComposition(t *testing.T) {
	tr := testSortTransform()
	cfg := NewConfig()
	// Merge sort above 16, insertion below: the classic composition.
	cfg.SetSelector("tsort", Selector{Levels: []Level{
		{Cutoff: 16, Choice: 0},
		{Cutoff: Inf, Choice: 1},
	}})
	ex := NewExec(nil, cfg)
	out := Run(ex, tr, input(500))
	if !isSorted(out) {
		t.Fatal("hybrid run produced unsorted output")
	}
}

func TestRunParallelPool(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	tr := testSortTransform()
	cfg := NewConfig()
	cfg.SetSelector("tsort", Selector{Levels: []Level{
		{Cutoff: 32, Choice: 0},
		{Cutoff: Inf, Choice: 1},
	}})
	cfg.SetInt("tsort.seqcutoff", 64) // spawn tasks only above 64 elements
	ex := NewExec(pool, cfg)
	out := Run(ex, tr, input(20000))
	if !isSorted(out) || len(out) != 20000 {
		t.Fatal("parallel hybrid sort failed")
	}
}

func TestSeqCutoffDisablesSpawns(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	tr := testSortTransform()
	cfg := NewConfig()
	cfg.SetSelector("tsort", NewSelector(1))
	cfg.SetInt("tsort.seqcutoff", Inf) // never spawn
	ex := NewExec(pool, cfg)
	before := pool.Executed()
	out := Run(ex, tr, input(2000))
	if !isSorted(out) {
		t.Fatal("sorted output expected")
	}
	// Only the single Run root task should have executed.
	if got := pool.Executed() - before; got != 1 {
		t.Fatalf("expected exactly 1 executed task with infinite cutoff, got %d", got)
	}
}

func TestInvokeBadSelectorPanics(t *testing.T) {
	tr := testSortTransform()
	cfg := NewConfig()
	cfg.SetSelector("tsort", NewSelector(7))
	ex := NewExec(nil, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(ex, tr, input(4))
}

func TestTransformSpecHelpers(t *testing.T) {
	tr := testSortTransform()
	names := tr.ChoiceNames()
	if len(names) != 2 || names[0] != "IS" || names[1] != "MS" {
		t.Fatalf("ChoiceNames = %v", names)
	}
	rec := tr.RecursiveFlags()
	if rec[0] || !rec[1] {
		t.Fatalf("RecursiveFlags = %v", rec)
	}
	if tr.SeqCutoffName() != "tsort.seqcutoff" {
		t.Fatal("SeqCutoffName wrong")
	}
	spec := tr.SelectorSpec(5)
	if spec.Transform != "tsort" || spec.MaxLevels != 5 || spec.NumChoices() != 2 {
		t.Fatalf("SelectorSpec = %+v", spec)
	}
}

func TestCallTunableAndParam(t *testing.T) {
	tr := &Transform[int, int64]{
		Name: "probe",
		Size: func(in int) int64 { return int64(in) },
	}
	tr.Choices = []Choice[int, int64]{{
		Name: "P",
		Fn: func(c *Call[int, int64], in int) int64 {
			return c.Ex.Cfg.Int("probe.x", -1)*1000 + c.Param("k", -1)
		},
	}}
	cfg := NewConfig()
	cfg.SetInt("probe.x", 7)
	cfg.SetSelector("probe", Selector{Levels: []Level{
		{Cutoff: Inf, Choice: 0, Params: map[string]int64{"k": 3}},
	}})
	ex := NewExec(nil, cfg)
	if got := Run(ex, tr, 5); got != 7003 {
		t.Fatalf("tunable/param plumbing got %d, want 7003", got)
	}
	if Run(NewExec(nil, nil), tr, 5) != -1001 {
		t.Fatal("defaults should flow when config empty")
	}
}

func TestCallSizeExposed(t *testing.T) {
	tr := &Transform[int, int64]{
		Name: "sz",
		Size: func(in int) int64 { return int64(in) * 2 },
	}
	tr.Choices = []Choice[int, int64]{{
		Name: "S",
		Fn:   func(c *Call[int, int64], in int) int64 { return c.size },
	}}
	if got := Run(NewExec(nil, nil), tr, 21); got != 42 {
		t.Fatalf("size = %d, want 42", got)
	}
}

func TestParallelForInCall(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	tr := &Transform[int, int]{
		Name: "pf",
		Size: func(in int) int64 { return int64(in) },
	}
	tr.Choices = []Choice[int, int]{{
		Name: "P",
		Fn: func(c *Call[int, int], in int) int {
			sum := make([]int64, in)
			c.ParallelFor(0, in, 8, func(w *runtime.Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					sum[i] = 1
				}
			})
			total := 0
			for _, v := range sum {
				total += int(v)
			}
			return total
		},
	}}
	ex := NewExec(pool, NewConfig())
	if got := Run(ex, tr, 1000); got != 1000 {
		t.Fatalf("ParallelFor covered %d of 1000", got)
	}
	// Sequential path (nil pool) must also cover the range.
	if got := Run(NewExec(nil, nil), tr, 100); got != 100 {
		t.Fatal("sequential ParallelFor broken")
	}
}
