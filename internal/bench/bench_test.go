package bench

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// TestTuneScoresReportedSeconds checks that Tune's evaluator costs a
// candidate at exactly the Seconds its Run reports, the best of
// b.Trials runs on seeds seed, seed+1, ..., and a failing Run at 1e30.
func TestTuneScoresReportedSeconds(t *testing.T) {
	const seed = 40
	b := &Benchmark{
		Name: "synthetic",
		Run: func(_ *runtime.Pool, cfg *choice.Config, n int, s int64, _ RunOpts) (Result, error) {
			if cfg.Int("synthetic.fail", 0) != 0 {
				return Result{}, errors.New("synthetic failure")
			}
			sec := 0.25
			if s == seed+1 {
				sec = 0.125
			}
			return Result{Seconds: sec, Out: n}, nil
		},
		Space: func() *choice.Space {
			sp := &choice.Space{}
			sp.AddSelector(choice.SelectorSpec{
				Transform:   "synthetic",
				ChoiceNames: []string{"only"},
				Recursive:   []bool{false},
				MaxLevels:   1,
			})
			return sp
		},
		Same:     func(a, b any, _ float64) bool { return a == b },
		CheckTol: 0,
		MinSize:  8,
		Trials:   2,
	}
	_, _, eval, err := Tune(b, nil, 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := eval.Measure(choice.NewConfig(), 16); got != 0.125 {
		t.Fatalf("Measure = %g, want the faster trial's reported 0.125s", got)
	}
	bad := choice.NewConfig()
	bad.SetInt("synthetic.fail", 1)
	if got := eval.Measure(bad, 16); got != 1e30 {
		t.Fatalf("a failing Run scored %g, want 1e30", got)
	}
}

// TestSameAcceptsOwnOut checks each tunable descriptor's Same against
// its Run's Out: two runs of one instance agree, and a copy with one
// element moved by twice CheckTol (one unit for sort) does not.
func TestSameAcceptsOwnOut(t *testing.T) {
	_, dsl := dslBenchmark(t, parser.RollingSumSrc, "RollingSum")
	pool := runtime.NewPool(2)
	defer pool.Close()
	var checked []string
	for _, b := range append(Kernels(), dsl) {
		if !b.Tunable() {
			continue
		}
		checked = append(checked, b.Name)
		run := func() any {
			t.Helper()
			r, err := b.Run(pool, b.Baseline(), int(b.MinSize), 3, RunOpts{AccIndex: -1})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			return r.Out
		}
		out := run()
		if !b.Same(out, run(), b.CheckTol) {
			t.Fatalf("%s: Same rejects a rerun of the same instance", b.Name)
		}
		if b.Same(out, perturb(t, out, 2*b.CheckTol), b.CheckTol) {
			t.Fatalf("%s: Same accepts an output with one element off by %g (tol %g)", b.Name, 2*b.CheckTol, b.CheckTol)
		}
	}
	if want := []string{"sort", "matmul", "eigen", "RollingSum"}; !slices.Equal(checked, want) {
		t.Fatalf("checked %v, want %v", checked, want)
	}
}

// perturb returns a copy of out with its first element moved by d (by
// one for integer outputs).
func perturb(t *testing.T, out any, d float64) any {
	switch v := out.(type) {
	case []int64:
		c := slices.Clone(v)
		c[0]++
		return c
	case []float64:
		c := slices.Clone(v)
		c[0] += d
		return c
	case *matrix.Matrix:
		c := v.Copy()
		idx := make([]int, c.Dims())
		c.Set(c.Get(idx...)+d, idx...)
		return c
	case map[string]*matrix.Matrix:
		c := maps.Clone(v)
		k := slices.Sorted(maps.Keys(c))[0]
		c[k] = perturb(t, c[k], d).(*matrix.Matrix)
		return c
	}
	t.Fatalf("no perturbation for output type %T", out)
	return nil
}

// TestKernelChecksumsPinned pins the inputs the sort and matmul kernels
// draw through their served checksums: the values below were computed
// when every Run drew from a fresh rand.New(rand.NewSource(seed)), and
// must hold whatever seeds were drawn before, on this goroutine or on
// others at the same time.
func TestKernelChecksumsPinned(t *testing.T) {
	cases := []struct {
		b    *Benchmark
		n    int
		seed int64
		sum  float64
	}{
		{SortBenchmark(), 64, 1, 1.753690077765e+12},
		{SortBenchmark(), 64, 2, 1.51683823184e+12},
		{SortBenchmark(), 64, 77, 1.49395141279e+12},
		{SortBenchmark(), 1000, 1, 3.58589499290254e+14},
		{SortBenchmark(), 1000, 2, 3.62828860250716e+14},
		{SortBenchmark(), 1000, 77, 3.57329901671173e+14},
		{MatMulBenchmark(), 8, 1, 256.1539457053794},
		{MatMulBenchmark(), 8, 2, 62.72412806530994},
		{MatMulBenchmark(), 8, 77, -39.033197959199},
		{MatMulBenchmark(), 40, 1, -13094.889140515188},
		{MatMulBenchmark(), 40, 2, 13821.4154696044},
		{MatMulBenchmark(), 40, 77, 54914.17826650537},
	}
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	check := func(i int) bool {
		c := cases[i]
		r, err := c.b.Run(pool, c.b.Baseline(), c.n, c.seed, RunOpts{AccIndex: -1})
		if err != nil || r.Checksum != c.sum {
			t.Errorf("%s n=%d seed=%d: checksum %v (err %v), pinned %v", c.b.Name, c.n, c.seed, r.Checksum, err, c.sum)
			return false
		}
		return true
	}
	for i := range cases {
		check(i)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				if !check((i + g) % len(cases)) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
