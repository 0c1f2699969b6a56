package interp

import (
	"math/rand"
	"sort"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/parser"
)

func mergeSortCfg(cutoff int64) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MergeSortDSL"), choice.Selector{Levels: []choice.Level{
		{Cutoff: cutoff, Choice: 0},
		{Cutoff: choice.Inf, Choice: 1},
	}})
	return cfg
}

func TestDSLMergeSortSorts(t *testing.T) {
	e := engine(t, parser.MergeSortSrc)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 33, 100} {
		for _, cutoff := range []int64{2, 8, 1 << 30} {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(rng.Intn(1000))
			}
			e.Cfg = mergeSortCfg(cutoff)
			out, err := e.Run1("MergeSortDSL", vec(data...))
			if err != nil {
				t.Fatalf("n=%d cutoff=%d: %v", n, cutoff, err)
			}
			want := append([]float64{}, data...)
			sort.Float64s(want)
			for i, w := range want {
				if out.At1(i) != w {
					t.Fatalf("n=%d cutoff=%d: B[%d] = %g, want %g", n, cutoff, i, out.At1(i), w)
				}
			}
		}
	}
}

func TestDSLMergeSortPureRecursiveHitsDepthLimit(t *testing.T) {
	// A configuration with no base-case level recurses on empty regions
	// forever; the engine's depth limit turns that into an error instead
	// of a hang.
	e := engine(t, parser.MergeSortSrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MergeSortDSL"), choice.NewSelector(1))
	e.Cfg = cfg
	if _, err := e.Run1("MergeSortDSL", vec(3, 1, 2)); err == nil {
		t.Fatal("expected recursion-limit error for base-less config")
	}
}

func TestDSLHeat1DVersions(t *testing.T) {
	e := engine(t, parser.Heat1DSrc)
	in := vec(0, 0, 4, 0, 0)
	out, err := e.Run1("Heat1D", in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dims() != 2 || out.Size(0) != 5 || out.Size(1) != 5 {
		t.Fatalf("B shape = %v", out.Shape())
	}
	// Simulate by hand: interior smoothing, boundary copies previous.
	cur := []float64{0, 0, 4, 0, 0}
	for step := 1; step <= 4; step++ {
		next := make([]float64, 5)
		for i := 0; i < 5; i++ {
			if i == 0 || i == 4 {
				next[i] = cur[i]
				continue
			}
			next[i] = 0.25*cur[i-1] + 0.5*cur[i] + 0.25*cur[i+1]
		}
		cur = next
		for i := 0; i < 5; i++ {
			if got := out.At(step, i); got != cur[i] {
				t.Fatalf("step %d cell %d = %g, want %g", step, i, got, cur[i])
			}
		}
	}
	// Mass conservation per step (kernel sums to 1; boundaries copy).
	total := func(step int) float64 {
		s := 0.0
		for i := 0; i < 5; i++ {
			s += out.At(step, i)
		}
		return s
	}
	_ = total
}

func TestDSLSummedAreaMatchesDirect(t *testing.T) {
	e := engine(t, parser.SummedAreaSrc)
	rng := rand.New(rand.NewSource(2))
	const w, h = 7, 6
	a := matrix.New(h, w)
	a.Each(func([]int, float64) float64 { return float64(rng.Intn(9)) })
	out, err := e.Run("SummedArea", map[string]*matrix.Matrix{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	b := out["B"]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := 0.0
			for yy := 0; yy <= y; yy++ {
				for xx := 0; xx <= x; xx++ {
					want += a.At(yy, xx)
				}
			}
			if b.At(y, x) != want {
				t.Fatalf("B[%d][%d] = %g, want %g", y, x, b.At(y, x), want)
			}
		}
	}
}

func TestCorpusParsesAndAnalyzes(t *testing.T) {
	for name, src := range map[string]string{
		"rollingsum": parser.RollingSumSrc,
		"matmul":     parser.MatrixMultiplySrc,
		"mergesort":  parser.MergeSortSrc,
		"heat1d":     parser.Heat1DSrc,
		"summedarea": parser.SummedAreaSrc,
	} {
		if _, err := New(mustParse(t, src)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
