package matmul

import (
	"math/rand"
	"slices"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/linalg"
	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

func refMul(p Problem) *matrix.Matrix {
	h, _, w := p.Shape()
	ref := matrix.New(h, w)
	linalg.MulBasic(ref, p.A, p.B)
	return ref
}

func pureConfig(c int) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("matmul", choice.NewSelector(c))
	return cfg
}

func TestAllChoicesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	for _, n := range []int{1, 2, 3, 8, 17, 32, 64} {
		p := Generate(rng, n)
		ref := refMul(p)
		for ci, name := range ChoiceNames {
			p.C.Fill(-99)
			ex := choice.NewExec(nil, pureConfig(ci))
			choice.Run(ex, tr, p)
			if d := ref.MaxAbsDiff(p.C); d > 1e-8 {
				t.Errorf("choice %s differs by %g at n=%d", name, d, n)
			}
		}
	}
}

func TestRectangularShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := New()
	shapes := [][3]int{{4, 9, 2}, {1, 5, 7}, {13, 1, 13}, {6, 6, 1}}
	for _, s := range shapes {
		h, c, w := s[0], s[1], s[2]
		a := matrix.New(h, c)
		b := matrix.New(c, w)
		a.Each(func([]int, float64) float64 { return rng.Float64() })
		b.Each(func([]int, float64) float64 { return rng.Float64() })
		p := Problem{C: matrix.New(h, w), A: a, B: b}
		ref := refMul(p)
		for ci, name := range ChoiceNames {
			p.C.Fill(0)
			choice.Run(choice.NewExec(nil, pureConfig(ci)), tr, p)
			if d := ref.MaxAbsDiff(p.C); d > 1e-8 {
				t.Errorf("choice %s wrong on shape %v (diff %g)", name, s, d)
			}
		}
	}
}

func TestStrassen256StyleSelector(t *testing.T) {
	// Figure 15's "Strassen 256": Strassen until the recursion reaches
	// the cutoff, then the base multiply (we use 16 to keep tests fast).
	rng := rand.New(rand.NewSource(3))
	cfg := choice.NewConfig()
	cfg.SetSelector("matmul", choice.Selector{Levels: []choice.Level{
		{Cutoff: 16, Choice: ChoiceBasic},
		{Cutoff: choice.Inf, Choice: ChoiceStrassen},
	}})
	tr := New()
	p := Generate(rng, 64)
	ref := refMul(p)
	choice.Run(choice.NewExec(nil, cfg), tr, p)
	if d := ref.MaxAbsDiff(p.C); d > 1e-8 {
		t.Fatalf("Strassen-cutoff hybrid differs by %g", d)
	}
}

func TestHybridRecursiveIntoBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := choice.NewConfig()
	cfg.SetSelector("matmul", choice.Selector{Levels: []choice.Level{
		{Cutoff: 32, Choice: ChoiceBlocked, Params: map[string]int64{"block": 8}},
		{Cutoff: choice.Inf, Choice: ChoiceRecC},
	}})
	tr := New()
	p := Generate(rng, 96)
	ref := refMul(p)
	choice.Run(choice.NewExec(nil, cfg), tr, p)
	if d := ref.MaxAbsDiff(p.C); d > 1e-8 {
		t.Fatalf("hybrid differs by %g", d)
	}
}

func TestParallelExecution(t *testing.T) {
	pool := runtime.NewPool(8)
	defer pool.Close()
	rng := rand.New(rand.NewSource(5))
	for _, ci := range []int{ChoiceRecC, ChoiceRecW, ChoiceRecH, ChoiceStrassen} {
		cfg := choice.NewConfig()
		cfg.SetSelector("matmul", choice.Selector{Levels: []choice.Level{
			{Cutoff: 16, Choice: ChoiceBasic},
			{Cutoff: choice.Inf, Choice: ci},
		}})
		cfg.SetInt("matmul.seqcutoff", 32)
		tr := New()
		p := Generate(rng, 128)
		ref := refMul(p)
		choice.Run(choice.NewExec(pool, cfg), tr, p)
		if d := ref.MaxAbsDiff(p.C); d > 1e-8 {
			t.Errorf("parallel choice %s differs by %g", ChoiceNames[ci], d)
		}
	}
}

func TestSpaceValid(t *testing.T) {
	tr := New()
	sp := Space(tr)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(sp.Selectors, func(s choice.SelectorSpec) bool { return s.Transform == "matmul" })
	if i < 0 || sp.Selectors[i].NumChoices() != 7 {
		t.Fatalf("selector specs wrong: %+v", sp.Selectors)
	}
	spec := sp.Selectors[i]
	if len(spec.RecursiveChoices()) != 4 {
		t.Fatalf("recursive choices = %v", spec.RecursiveChoices())
	}
}

func TestGenerateShapes(t *testing.T) {
	p := Generate(rand.New(rand.NewSource(6)), 10)
	h, c, w := p.Shape()
	if h != 10 || c != 10 || w != 10 {
		t.Fatalf("Generate shape (%d,%d,%d)", h, c, w)
	}
}

func TestSizeMetricIsMaxDim(t *testing.T) {
	tr := New()
	a := matrix.New(2, 50)
	b := matrix.New(50, 3)
	p := Problem{C: matrix.New(2, 3), A: a, B: b}
	if tr.Size(p) != 50 {
		t.Fatalf("Size = %d, want 50", tr.Size(p))
	}
}
