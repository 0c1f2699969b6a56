package harness

import (
	"fmt"
	"math/rand"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/matmul"
	"petabricks/internal/linalg"
	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

// MatMulParams scales the Figure 15 experiment.
type MatMulParams struct {
	Sizes   []int
	TuneMax int64
	Trials  int
	Workers int
	// BasicCap bounds the sizes the slow baselines are timed at.
	BasicCap int
}

// DefaultMatMulParams mirrors Figure 15's shape at laptop scale.
func DefaultMatMulParams() MatMulParams {
	return MatMulParams{
		Sizes:    []int{64, 128, 256, 384, 512},
		TuneMax:  256,
		Trials:   1,
		Workers:  8,
		BasicCap: 1 << 30,
	}
}

// Fig15 regenerates Figure 15: matrix multiply time versus size for
// Basic, Blocking, Transpose, Recursive (c-decomposition), Strassen-256,
// and the autotuned hybrid.
func Fig15(p MatMulParams) (Experiment, error) {
	pool := runtime.NewPool(p.Workers)
	defer pool.Close()
	tuned, _, _, err := bench.Tune(bench.MatMulBenchmark(), pool, p.TuneMax, 11)
	if err != nil {
		return Experiment{}, err
	}
	exp := Experiment{
		ID: "fig15", Title: "Performance for Matrix Multiply (paper Figure 15)",
		XLabel: "n", YLabel: "seconds",
	}
	exp.Notes = append(exp.Notes,
		"tuned: "+tuned.Selector("matmul", 0).Render(matmul.ChoiceNames))
	mk := func(levels ...choice.Level) *choice.Config {
		cfg := choice.NewConfig()
		cfg.SetSelector("matmul", choice.Selector{Levels: levels}.Normalize())
		cfg.SetInt("matmul.seqcutoff", 64)
		return cfg
	}
	strassenCut := int64(256)
	configs := []struct {
		name string
		cfg  *choice.Config
		slow bool
	}{
		{"Basic", mk(choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceBasic}), true},
		{"Blocking", mk(choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceBlocked,
			Params: map[string]int64{"block": 64}}), false},
		{"Transpose", mk(choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceTranspos}), false},
		{"Recursive", mk(
			choice.Level{Cutoff: 64, Choice: matmul.ChoiceBasic},
			choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceRecC}), false},
		{fmt.Sprintf("Strassen %d", strassenCut), mk(
			choice.Level{Cutoff: strassenCut, Choice: matmul.ChoiceBlocked, Params: map[string]int64{"block": 64}},
			choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceStrassen}), false},
		{"Autotuned", tuned, false},
	}
	tr := matmul.New()
	for _, c := range configs {
		s := Series{Name: c.name}
		for _, n := range p.Sizes {
			if c.slow && n > p.BasicCap {
				continue
			}
			ex := choice.NewExec(pool, c.cfg)
			rng := rand.New(rand.NewSource(int64(n)))
			in := matmul.Generate(rng, n)
			sec := timeIt(p.Trials, func() {
				choice.Run(ex, tr, in)
			})
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sec)
		}
		exp.Series = append(exp.Series, s)
	}
	exp.Notes = append(exp.Notes, shapeCheckBestOrClose(exp, "Autotuned", 1.5))
	// Consistency spot check across the timed configurations.
	rng := rand.New(rand.NewSource(5))
	ref := matmul.Generate(rng, 48)
	h, _, w := ref.Shape()
	want := matrix.New(h, w)
	linalg.MulBasic(want, ref.A, ref.B)
	for _, c := range configs {
		ref.C.Fill(0)
		choice.Run(choice.NewExec(pool, c.cfg), tr, ref)
		if d := want.MaxAbsDiff(ref.C); d > 1e-6 {
			return Experiment{}, fmt.Errorf("harness: config %s output differs by %g", c.name, d)
		}
	}
	exp.Notes = append(exp.Notes, "consistency OK: all configurations agree at n=48")
	return exp, nil
}
