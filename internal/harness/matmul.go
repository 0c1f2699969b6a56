package harness

import (
	"fmt"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/matmul"
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
		Trials:   3,
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
	b := bench.MatMulBenchmark()
	tuned, _, _, err := bench.Tune(b, pool, p.TuneMax, 11)
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
	for _, c := range configs {
		s := Series{Name: c.name}
		for _, n := range p.Sizes {
			if c.slow && n > p.BasicCap {
				continue
			}
			sec, err := runBest(b, pool, c.cfg, n, int64(n), p.Trials)
			if err != nil {
				return Experiment{}, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sec)
		}
		exp.Series = append(exp.Series, s)
	}
	exp.Notes = append(exp.Notes, shapeCheckBestOrClose(exp, "Autotuned", 1.5))
	// Consistency spot check across the timed configurations: Run checks
	// its output against linalg.MulBasic at this size.
	for _, c := range configs {
		if _, err := b.Run(pool, c.cfg, 48, 5, bench.RunOpts{}); err != nil {
			return Experiment{}, fmt.Errorf("harness: config %s: %w", c.name, err)
		}
	}
	exp.Notes = append(exp.Notes, "consistency OK: all configurations agree at n=48")
	return exp, nil
}
