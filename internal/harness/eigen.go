package harness

import (
	"fmt"
	"math/rand"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/eigen"
)

// EigenParams scales the Figure 12 experiment.
type EigenParams struct {
	Sizes   []int
	TuneMax int64
	Trials  int
	Workers int
}

// DefaultEigenParams mirrors Figure 12 (n up to 1000) at laptop scale.
func DefaultEigenParams() EigenParams {
	return EigenParams{
		Sizes:   []int{100, 200, 400, 600, 800},
		TuneMax: 512,
		Trials:  1,
		Workers: 8,
	}
}

// Fig12 regenerates Figure 12: eigenproblem time versus size for QR,
// Bisection, DC, the LAPACK-style Cutoff-25 hybrid, and the autotuned
// hybrid.
func Fig12(p EigenParams) (Experiment, error) {
	// The paper's result: divide-and-conquer above a cutoff near 48, QR
	// below. The eigensolvers run sequentially per Figure 12's setup.
	tuned, _, _, err := bench.Tune(bench.EigenBenchmark(), nil, p.TuneMax, 21)
	if err != nil {
		return Experiment{}, err
	}
	exp := Experiment{
		ID: "fig12", Title: "Performance for Eigenproblem (paper Figure 12)",
		XLabel: "n", YLabel: "seconds",
	}
	exp.Notes = append(exp.Notes,
		"tuned: "+tuned.Selector("eig", 0).Render(eigen.ChoiceNames))
	pure := func(c int) *choice.Config {
		cfg := choice.NewConfig()
		cfg.SetSelector("eig", choice.NewSelector(c))
		return cfg
	}
	dcConfig := choice.NewConfig()
	dcConfig.SetSelector("eig", choice.Selector{Levels: []choice.Level{
		{Cutoff: 3, Choice: eigen.ChoiceQR}, // D&C bottoms out in 2x2 QR
		{Cutoff: choice.Inf, Choice: eigen.ChoiceDC},
	}})
	configs := []struct {
		name string
		cfg  *choice.Config
	}{
		{"QR", pure(eigen.ChoiceQR)},
		{"Bisection", pure(eigen.ChoiceBIS)},
		{"DC", dcConfig},
		{"Cutoff 25", eigen.Cutoff25Config()},
		{"Autotuned", tuned},
	}
	tr := eigen.New()
	for _, c := range configs {
		s := Series{Name: c.name}
		for _, n := range p.Sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			tri := eigen.Generate(rng, n)
			ex := choice.NewExec(nil, c.cfg)
			var runErr error
			sec := timeIt(p.Trials, func() {
				out := choice.Run(ex, tr, tri)
				if out.Err != nil {
					runErr = out.Err
				}
			})
			if runErr != nil {
				return Experiment{}, fmt.Errorf("harness: %s at n=%d: %w", c.name, n, runErr)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sec)
		}
		exp.Series = append(exp.Series, s)
	}
	exp.Notes = append(exp.Notes, shapeCheckBestOrClose(exp, "Autotuned", 1.5))
	return exp, nil
}
