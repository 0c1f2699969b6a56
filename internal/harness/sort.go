package harness

import (
	"fmt"
	"math/rand"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/runtime"
)

// SortParams scales the Figure 14 experiment.
type SortParams struct {
	Sizes    []int // x axis; paper: up to ~1750
	TuneMax  int64 // autotuner's largest training size
	Trials   int
	Workers  int
	InsCap   int // largest size pure insertion sort is timed at
	SeedBase int64
}

// DefaultSortParams mirrors Figure 14's ranges.
func DefaultSortParams() SortParams {
	return SortParams{
		Sizes:   []int{250, 500, 750, 1000, 1250, 1500, 1750},
		TuneMax: 2048,
		Trials:  3,
		Workers: 8,
		InsCap:  1 << 30,
	}
}

// Fig14 regenerates Figure 14: sort time versus input size for each pure
// algorithm and the autotuned hybrid.
func Fig14(p SortParams) (Experiment, error) {
	pool := runtime.NewPool(p.Workers)
	defer pool.Close()
	tuned, _, _, err := bench.Tune(bench.SortBenchmark(), pool, p.TuneMax, 7)
	if err != nil {
		return Experiment{}, err
	}
	exp := Experiment{
		ID: "fig14", Title: "Performance for sort (paper Figure 14)",
		XLabel: "n", YLabel: "seconds",
	}
	exp.Notes = append(exp.Notes,
		"tuned: "+tuned.Selector("sort", 0).Render(sortk.ChoiceNames))
	pure := func(c int) *choice.Config {
		cfg := choice.NewConfig()
		sel := choice.NewSelector(c)
		if c == sortk.ChoiceMS {
			sel.Levels[0] = sel.Levels[0].WithParam("k", 2)
		}
		cfg.SetSelector("sort", sel)
		cfg.SetInt("sort.seqcutoff", 2048)
		return cfg
	}
	names := []string{"InsertionSort", "QuickSort", "MergeSort", "RadixSort", "Autotuned"}
	cfgs := []*choice.Config{pure(0), pure(1), pure(2), pure(3), tuned}
	tr := sortk.New()
	for ci, cfg := range cfgs {
		s := Series{Name: names[ci]}
		for _, n := range p.Sizes {
			if ci == 0 && n > p.InsCap {
				continue
			}
			ex := choice.NewExec(pool, cfg)
			sec := timeIt(p.Trials, func() {
				rng := rand.New(rand.NewSource(p.SeedBase + int64(n)))
				in := sortk.Generate(rng, n)
				choice.Run(ex, tr, in)
			})
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sec)
		}
		exp.Series = append(exp.Series, s)
	}
	// Qualitative check: the autotuned hybrid is within noise of the best
	// pure algorithm at the largest size (the paper: "significant
	// performance improvements over any single algorithm").
	exp.Notes = append(exp.Notes, shapeCheckBestOrClose(exp, "Autotuned", 1.5))
	return exp, nil
}

// shapeCheckBestOrClose verifies the named series' final point is at
// most slack× the best final point.
func shapeCheckBestOrClose(exp Experiment, name string, slack float64) string {
	target, ok := exp.FindSeries(name)
	if !ok || len(target.Y) == 0 {
		return "shape check skipped: series missing"
	}
	best := target.Final()
	bestName := name
	for _, s := range exp.Series {
		if len(s.Y) > 0 && s.Final() < best {
			best = s.Final()
			bestName = s.Name
		}
	}
	if target.Final() <= best*slack {
		return fmt.Sprintf("shape OK: %s final %.3gs vs best (%s) %.3gs",
			name, target.Final(), bestName, best)
	}
	return fmt.Sprintf("shape WARNING: %s final %.3gs exceeds best (%s) %.3gs by more than %.1fx",
		name, target.Final(), bestName, best, slack)
}
