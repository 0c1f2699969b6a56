package harness

import (
	"fmt"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/sortk"
)

// CutoffParams scales the std::sort cutoff experiment from the paper's
// introduction: "std::sort … uses merge sort until the list is smaller
// than 15 elements and then switches to insertion sort. Our tests have
// shown that higher cutoffs (around 60-150) perform much better on
// current architectures."
type CutoffParams struct {
	N       int
	Cutoffs []int64
	Trials  int
}

// DefaultCutoffParams mirrors the claim's setting.
func DefaultCutoffParams() CutoffParams {
	return CutoffParams{
		N:       200000,
		Cutoffs: []int64{5, 15, 30, 60, 100, 150, 300, 600, 1200},
		Trials:  3,
	}
}

// STLCutoff times merge sort with an insertion-sort base case at varying
// cutoffs, sequentially, like libstdc++'s std::sort structure.
func STLCutoff(p CutoffParams) (Experiment, error) {
	exp := Experiment{
		ID: "cutoff", Title: "Merge/insertion cutoff sweep (paper §1 claim)",
		XLabel: "cutoff", YLabel: "seconds",
	}
	b := bench.SortBenchmark()
	s := Series{Name: "2MS+IS"}
	for _, cut := range p.Cutoffs {
		cfg := choice.NewConfig()
		cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
			{Cutoff: cut, Choice: sortk.ChoiceIS},
			{Cutoff: choice.Inf, Choice: sortk.ChoiceMS, Params: map[string]int64{"k": 2}},
		}})
		sec, err := runBest(b, nil, cfg, p.N, 1234, p.Trials)
		if err != nil {
			return Experiment{}, err
		}
		s.X = append(s.X, float64(cut))
		s.Y = append(s.Y, sec)
	}
	exp.Series = append(exp.Series, s)
	// Shape check: the paper claims cutoffs around 60-150 beat 15.
	at := func(c float64) float64 {
		v, _ := s.at(c)
		return v
	}
	best := at(60)
	if at(100) < best {
		best = at(100)
	}
	if at(150) < best {
		best = at(150)
	}
	if best < at(15) {
		exp.Notes = append(exp.Notes, fmt.Sprintf(
			"shape OK: best 60-150 cutoff %.3gs beats cutoff-15 %.3gs", best, at(15)))
	} else {
		exp.Notes = append(exp.Notes, fmt.Sprintf(
			"shape WARNING: cutoff-15 (%.3gs) not beaten by 60-150 (%.3gs)", at(15), best))
	}
	return exp, nil
}
