package simarch

import (
	"petabricks/internal/choice"
	"petabricks/internal/kernels/sortk"
)

// SortModel is a deterministic work/span execution model of the sort
// benchmark on a simulated architecture. It implements
// autotuner.Evaluator, so the same population-based tuner that trains
// against wall-clock time trains against the model — this is how the
// repo reproduces "training on the Niagara" without the hardware.
//
// Costs are in abstract operation units per element:
//   - insertion sort: quadratic comparison/move cost, fully sequential;
//   - quick sort: linear sequential partition + two recursive calls
//     (parallel above the sequential cutoff);
//   - k-way merge sort: recursive sub-sorts (parallel) plus a merge that
//     is itself parallelizable only for k = 2 (the paper's recursive
//     2-way merge); memory-bandwidth bound, so scaled by MemPenalty;
//   - 16-bucket radix sort: two linear bandwidth-bound passes per level
//     with parallel recursion into the 16 buckets.
type SortModel struct {
	Arch Arch
}

type wst struct {
	work, span, tasks float64
}

// Measure implements autotuner.Evaluator: model seconds for one run of
// the tuned sort on an input of size n.
func (m SortModel) Measure(cfg *choice.Config, n int64) float64 {
	memo := map[int64]wst{}
	c := m.cost(cfg, n, memo)
	return m.Arch.Time(c.work, c.span, c.tasks)
}

func (m SortModel) cost(cfg *choice.Config, n int64, memo map[int64]wst) wst {
	if n <= 1 {
		return wst{work: 1, span: 1}
	}
	if c, ok := memo[n]; ok {
		return c
	}
	level := cfg.Selector("sort", 0).Choose(n)
	seqCut := cfg.Int("sort.seqcutoff", 2048)
	par := m.Arch.Cores > 1 && n >= seqCut
	fn := float64(n)
	mem := m.Arch.MemPenalty
	var c wst
	switch level.Choice {
	case sortk.ChoiceIS:
		w := 0.125*fn*fn + fn
		c = wst{work: w, span: w}
	case sortk.ChoiceQS:
		sub := m.cost(cfg, n/2, memo)
		partition := 1.5 * fn
		c.work = partition + 2*sub.work
		c.tasks = 2 * sub.tasks
		if par {
			c.span = partition + sub.span
			c.tasks++
		} else {
			c.span = c.work
		}
	case sortk.ChoiceMS:
		k := level.Param("k", 2)
		if k < 2 {
			k = 2
		}
		if k > n {
			k = n
		}
		sub := m.cost(cfg, n/k, memo)
		var mergeW, mergeS float64
		if k == 2 {
			mergeW = 1.2 * fn * mem
			mergeS = mergeW
			if par {
				mergeS = 0.35 * fn * mem // recursive parallel merge
			}
		} else {
			mergeW = 0.5 * fn * float64(k) * mem
			mergeS = mergeW // k-way scan merge is sequential
		}
		c.work = mergeW + float64(k)*sub.work
		c.tasks = float64(k) * sub.tasks
		if par {
			c.span = mergeS + sub.span
			c.tasks += float64(k) - 1
		} else {
			c.span = c.work
		}
	case sortk.ChoiceRS:
		sub := m.cost(cfg, n/16, memo)
		passes := 3.5 * fn * mem
		c.work = passes + 16*sub.work
		c.tasks = 16 * sub.tasks
		if par {
			c.span = passes + sub.span
			c.tasks += 16
		} else {
			c.span = c.work
		}
	default:
		// Unknown choice: prohibitively expensive, never selected.
		c = wst{work: 1e18, span: 1e18}
	}
	memo[n] = c
	return c
}

// SequentialModel returns the same machine restricted to one core,
// used to compute the model's parallel-speedup column of Table 2.
func (m SortModel) SequentialModel() SortModel {
	a := m.Arch
	a.Cores = 1
	return SortModel{Arch: a}
}

// Speedup returns T(1 core)/T(all cores) for cfg at size n — the
// "Scalability" column of Table 2.
func (m SortModel) Speedup(cfg *choice.Config, n int64) float64 {
	seq := m.SequentialModel().Measure(cfg, n)
	parl := m.Measure(cfg, n)
	return seq / parl
}
