package simarch

import (
	"petabricks/internal/choice"
	"petabricks/internal/kernels/matmul"
)

// MatMulModel is the work/span execution model of the matrix-multiply
// benchmark, used (like SortModel) wherever real hardware is missing —
// in particular for the Figure 16 scalability sweep on single-core
// hosts. Costs per choice, for an h×c by c×w product:
//   - basic triple loop: h·c·w multiply-adds, sequential;
//   - blocked: the same flops at a lower per-element constant;
//   - transposed: basic plus one c·w repack pass;
//   - recursive c/w/h decompositions: two half-problems (parallel above
//     the cutoff) plus, for the c split, an h·w addition pass;
//   - Strassen: seven half-size products plus 18 quadrant add passes.
type MatMulModel struct {
	Arch Arch
}

type mmKey struct{ h, c, w int64 }

// Measure implements autotuner.Evaluator for square problems of size n.
func (m MatMulModel) Measure(cfg *choice.Config, n int64) float64 {
	memo := map[mmKey]wst{}
	c := m.cost(cfg, n, n, n, memo)
	return m.Arch.Time(c.work, c.span, c.tasks)
}

func (m MatMulModel) cost(cfg *choice.Config, h, c, w int64, memo map[mmKey]wst) wst {
	if h <= 0 || c <= 0 || w <= 0 {
		return wst{work: 1, span: 1}
	}
	key := mmKey{h, c, w}
	if v, ok := memo[key]; ok {
		return v
	}
	size := h
	if c > size {
		size = c
	}
	if w > size {
		size = w
	}
	level := cfg.Selector("matmul", 0).Choose(size)
	seqCut := cfg.Int("matmul.seqcutoff", 128)
	par := m.Arch.Cores > 1 && size >= seqCut
	flops := float64(h) * float64(c) * float64(w)
	mem := m.Arch.MemPenalty
	var out wst
	combine2 := func(sub1, sub2 wst, extraW, extraS float64) wst {
		r := wst{work: sub1.work + sub2.work + extraW, tasks: sub1.tasks + sub2.tasks}
		if par {
			s := sub1.span
			if sub2.span > s {
				s = sub2.span
			}
			r.span = s + extraS
			r.tasks++
		} else {
			r.span = r.work
		}
		return r
	}
	basic := func() wst {
		wk := flops * mem
		return wst{work: wk, span: wk}
	}
	switch level.Choice {
	case matmul.ChoiceBasic:
		out = basic()
	case matmul.ChoiceBlocked:
		wk := flops * 0.55 * mem
		out = wst{work: wk, span: wk}
	case matmul.ChoiceTranspos:
		wk := flops*0.7 + 2*float64(c)*float64(w)*mem
		out = wst{work: wk, span: wk}
	case matmul.ChoiceRecC:
		// The kernels fall back to the base rule when the split
		// dimension cannot halve; the model matches.
		if c < 2 {
			out = basic()
			break
		}
		sub := m.cost(cfg, h, c/2, w, memo)
		add := float64(h) * float64(w) * mem
		out = combine2(sub, sub, add, add)
	case matmul.ChoiceRecW:
		if w < 2 {
			out = basic()
			break
		}
		sub := m.cost(cfg, h, c, w/2, memo)
		out = combine2(sub, sub, 0, 0)
	case matmul.ChoiceRecH:
		if h < 2 {
			out = basic()
			break
		}
		sub := m.cost(cfg, h/2, c, w, memo)
		out = combine2(sub, sub, 0, 0)
	case matmul.ChoiceStrassen:
		if h != c || c != w || h%2 != 0 || h < 2 {
			out = basic()
			break
		}
		sub := m.cost(cfg, h/2, c/2, w/2, memo)
		adds := 18 * float64(h/2) * float64(h/2) * mem
		out = wst{work: 7*sub.work + adds, tasks: 7 * sub.tasks}
		if par {
			out.span = sub.span + adds
			out.tasks += 7
		} else {
			out.span = out.work
		}
	default:
		out = wst{work: 1e18, span: 1e18}
	}
	memo[key] = out
	return out
}
