package eigen

import (
	"petabricks/internal/choice"
	"petabricks/internal/runtime"
)

// Out is the EIG transform's output: an eigendecomposition or the error
// that prevented it.
type Out struct {
	R   Result
	Err error
}

// Choice menu indices for the EIG transform (paper Figure 13).
const (
	ChoiceQR  = iota // QR iteration
	ChoiceBIS        // bisection + inverse iteration
	ChoiceDC         // divide-and-conquer (recursive)
)

// ChoiceNames abbreviates the menu as in Figure 12's series labels.
var ChoiceNames = []string{"QR", "BIS", "DC"}

// New builds the EIG transform of Figure 13: "either use QR…, use
// BISECTION…, or recursively call EIG on submatrices T1 and T2".
func New() *choice.Transform[Tridiag, Out] {
	t := &choice.Transform[Tridiag, Out]{
		Name: "eig",
		Size: func(in Tridiag) int64 { return int64(in.N()) },
	}
	t.Choices = []choice.Choice[Tridiag, Out]{
		{Name: "QR", Fn: func(c *choice.Call[Tridiag, Out], in Tridiag) Out {
			r, err := QR(in)
			return Out{R: r, Err: err}
		}},
		{Name: "BIS", Fn: func(c *choice.Call[Tridiag, Out], in Tridiag) Out {
			// "Each eigenvalue and eigenvector thus can be computed
			// independently, making the algorithm embarrassingly
			// parallel" (§4.2.1).
			r, err := BisectionParallel(in, func(n int, body func(lo, hi int)) {
				c.ParallelFor(0, n, 8, func(_ *runtime.Worker, lo, hi int) { body(lo, hi) })
			})
			return Out{R: r, Err: err}
		}},
		{Name: "DC", Recursive: true, Fn: func(c *choice.Call[Tridiag, Out], in Tridiag) Out {
			if in.N() <= 2 {
				// Degenerate splits bottom out in QR.
				r, err := QR(in)
				return Out{R: r, Err: err}
			}
			// The two half-size subproblems are independent; solve them
			// as a fork-join pair above the sequential cutoff, each
			// branch recursing through the Call it is handed.
			t1, t2, beta := DCSplit(in)
			var o1, o2 Out
			c.Parallel(
				func(cc *choice.Call[Tridiag, Out]) { o1 = cc.Recurse(t1) },
				func(cc *choice.Call[Tridiag, Out]) { o2 = cc.Recurse(t2) },
			)
			if o1.Err != nil {
				return o1
			}
			if o2.Err != nil {
				return o2
			}
			r, err := DCMerge(o1.R, o2.R, beta)
			return Out{R: r, Err: err}
		}},
	}
	return t
}

// Space declares the EIG benchmark's configuration space.
func Space(t *choice.Transform[Tridiag, Out]) *choice.Space {
	sp := &choice.Space{}
	sp.AddSelector(t.SelectorSpec(2))
	sp.AddTunable(choice.TunableSpec{
		Name: t.SeqCutoffName(), Min: 8, Max: 4096, Default: 64, LogScale: true,
	})
	return sp
}

// Cutoff25Config reproduces the LAPACK dstevd strategy the paper calls
// "Cutoff 25": divide-and-conquer switching to QR for n ≤ 25.
func Cutoff25Config() *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.Selector{Levels: []choice.Level{
		{Cutoff: 26, Choice: ChoiceQR},
		{Cutoff: choice.Inf, Choice: ChoiceDC},
	}})
	return cfg
}
