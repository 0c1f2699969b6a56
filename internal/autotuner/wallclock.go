package autotuner

import (
	"fmt"

	"petabricks/internal/choice"
)

// Program abstracts a runnable tunable program for wall-clock
// measurement and §3.5 consistency checking. Run must build a fresh
// input deterministically from (size, seed) — so every candidate
// configuration sees the same data — execute under cfg, and return the
// output with the seconds the algorithm alone took (input generation and
// output checks excluded).
type Program interface {
	Run(cfg *choice.Config, size int64, seed int64) (out any, seconds float64, err error)
	// Same reports whether two outputs agree within tol (iterative
	// algorithms may differ below the threshold).
	Same(a, b any, tol float64) bool
}

// WallClock measures configurations by executing the real program,
// taking the fastest of Trials runs' reported seconds.
type WallClock struct {
	P      Program
	Trials int
	Seed   int64
}

// Measure implements Evaluator.
func (w *WallClock) Measure(cfg *choice.Config, n int64) float64 {
	trials := w.Trials
	if trials <= 0 {
		trials = 1
	}
	best := 0.0
	for t := 0; t < trials; t++ {
		_, sec, err := w.P.Run(cfg, n, w.Seed+int64(t))
		if err != nil {
			return 1e30 // disqualify configurations that fail
		}
		if t == 0 || sec < best {
			best = sec
		}
	}
	return best
}

// ConsistencyCheck returns an Options.Check hook implementing §3.5: at
// every tuning round it runs each candidate on the same fixed input and
// verifies all outputs agree within tol. "The consistency checking
// merely uses a fixed input during each autotuning round and ensures
// that the same output is produced by every candidate algorithm."
func ConsistencyCheck(p Program, tol float64, seed int64) func(size int64, cfgs []*choice.Config) error {
	return func(size int64, cfgs []*choice.Config) error {
		// Candidates whose Run fails outright are already disqualified by
		// their (infinite) measured cost; the consistency check only
		// compares candidates that produce an output.
		var ref any
		have := false
		for i, cfg := range cfgs {
			out, _, err := p.Run(cfg, size, seed)
			if err != nil {
				continue
			}
			if !have {
				ref = out
				have = true
				continue
			}
			if !p.Same(ref, out, tol) {
				return fmt.Errorf("candidate %d disagrees with reference output at size %d", i, size)
			}
		}
		if !have && len(cfgs) > 0 {
			return fmt.Errorf("no candidate configuration produced output at size %d", size)
		}
		return nil
	}
}
