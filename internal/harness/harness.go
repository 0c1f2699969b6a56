// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the per-benchmark time-versus-size figures (11, 12,
// 14, 15), the parallel-scalability figure (16), the cross-architecture
// tables (1 and 2), and the introduction's std::sort cutoff claim. Each
// experiment returns typed series that render as plain-text tables, and
// checks the paper's qualitative claims (who wins, where crossovers
// fall) programmatically.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/runtime"
)

// Series is one labelled curve: y (seconds or model cost) against x
// (input size, thread count, …).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Experiment is one regenerated table or figure.
type Experiment struct {
	ID     string // e.g. "fig14"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries the harness's qualitative checks and the tuned
	// configurations it found.
	Notes []string
}

// Render prints the experiment as a text table, one row per x value.
func (e Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", e.XLabel, e.YLabel)
	// Collect union of x values.
	xs := map[float64]bool{}
	for _, s := range e.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var order []float64
	for x := range xs {
		order = append(order, x)
	}
	sort.Float64s(order)
	fmt.Fprintf(&b, "%12s", e.XLabel)
	for _, s := range e.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range order {
		fmt.Fprintf(&b, "%12g", x)
		for _, s := range e.Series {
			y, ok := s.at(x)
			if !ok {
				fmt.Fprintf(&b, " %14s", "-")
			} else {
				fmt.Fprintf(&b, " %14.6g", y)
			}
		}
		b.WriteString("\n")
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

func (s Series) at(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Final returns the last y value of the series.
func (s Series) Final() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// FindSeries returns the named series.
func (e Experiment) FindSeries(name string) (Series, bool) {
	for _, s := range e.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// runBest times one point of a figure through the benchmark's own timed
// run: the fastest Seconds of trials b.Run calls on the (n, seed)
// instance under cfg on pool. Input generation and output checks are
// outside the time.
func runBest(b *bench.Benchmark, pool *runtime.Pool, cfg *choice.Config, n int, seed int64, trials int) (float64, error) {
	best := 0.0
	for t := 0; t < max(trials, 1); t++ {
		r, err := b.Run(pool, cfg, n, seed, bench.RunOpts{AccIndex: -1})
		if err != nil {
			return 0, fmt.Errorf("harness: %s at n=%d: %w", b.Name, n, err)
		}
		if t == 0 || r.Seconds < best {
			best = r.Seconds
		}
	}
	return best, nil
}

// timeIt returns the best-of-trials wall time of f in seconds; Fig11's
// per-method Poisson solvers, which have no descriptor, time through it.
func timeIt(trials int, f func()) float64 {
	if trials < 1 {
		trials = 1
	}
	best := 0.0
	for t := 0; t < trials; t++ {
		start := time.Now()
		f()
		d := time.Since(start).Seconds()
		if t == 0 || d < best {
			best = d
		}
	}
	return best
}
