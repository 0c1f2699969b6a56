package harness

import (
	"fmt"
	goruntime "runtime"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/matmul"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/runtime"
	"petabricks/internal/simarch"
)

// ScalabilityParams scales the Figure 16 experiment.
type ScalabilityParams struct {
	MaxWorkers int
	SortN      int
	MatMulN    int
	Trials     int
	// Mode selects how speedups are obtained; ModeAuto measures wall
	// clock where the Go scheduler runs on two or more cores and falls
	// back to the machine model on one (where real parallel speedup
	// cannot exist). The wall-clock sweep stops at GOMAXPROCS.
	Mode ScalabilityMode
}

// ScalabilityMode picks the Figure 16 measurement source.
type ScalabilityMode int

// Scalability modes.
const (
	ModeAuto ScalabilityMode = iota
	ModeWallClock
	ModeModel
)

// DefaultScalabilityParams mirrors Figure 16 (1..8 worker threads).
func DefaultScalabilityParams() ScalabilityParams {
	return ScalabilityParams{MaxWorkers: 8, SortN: 400000, MatMulN: 384, Trials: 2, Mode: ModeAuto}
}

// Fig16 regenerates Figure 16: speedup of the autotuned benchmarks as
// worker threads are added. (The paper plots four benchmarks; the two
// compute-bound ones are representative — the Poisson and eigenproblem
// benchmarks in this reproduction are dominated by sequential kernels at
// laptop sizes, which the notes call out.)
func Fig16(p ScalabilityParams) (Experiment, error) {
	exp := Experiment{
		ID: "fig16", Title: "Parallel scalability (paper Figure 16)",
		XLabel: "threads", YLabel: "speedup",
	}
	mode := p.Mode
	if mode == ModeAuto {
		if goruntime.GOMAXPROCS(0) < 2 {
			mode = ModeModel
		} else {
			mode = ModeWallClock
		}
	}
	// Sort: parallel-friendly tuned-style config (2-way merge sort with
	// recursive merge on top, quick sort mid, insertion base).
	sortCfg := choice.NewConfig()
	sortCfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
		{Cutoff: 600, Choice: sortk.ChoiceIS},
		{Cutoff: 1420, Choice: sortk.ChoiceQS},
		{Cutoff: choice.Inf, Choice: sortk.ChoiceMS, Params: map[string]int64{"k": 2}},
	}})
	sortCfg.SetInt("sort.seqcutoff", 2048)
	// Matrix multiply: recursive decomposition over blocked base.
	mmCfg := choice.NewConfig()
	mmCfg.SetSelector("matmul", choice.Selector{Levels: []choice.Level{
		{Cutoff: 64, Choice: matmul.ChoiceBlocked, Params: map[string]int64{"block": 48}},
		{Cutoff: choice.Inf, Choice: matmul.ChoiceRecW},
	}})
	mmCfg.SetInt("matmul.seqcutoff", 64)
	if mode == ModeModel {
		return fig16Model(p, exp, sortCfg, mmCfg)
	}
	benches := []struct {
		name string
		b    *bench.Benchmark
		cfg  *choice.Config
		n    int
		seed int64
	}{
		{"Autotuned Sort", bench.SortBenchmark(), sortCfg, p.SortN, 42},
		{"Autotuned Matrix Multiply", bench.MatMulBenchmark(), mmCfg, p.MatMulN, 43},
	}
	// Workers beyond the host's cores only share them, so the sweep
	// stops at the cores the Go scheduler runs on.
	widest := min(p.MaxWorkers, goruntime.GOMAXPROCS(0))
	for _, b := range benches {
		base := 0.0
		s := Series{Name: b.name}
		for w := 1; w <= widest; w++ {
			pool := runtime.NewPool(w)
			sec, err := runBest(b.b, pool, b.cfg, b.n, b.seed, p.Trials)
			pool.Close()
			if err != nil {
				return Experiment{}, err
			}
			if w == 1 {
				base = sec
			}
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, base/sec)
		}
		exp.Series = append(exp.Series, s)
	}
	// Shape check: speedup at the widest swept pool exceeds 1.5x for
	// each series.
	for _, s := range exp.Series {
		if s.Final() < 1.5 {
			exp.Notes = append(exp.Notes, fmt.Sprintf(
				"shape WARNING: %s speedup at %d workers only %.2fx", s.Name, widest, s.Final()))
		} else {
			exp.Notes = append(exp.Notes, fmt.Sprintf(
				"shape OK: %s speedup %.2fx at %d workers", s.Name, s.Final(), widest))
		}
	}
	return exp, nil
}

// fig16Model produces Figure 16 from the deterministic machine models:
// the speedup of each benchmark's tuned configuration on a Xeon-like
// machine as the model's core count sweeps 1..MaxWorkers. This is the
// substitution path for hosts without real parallelism.
func fig16Model(p ScalabilityParams, exp Experiment, sortCfg, mmCfg *choice.Config) (Experiment, error) {
	exp.Notes = append(exp.Notes,
		"host lacks multiple CPUs (or ModeModel forced): speedups from the machine model, not wall clock")
	type model struct {
		name    string
		measure func(cores int) float64
	}
	arch := func(cores int) simarch.Arch {
		a := simarch.Xeon8
		a.Cores = cores
		return a
	}
	models := []model{
		{"Autotuned Sort", func(cores int) float64 {
			return simarch.SortModel{Arch: arch(cores)}.Measure(sortCfg, int64(p.SortN))
		}},
		{"Autotuned Matrix Multiply", func(cores int) float64 {
			return simarch.MatMulModel{Arch: arch(cores)}.Measure(mmCfg, int64(p.MatMulN))
		}},
	}
	for _, m := range models {
		base := m.measure(1)
		s := Series{Name: m.name}
		for w := 1; w <= p.MaxWorkers; w++ {
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, base/m.measure(w))
		}
		exp.Series = append(exp.Series, s)
		if s.Final() < 1.5 {
			exp.Notes = append(exp.Notes, fmt.Sprintf(
				"shape WARNING: %s model speedup only %.2fx", s.Name, s.Final()))
		} else {
			exp.Notes = append(exp.Notes, fmt.Sprintf(
				"shape OK: %s model speedup %.2fx at %d workers", s.Name, s.Final(), p.MaxWorkers))
		}
	}
	return exp, nil
}
