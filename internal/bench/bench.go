// Package bench is the shared registry of runnable benchmarks: one
// descriptor per kernel (sort, matmul, eigen, poisson) or DSL transform
// carrying how to execute an instance under a configuration, how to
// wall-clock-tune it (autotuner.Program + search space), and a sensible
// untuned baseline. cmd/pbrun, cmd/pbtune's wall-clock paths,
// internal/harness, the examples and the pbserve daemon all resolve
// benchmark names through this package, and every wall-clock tune runs
// through Tune.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"petabricks/internal/autotuner"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/eigen"
	"petabricks/internal/kernels/matmul"
	"petabricks/internal/kernels/poisson"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/linalg"
	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

// RunOpts carries per-invocation options that only some benchmarks use.
type RunOpts struct {
	// AccIndex selects the poisson accuracy target within the tuned
	// family; negative means the highest available.
	AccIndex int
}

// Result is the outcome of one benchmark execution.
type Result struct {
	// Seconds is the wall time of the algorithm itself, excluding input
	// generation and verification.
	Seconds float64
	// Checksum is a deterministic fingerprint of the output for a given
	// (n, seed); every correct configuration produces the same value.
	Checksum float64
	// Detail is an optional human-readable note (e.g. achieved accuracy).
	Detail string
}

// Benchmark describes one runnable, optionally tunable program.
type Benchmark struct {
	// Name keys the benchmark in lookups and in the config store.
	Name string
	// Run builds a deterministic instance of size n from seed, executes
	// it under cfg on pool, verifies the output, and reports timing.
	Run func(pool *runtime.Pool, cfg *choice.Config, n int, seed int64, opt RunOpts) (Result, error)
	// Space returns the configuration search space; nil means the
	// benchmark cannot be tuned through the generic wall-clock path.
	Space func() *choice.Space
	// Program adapts the benchmark to the autotuner's Program interface
	// for wall-clock training; nil mirrors Space.
	Program func(pool *runtime.Pool) autotuner.Program
	// Baseline returns the configuration served before any tuning has
	// happened: correct everywhere, reasonable without training.
	Baseline func() *choice.Config
	// CheckTol is the §3.5 consistency-check tolerance; negative
	// disables checking.
	CheckTol float64
	// MinSize is the smallest training size for tuning.
	MinSize int64
	// Trials is the wall-clock best-of count per measurement.
	Trials int
}

// Tunable reports whether the benchmark supports generic wall-clock
// autotuning.
func (b *Benchmark) Tunable() bool { return b.Space != nil && b.Program != nil }

// Tune wall-clock-tunes b on pool (§3.3): training sizes double from
// b.MinSize to maxSize, and each candidate costs the fastest of
// b.Trials runs on inputs drawn from seed. When b.CheckTol is not
// negative, every round's survivors must agree within it (§3.5) on a
// fixed input drawn from seed+1. The returned evaluator times a
// configuration as the tune did, so a caller can re-measure challenger
// and incumbent under the same conditions.
func Tune(b *Benchmark, pool *runtime.Pool, maxSize, seed int64) (*choice.Config, *autotuner.Report, autotuner.Evaluator, error) {
	if !b.Tunable() {
		return nil, nil, nil, fmt.Errorf("bench: %s is not tunable", b.Name)
	}
	prog := b.Program(pool)
	eval := &autotuner.WallClock{P: prog, Trials: b.Trials, Seed: seed}
	opts := autotuner.Options{MinSize: b.MinSize, MaxSize: maxSize}
	if b.CheckTol >= 0 {
		opts.Check = autotuner.ConsistencyCheck(prog, b.CheckTol, seed+1)
	}
	cfg, rep, err := autotuner.Tune(b.Space(), eval, opts)
	return cfg, rep, eval, err
}

// Kernels returns fresh descriptors for the four native-Go benchmark
// kernels.
func Kernels() []*Benchmark {
	return []*Benchmark{
		SortBenchmark(),
		MatMulBenchmark(),
		EigenBenchmark(),
		PoissonBenchmark(),
	}
}

// Lookup resolves a kernel benchmark by name.
func Lookup(name string) (*Benchmark, bool) {
	for _, b := range Kernels() {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// Names lists the kernel benchmark names in order.
func Names() []string {
	ks := Kernels()
	out := make([]string, len(ks))
	for i, b := range ks {
		out[i] = b.Name
	}
	return out
}

// --- sort ---------------------------------------------------------------

// sortProgram adapts the sort benchmark to the autotuner's Program
// interface (wall-clock training + §3.5 consistency checking).
type sortProgram struct{ pool *runtime.Pool }

func (p *sortProgram) Run(cfg *choice.Config, size, seed int64) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	in := sortk.Generate(rng, int(size))
	choice.Run(choice.NewExec(p.pool, cfg), sortk.New(), in)
	if !sortk.IsSorted(in.Data) {
		return nil, fmt.Errorf("bench: configuration produced unsorted output")
	}
	return in.Data, nil
}

func (p *sortProgram) Same(a, b any, tol float64) bool {
	x, y := a.([]int64), b.([]int64)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// SortBenchmark describes the §4.3 Sort benchmark.
func SortBenchmark() *Benchmark {
	return &Benchmark{
		Name: "sort",
		Run: func(pool *runtime.Pool, cfg *choice.Config, n int, seed int64, _ RunOpts) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			in := sortk.Generate(rng, n)
			start := time.Now()
			choice.Run(choice.NewExec(pool, cfg), sortk.New(), in)
			sec := time.Since(start).Seconds()
			if !sortk.IsSorted(in.Data) {
				return Result{}, fmt.Errorf("output not sorted")
			}
			sum := 0.0
			for i, v := range in.Data {
				sum += float64(v) * float64(i+1)
			}
			return Result{Seconds: sec, Checksum: sum}, nil
		},
		Space:   func() *choice.Space { return sortk.Space(sortk.New()) },
		Program: func(pool *runtime.Pool) autotuner.Program { return &sortProgram{pool: pool} },
		Baseline: func() *choice.Config {
			cfg := choice.NewConfig()
			cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
				{Cutoff: 64, Choice: sortk.ChoiceIS},
				{Cutoff: choice.Inf, Choice: sortk.ChoiceQS},
			}})
			cfg.SetInt("sort.seqcutoff", 2048)
			return cfg
		},
		CheckTol: 0,
		MinSize:  64,
		Trials:   2,
	}
}

// --- matmul -------------------------------------------------------------

// mmProgram adapts the matrix-multiply benchmark to the autotuner.
type mmProgram struct{ pool *runtime.Pool }

func (p *mmProgram) Run(cfg *choice.Config, size, seed int64) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	in := matmul.Generate(rng, int(size))
	choice.Run(choice.NewExec(p.pool, cfg), matmul.New(), in)
	return in.C, nil
}

func (p *mmProgram) Same(a, b any, tol float64) bool {
	x, y := a.(*matrix.Matrix), b.(*matrix.Matrix)
	return x.MaxAbsDiff(y) <= tol
}

// MatMulBenchmark describes the §4.4 MatrixMultiply benchmark.
func MatMulBenchmark() *Benchmark {
	return &Benchmark{
		Name: "matmul",
		Run: func(pool *runtime.Pool, cfg *choice.Config, n int, seed int64, _ RunOpts) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			in := matmul.Generate(rng, n)
			start := time.Now()
			choice.Run(choice.NewExec(pool, cfg), matmul.New(), in)
			sec := time.Since(start).Seconds()
			// Verification against the basic triple loop is O(n^3); only
			// affordable at small sizes.
			if n <= 96 {
				h, _, w := in.Shape()
				want := matrix.New(h, w)
				linalg.MulBasic(want, in.A, in.B)
				if d := want.MaxAbsDiff(in.C); d > 1e-6 {
					return Result{}, fmt.Errorf("output differs from reference by %g", d)
				}
			}
			sum := 0.0
			pos := 1.0
			in.C.Walk(func(_ []int, v float64) { sum += v * pos; pos++ })
			return Result{Seconds: sec, Checksum: sum}, nil
		},
		Space:   func() *choice.Space { return matmul.Space(matmul.New()) },
		Program: func(pool *runtime.Pool) autotuner.Program { return &mmProgram{pool: pool} },
		Baseline: func() *choice.Config {
			cfg := choice.NewConfig()
			sel := choice.NewSelector(matmul.ChoiceBlocked)
			sel.Levels[0] = sel.Levels[0].WithParam("block", 64)
			cfg.SetSelector("matmul", sel)
			cfg.SetInt("matmul.seqcutoff", 64)
			return cfg
		},
		CheckTol: 1e-9,
		MinSize:  16,
		Trials:   1,
	}
}

// --- eigen --------------------------------------------------------------

// eigenProgram adapts the eigenproblem benchmark to the autotuner. The
// eigensolvers run sequentially, matching the paper's Figure 12 setup,
// whatever pool the descriptor's Program is handed.
type eigenProgram struct{}

func (eigenProgram) Run(cfg *choice.Config, size, seed int64) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	tri := eigen.Generate(rng, int(size))
	out := choice.Run(choice.NewExec(nil, cfg), eigen.New(), tri)
	if out.Err != nil {
		return nil, out.Err
	}
	return out.R.Values, nil
}

func (eigenProgram) Same(a, b any, tol float64) bool {
	x, y := a.([]float64), b.([]float64)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}

// EigenBenchmark describes the §4.2 symmetric tridiagonal eigenproblem.
func EigenBenchmark() *Benchmark {
	return &Benchmark{
		Name: "eigen",
		Run: func(_ *runtime.Pool, cfg *choice.Config, n int, seed int64, _ RunOpts) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			tri := eigen.Generate(rng, n)
			start := time.Now()
			out := choice.Run(choice.NewExec(nil, cfg), eigen.New(), tri)
			sec := time.Since(start).Seconds()
			if out.Err != nil {
				return Result{}, out.Err
			}
			vals := append([]float64(nil), out.R.Values...)
			sort.Float64s(vals)
			sum := 0.0
			for i, v := range vals {
				sum += v * float64(i+1)
			}
			return Result{Seconds: sec, Checksum: sum}, nil
		},
		Space:    func() *choice.Space { return eigen.Space(eigen.New()) },
		Program:  func(*runtime.Pool) autotuner.Program { return eigenProgram{} },
		Baseline: eigen.Cutoff25Config,
		CheckTol: 1e-6,
		MinSize:  16,
		Trials:   1,
	}
}

// --- poisson ------------------------------------------------------------

// PoissonBenchmark describes the §4.1 accuracy-aware Poisson benchmark.
// Its configuration is a tuned POISSONi policy family produced by
// pbtune's accuracy-aware path, so it is not tunable through the generic
// wall-clock path (Space/Program are nil) and has no untuned baseline.
func PoissonBenchmark() *Benchmark {
	return &Benchmark{
		Name: "poisson",
		Run: func(_ *runtime.Pool, cfg *choice.Config, n int, seed int64, opt RunOpts) (Result, error) {
			k, err := poisson.LevelOf(n)
			if err != nil {
				return Result{}, err
			}
			policy := poisson.DecodePolicy(cfg, k)
			if len(policy.Accuracies) == 0 {
				return Result{}, fmt.Errorf("configuration has no poisson policy; run pbtune -bench poisson")
			}
			ai := opt.AccIndex
			if ai < 0 {
				ai = len(policy.Accuracies) - 1
			}
			if ai >= len(policy.Accuracies) {
				return Result{}, fmt.Errorf("accuracy index %d out of range (policy has %d)", ai, len(policy.Accuracies))
			}
			rng := rand.New(rand.NewSource(seed))
			pr := poisson.Generate(rng, n)
			x := matrix.New(n, n)
			start := time.Now()
			if err := policy.Solve(x, pr.B, ai); err != nil {
				return Result{}, err
			}
			sec := time.Since(start).Seconds()
			e0 := poisson.ErrorVs(matrix.New(n, n), pr.Exact)
			acc := e0 / poisson.ErrorVs(x, pr.Exact)
			return Result{
				Seconds:  sec,
				Checksum: acc,
				Detail:   fmt.Sprintf("achieved accuracy %.3g (target %.3g)", acc, policy.Accuracies[ai]),
			}, nil
		},
		CheckTol: -1,
	}
}
