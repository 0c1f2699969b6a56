// Package petabricks_test holds the repo-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (run `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design decisions DESIGN.md calls out. cmd/pbbench renders the same
// experiments as full series; these benches give per-point numbers under
// the standard Go tooling.
package petabricks_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/autotuner"
	"petabricks/internal/choice"
	"petabricks/internal/harness"
	"petabricks/internal/kernels/eigen"
	"petabricks/internal/kernels/matmul"
	"petabricks/internal/kernels/poisson"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
	"petabricks/internal/simarch"
)

var (
	poolOnce sync.Once
	pool     *runtime.Pool

	sortTunedOnce sync.Once
	sortTuned     *choice.Config

	poissonOnce  sync.Once
	poissonTuned *poisson.Policy
)

func sharedPool() *runtime.Pool {
	poolOnce.Do(func() { pool = runtime.NewPool(0) })
	return pool
}

func tunedSort(b *testing.B) *choice.Config {
	sortTunedOnce.Do(func() {
		cfg, _, err := harness.TuneSort(sharedPool(), 1<<14)
		if err != nil {
			b.Fatal(err)
		}
		sortTuned = cfg
	})
	return sortTuned
}

func tunedPoisson() *poisson.Policy {
	poissonOnce.Do(func() {
		poissonTuned = poisson.TunePolicy(
			[]float64{1e1, 1e3, 1e5, 1e7, 1e9}, 6, poisson.TuneOptions{Trials: 1, Seed: 31})
	})
	return poissonTuned
}

// --- Figure 14: sort ------------------------------------------------------

func sortConfig(c int) *choice.Config {
	cfg := choice.NewConfig()
	sel := choice.NewSelector(c)
	if c == sortk.ChoiceMS {
		sel.Levels[0] = sel.Levels[0].WithParam("k", 2)
	}
	cfg.SetSelector("sort", sel)
	cfg.SetInt("sort.seqcutoff", 2048)
	return cfg
}

func benchSort(b *testing.B, cfg *choice.Config, n int) {
	b.Helper()
	tr := sortk.New()
	ex := choice.NewExec(sharedPool(), cfg)
	rng := rand.New(rand.NewSource(1))
	pristine := sortk.Generate(rng, n)
	work := sortk.Generate(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, pristine.Data)
		choice.Run(ex, tr, work)
	}
	b.StopTimer()
	if !sortk.IsSorted(work.Data) {
		b.Fatal("unsorted output")
	}
}

func BenchmarkFig14SortInsertion(b *testing.B) { benchSort(b, sortConfig(sortk.ChoiceIS), 1750) }
func BenchmarkFig14SortQuick(b *testing.B)     { benchSort(b, sortConfig(sortk.ChoiceQS), 1750) }
func BenchmarkFig14SortMerge(b *testing.B)     { benchSort(b, sortConfig(sortk.ChoiceMS), 1750) }
func BenchmarkFig14SortRadix(b *testing.B)     { benchSort(b, sortConfig(sortk.ChoiceRS), 1750) }
func BenchmarkFig14SortAutotuned(b *testing.B) { benchSort(b, tunedSort(b), 1750) }

// §5.1's headline input size.
func BenchmarkFig14SortAutotuned100k(b *testing.B) { benchSort(b, tunedSort(b), 100000) }

// --- Figure 15: matrix multiply --------------------------------------------

func mmConfig(levels ...choice.Level) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("matmul", choice.Selector{Levels: levels}.Normalize())
	cfg.SetInt("matmul.seqcutoff", 64)
	return cfg
}

func benchMM(b *testing.B, cfg *choice.Config, n int) {
	b.Helper()
	tr := matmul.New()
	ex := choice.NewExec(sharedPool(), cfg)
	rng := rand.New(rand.NewSource(2))
	in := matmul.Generate(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		choice.Run(ex, tr, in)
	}
}

func BenchmarkFig15MatMulBasic(b *testing.B) {
	benchMM(b, mmConfig(choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceBasic}), 256)
}

func BenchmarkFig15MatMulBlocking(b *testing.B) {
	benchMM(b, mmConfig(choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceBlocked,
		Params: map[string]int64{"block": 64}}), 256)
}

func BenchmarkFig15MatMulTranspose(b *testing.B) {
	benchMM(b, mmConfig(choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceTranspos}), 256)
}

func BenchmarkFig15MatMulRecursive(b *testing.B) {
	benchMM(b, mmConfig(
		choice.Level{Cutoff: 64, Choice: matmul.ChoiceBlocked, Params: map[string]int64{"block": 64}},
		choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceRecC}), 256)
}

func BenchmarkFig15MatMulStrassen(b *testing.B) {
	benchMM(b, mmConfig(
		choice.Level{Cutoff: 128, Choice: matmul.ChoiceBlocked, Params: map[string]int64{"block": 64}},
		choice.Level{Cutoff: choice.Inf, Choice: matmul.ChoiceStrassen}), 256)
}

// --- Figure 12: eigenproblem -------------------------------------------------

func benchEig(b *testing.B, cfg *choice.Config, n int) {
	b.Helper()
	tr := eigen.New()
	ex := choice.NewExec(nil, cfg)
	rng := rand.New(rand.NewSource(3))
	tri := eigen.Generate(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := choice.Run(ex, tr, tri)
		if out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

func eigConfig(c int) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.NewSelector(c))
	return cfg
}

func BenchmarkFig12EigenQR(b *testing.B)        { benchEig(b, eigConfig(eigen.ChoiceQR), 256) }
func BenchmarkFig12EigenBisection(b *testing.B) { benchEig(b, eigConfig(eigen.ChoiceBIS), 256) }
func BenchmarkFig12EigenCutoff25(b *testing.B)  { benchEig(b, eigen.Cutoff25Config(), 256) }

func BenchmarkFig12EigenDC(b *testing.B) {
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.Selector{Levels: []choice.Level{
		{Cutoff: 3, Choice: eigen.ChoiceQR},
		{Cutoff: choice.Inf, Choice: eigen.ChoiceDC},
	}})
	benchEig(b, cfg, 256)
}

func BenchmarkFig12EigenAutotunedStyle(b *testing.B) {
	// The tuned shape the paper reports: DC above 48, QR below.
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.Selector{Levels: []choice.Level{
		{Cutoff: 49, Choice: eigen.ChoiceQR},
		{Cutoff: choice.Inf, Choice: eigen.ChoiceDC},
	}})
	benchEig(b, cfg, 256)
}

// --- Figure 11: Poisson -------------------------------------------------------

func benchPoisson(b *testing.B, run func(pr poisson.Problem) error) {
	b.Helper()
	n := poisson.SizeOfLevel(6)
	rng := rand.New(rand.NewSource(4))
	pr := poisson.Generate(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11PoissonDirect(b *testing.B) {
	benchPoisson(b, func(pr poisson.Problem) error {
		x := matrix.New(pr.N, pr.N)
		return poisson.SolveDirect(x, pr.B)
	})
}

func BenchmarkFig11PoissonSOR1e9(b *testing.B) {
	benchPoisson(b, func(pr poisson.Problem) error {
		x := matrix.New(pr.N, pr.N)
		e0 := poisson.ErrorVs(x, pr.Exact)
		for poisson.ErrorVs(x, pr.Exact)*1e9 > e0 {
			poisson.SOR(x, pr.B, poisson.OmegaOpt(pr.N), 8)
		}
		return nil
	})
}

func BenchmarkFig11PoissonMultigrid1e9(b *testing.B) {
	benchPoisson(b, func(pr poisson.Problem) error {
		x := matrix.New(pr.N, pr.N)
		e0 := poisson.ErrorVs(x, pr.Exact)
		for poisson.ErrorVs(x, pr.Exact)*1e9 > e0 {
			if err := poisson.MultigridSimple(x, pr.B, 1); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkFig11PoissonAutotuned1e9(b *testing.B) {
	policy := tunedPoisson()
	benchPoisson(b, func(pr poisson.Problem) error {
		x := matrix.New(pr.N, pr.N)
		return policy.Solve(x, pr.B, len(policy.Accuracies)-1)
	})
}

// --- Figure 16 / Tables 1-2: model evaluations ---------------------------------

func BenchmarkFig16ModelSweep(b *testing.B) {
	cfg := sortConfig(sortk.ChoiceMS)
	for i := 0; i < b.N; i++ {
		for cores := 1; cores <= 8; cores++ {
			a := simarch.Xeon8
			a.Cores = cores
			simarch.SortModel{Arch: a}.Measure(cfg, 400000)
		}
	}
}

func BenchmarkTable1CrossArch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunArchTables(100000, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §1 claim: std::sort cutoff ---------------------------------------------

func benchCutoff(b *testing.B, cutoff int64) {
	cfg := choice.NewConfig()
	cfg.SetSelector("sort", choice.Selector{Levels: []choice.Level{
		{Cutoff: cutoff, Choice: sortk.ChoiceIS},
		{Cutoff: choice.Inf, Choice: sortk.ChoiceMS, Params: map[string]int64{"k": 2}},
	}})
	benchSort(b, cfg, 100000)
}

func BenchmarkSTLCutoff15(b *testing.B)  { benchCutoff(b, 15) }
func BenchmarkSTLCutoff100(b *testing.B) { benchCutoff(b, 100) }
func BenchmarkSTLCutoff600(b *testing.B) { benchCutoff(b, 600) }

// --- Ablations (DESIGN.md) -----------------------------------------------------

// Scheduler: work stealing vs a single central queue.
func benchScheduler(b *testing.B, mode runtime.Mode) {
	p := runtime.NewPoolMode(0, mode)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(w *runtime.Worker) {
			w.For(0, 1<<14, 8, func(w *runtime.Worker, lo, hi int) {
				s := 0
				for j := lo; j < hi; j++ {
					s += j * j
				}
				_ = s
			})
		})
	}
}

func BenchmarkAblationSchedulerWorkStealing(b *testing.B) {
	benchScheduler(b, runtime.ModeWorkStealing)
}

func BenchmarkAblationSchedulerCentralQueue(b *testing.B) {
	benchScheduler(b, runtime.ModeCentralQueue)
}

// Sequential cutoff: tuned grain vs spawning a task for everything.
func benchCutoffAblation(b *testing.B, seqcutoff int64) {
	cfg := sortConfig(sortk.ChoiceMS)
	cfg.SetInt("sort.seqcutoff", seqcutoff)
	benchSort(b, cfg, 200000)
}

func BenchmarkAblationCutoffTuned(b *testing.B) { benchCutoffAblation(b, 2048) }
func BenchmarkAblationCutoffNone(b *testing.B)  { benchCutoffAblation(b, 2) }

// SOR storage layout: the paper's split red/black matrices vs in-place
// checkerboard sweeps.
func benchSOR(b *testing.B, split bool) {
	n := poisson.SizeOfLevel(7)
	rng := rand.New(rand.NewSource(6))
	pr := poisson.Generate(rng, n)
	x := matrix.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if split {
			poisson.SOR(x, pr.B, 1.5, 10)
		} else {
			poisson.SORInPlace(x, pr.B, 1.5, 10)
		}
	}
}

func BenchmarkAblationSORLayoutSplit(b *testing.B)   { benchSOR(b, true) }
func BenchmarkAblationSORLayoutInPlace(b *testing.B) { benchSOR(b, false) }

// Tuner population: cost of training at population 2 vs 8 (quality is
// asserted in the autotuner tests; this measures the tuning-time trade).
func benchPopulation(b *testing.B, population int) {
	tr := sortk.New()
	space := sortk.Space(tr)
	model := simarch.SortModel{Arch: simarch.Xeon8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := autotuner.Tune(space, model, autotuner.Options{
			MinSize: 64, MaxSize: 100000, Population: population,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPopulation2(b *testing.B) { benchPopulation(b, 2) }
func BenchmarkAblationPopulation8(b *testing.B) { benchPopulation(b, 8) }

// Runtime micro-benchmarks: spawn/join overhead and steal throughput.
func BenchmarkRuntimeSpawnJoin(b *testing.B) {
	p := sharedPool()
	b.ResetTimer()
	p.Run(func(w *runtime.Worker) {
		for i := 0; i < b.N; i++ {
			w.Do(func(*runtime.Worker) {}, func(*runtime.Worker) {})
		}
	})
}

func BenchmarkRuntimeFibGrain(b *testing.B) {
	p := sharedPool()
	var fib func(w *runtime.Worker, n int) int
	fib = func(w *runtime.Worker, n int) int {
		if n < 2 {
			return n
		}
		if n < 12 {
			return fib(w, n-1) + fib(w, n-2)
		}
		var a, c int
		w.Do(
			func(w1 *runtime.Worker) { a = fib(w1, n-1) },
			func(w2 *runtime.Worker) { c = fib(w2, n-2) },
		)
		return a + c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(w *runtime.Worker) { fib(w, 24) })
	}
}

// --- Cold boot ------------------------------------------------------------------

// BenchmarkBootCold is the boot_cold op of benchmark/ under go test, so
// it can be profiled: parse, analyse, plan, lower and persist the five
// programs of its table into an empty artifact directory, running each
// once. benchmark/run.sh stays the number of record.
//
//	go test -run '^$' -bench BootCold -benchtime 500x -memprofile mem.prof -memprofilerate 1 -o boot.test
//	go tool pprof -sample_index=alloc_space -top boot.test mem.prof
func BenchmarkBootCold(b *testing.B) {
	table := []struct {
		file, name string
		n          int64
	}{
		{"heat1d.pbcc", "Heat1D", 256},
		{"matmul.pbcc", "MatrixMultiply", 16},
		{"mergesort.pbcc", "MergeSortDSL", 64},
		{"rollingsum.pbcc", "RollingSum", 256},
		{"summedarea.pbcc", "SummedArea", 32},
	}
	cfg, err := choice.Load(filepath.Join("benchmark", "configs", "macro.cfg"))
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]string, len(table))
	inputs := make([]map[string]*matrix.Matrix, len(table))
	for i, en := range table {
		raw, err := os.ReadFile(filepath.Join("benchmark", "programs", en.file))
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = string(raw)
		prog, err := parser.Parse(srcs[i])
		if err != nil {
			b.Fatal(err)
		}
		eng, err := interp.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		if inputs[i], err = eng.GenerateInputs(en.name, en.n, 1); err != nil {
			b.Fatal(err)
		}
	}
	base := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := artifact.Open(filepath.Join(base, strconv.Itoa(i)), artifact.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j, en := range table {
			prog, err := parser.Parse(srcs[j])
			if err != nil {
				b.Fatal(err)
			}
			eng, err := interp.New(prog)
			if err != nil {
				b.Fatal(err)
			}
			eng.UseArtifacts(store)
			view := eng.WithConfig(cfg)
			view.Pool = sharedPool()
			if _, err := view.Run(en.name, inputs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
