// Command pbtune autotunes one of the benchmark programs on the current
// machine (wall-clock training) or on a simulated architecture (model
// training), writing the resulting application configuration file.
//
// Usage:
//
//	pbtune -bench sort|matmul|eigen|poisson [flags]
//	pbtune -src file.pbcc -transform Name [flags]
//
//	-o file        output configuration file (default <name>.cfg, the
//	               tuned benchmark's or transform's name)
//	-max n         largest training input size
//	-workers n     worker threads for wall-clock training (also -src)
//	-arch name     train on a simulated architecture instead
//	               (Mobile, "Xeon 1-way", "Xeon 8-way", Niagara; sort only)
//	-maxlevel k    poisson: largest grid level (N = 2^k+1)
package main

import (
	"flag"
	"fmt"
	"os"

	"petabricks/internal/autotuner"
	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/harness"
	"petabricks/internal/kernels/poisson"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/runtime"
	"petabricks/internal/simarch"
)

func main() {
	var (
		benchName = flag.String("bench", "sort", "benchmark: sort, matmul, eigen, poisson")
		src       = flag.String("src", "", "PetaBricks source file to tune instead of a benchmark")
		tname     = flag.String("transform", "", "transform to tune with -src")
		out       = flag.String("o", "", "output configuration file")
		maxSize   = flag.Int64("max", 100000, "largest training input size")
		workers   = flag.Int("workers", 0, "worker threads for wall-clock training (default all CPUs)")
		archName  = flag.String("arch", "", "simulated architecture (sort only)")
		maxLevel  = flag.Int("maxlevel", 6, "poisson: largest grid level")
	)
	flag.Parse()
	name := *benchName // what was tuned, naming the default output file
	var cfg *choice.Config
	var report string
	switch {
	case *src == "" && *benchName == "poisson":
		accs := []float64{1e1, 1e3, 1e5, 1e7, 1e9}
		policy := poisson.TunePolicy(accs, *maxLevel, poisson.TuneOptions{Trials: 2, Seed: 31})
		cfg = choice.NewConfig()
		policy.EncodeConfig(cfg)
		worst, err := poisson.VerifyPolicy(policy, *maxLevel, 999, 2)
		if err != nil {
			fatal(err)
		}
		report = fmt.Sprintf("accuracy-aware tuned to level %d; verified accuracies %v", *maxLevel, worst)
	case *src == "" && *benchName == "sort" && *archName != "":
		arch, err := simarch.ByName(*archName)
		if err != nil {
			fatal(err)
		}
		tuned, rep, err := autotuner.Tune(sortk.Space(sortk.New()), simarch.SortModel{Arch: arch},
			autotuner.Options{MinSize: 64, MaxSize: *maxSize, Repeats: 2, CutoffCandidates: 6})
		if err != nil {
			fatal(err)
		}
		cfg = tuned
		report = fmt.Sprintf("trained on model %s: %s (final model cost %.4g)",
			arch.Name, harness.RenderSortConfig(cfg), rep.Steps[len(rep.Steps)-1].BestCost)
	default:
		b, err := lookup(*src, *tname, *benchName)
		if err != nil {
			fatal(err)
		}
		pool := runtime.NewPool(*workers)
		defer pool.Close()
		tuned, rep, _, err := bench.Tune(b, pool, *maxSize, 7)
		if err != nil {
			fatal(err)
		}
		cfg, name = tuned, b.Name
		last := rep.Steps[len(rep.Steps)-1]
		report = fmt.Sprintf("wall-clock trained %s on %d workers: %s (final %.4gs)",
			b.Name, pool.NumWorkers(), last.Best, last.BestCost)
	}
	path := *out
	if path == "" {
		path = name + ".cfg"
	}
	if err := cfg.Save(path); err != nil {
		fatal(err)
	}
	fmt.Println(report)
	fmt.Println("wrote", path)
}

// lookup resolves the descriptor to tune: transform tname of the source
// file src (its first servable transform when tname is empty), or else
// the named benchmark kernel.
func lookup(src, tname, name string) (*bench.Benchmark, error) {
	if src == "" {
		if b, ok := bench.Lookup(name); ok {
			return b, nil
		}
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	bs, err := bench.LoadDSL(src)
	if err != nil {
		return nil, err
	}
	for _, b := range bs {
		if tname == "" || b.Name == tname {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%s: no servable transform %q", src, tname)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbtune:", err)
	os.Exit(1)
}
