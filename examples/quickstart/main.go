// Quickstart: algorithmic choice as a first-class construct, on the
// paper's motivating example (sorting). It builds the generalized Sort
// transform (insertion, quick, n-way merge, radix — each recursive
// algorithm re-enters Sort), autotunes it on this machine, prints the
// tuned multi-level algorithm in the paper's notation, and compares it
// against every single-algorithm configuration.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/harness"
	"petabricks/internal/kernels/sortk"
	"petabricks/internal/runtime"
)

func main() {
	pool := runtime.NewPool(0) // all CPUs
	defer pool.Close()

	fmt.Println("Autotuning sort (bottom-up, doubling training sizes)...")
	tuned, report, _, err := bench.Tune(bench.SortBenchmark(), pool, 1<<15, 7)
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range report.Steps {
		fmt.Printf("  size %6d: best %8.4gs  %s\n", step.Size, step.BestCost, step.Best)
	}
	fmt.Printf("\nTuned algorithm: %s\n", harness.RenderSortConfig(tuned))
	fmt.Printf("Sequential cutoff: %d\n\n", tuned.Int("sort.seqcutoff", 0))

	const n = 200000
	tr := sortk.New()
	bench := func(name string, cfg *choice.Config) {
		rng := rand.New(rand.NewSource(7))
		in := sortk.Generate(rng, n)
		start := time.Now()
		choice.Run(choice.NewExec(pool, cfg), tr, in)
		d := time.Since(start)
		if !sortk.IsSorted(in.Data) {
			log.Fatalf("%s produced unsorted output", name)
		}
		fmt.Printf("  %-14s %10.4fms\n", name, float64(d.Microseconds())/1000)
	}
	fmt.Printf("Sorting %d elements:\n", n)
	for c, name := range sortk.ChoiceNames {
		cfg := choice.NewConfig()
		sel := choice.NewSelector(c)
		if c == sortk.ChoiceMS {
			sel.Levels[0] = sel.Levels[0].WithParam("k", 2)
		}
		cfg.SetSelector("sort", sel)
		cfg.SetInt("sort.seqcutoff", 2048)
		if c == sortk.ChoiceIS {
			fmt.Printf("  %-14s %10s\n", name, "(skipped: quadratic)")
			continue
		}
		bench(name, cfg)
	}
	bench("Autotuned", tuned)

	path := "sort.cfg"
	if err := tuned.Save(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nConfiguration written to %s (hand-editable; rerun with pbrun -config).\n", path)
}
