// DSLSort is the full PetaBricks journey on a program written in the
// language itself: a sorting transform with a quadratic base-case rule
// and a recursive merge decomposition (see parser.MergeSortSrc). It
// compiles the program, prints the compiler's view, autotunes the
// rule selector and cutoff by wall clock through the interpreter,
// compares against the single-rule baselines, and finally emits
// self-contained Go with the tuned configuration baked in.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/codegen"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

func main() {
	prog, err := parser.Parse(parser.MergeSortSrc)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := interp.New(prog)
	if err != nil {
		log.Fatal(err)
	}
	res, _ := eng.Analysis("MergeSortDSL")
	fmt.Println("MergeSortDSL compiles to two whole-matrix choices:")
	for _, ri := range res.Rules {
		fmt.Printf("  %s (%s)\n", ri.Rule.Name(), ri.Kind)
	}

	pool := runtime.NewPool(0)
	defer pool.Close()
	eng.Pool = pool
	fmt.Println("\nAutotuning the rule selector (wall clock, doubling sizes)...")
	var b *bench.Benchmark
	for _, d := range bench.DSL(eng) {
		if d.Name == "MergeSortDSL" {
			b = d
		}
	}
	cfg, rep, _, err := bench.Tune(b, pool, 1024, 7)
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range rep.Steps {
		fmt.Printf("  size %5d: best %8.4gs  %s\n", step.Size, step.BestCost, step.Best)
	}
	sel := cfg.Selector(interp.SelectorName("MergeSortDSL"), 0)
	fmt.Printf("\nTuned selector: %s  (r0 = selection sort, r1 = recursive merge)\n",
		sel.Render([]string{"r0", "r1"}))

	const n = 2000
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(rng.Intn(1 << 20))
	}
	measure := func(name string, c *choice.Config) {
		eng.Cfg = c
		in := matrix.FromSlice(append([]float64{}, data...))
		start := time.Now()
		out, err := eng.Run1("MergeSortDSL", in)
		if err != nil {
			fmt.Printf("  %-22s %s\n", name, err)
			return
		}
		d := time.Since(start)
		for i := 1; i < n; i++ {
			if out.At1(i) < out.At1(i-1) {
				log.Fatalf("%s produced unsorted output", name)
			}
		}
		fmt.Printf("  %-22s %9.3fms\n", name, float64(d.Microseconds())/1000)
	}
	fmt.Printf("\nSorting %d elements through the interpreter:\n", n)
	base := choice.NewConfig()
	base.SetSelector(interp.SelectorName("MergeSortDSL"), choice.NewSelector(0))
	fixed := choice.NewConfig()
	fixed.SetSelector(interp.SelectorName("MergeSortDSL"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 4, Choice: 0},
		{Cutoff: choice.Inf, Choice: 1},
	}})
	measure("selection sort only", base)
	measure("recursive, cutoff 4", fixed)
	measure("autotuned", cfg)

	// Emit Go with the tuned configuration applied statically.
	var results []*analysis.Result
	for _, t := range prog.Transforms {
		r, err := analysis.Analyze(prog, t)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
	}
	code, err := codegen.Generate(results, codegen.Options{Package: "main", Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStatic-choice Go emission: %d lines (first lines below).\n",
		strings.Count(code, "\n"))
	for _, line := range strings.SplitN(code, "\n", 4)[:3] {
		fmt.Println("  " + line)
	}
}
