// MatMul demonstrates §4.4: the MatrixMultiply transform's seven choices
// (base cells, blocking, transposition, the three recursive
// decompositions of Figure 1, and Strassen), autotuned against the
// single-algorithm baselines, with the discovered crossover reported.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/matmul"
	"petabricks/internal/linalg"
	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

func main() {
	pool := runtime.NewPool(0)
	defer pool.Close()

	fmt.Println("Autotuning MatrixMultiply...")
	tuned, _, _, err := bench.Tune(bench.MatMulBenchmark(), pool, 256, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Tuned algorithm: %s (block=%v)\n\n",
		tuned.Selector("matmul", 0).Render(matmul.ChoiceNames),
		tuned.Selector("matmul", 0).Choose(1<<20).Param("block", 64))

	const n = 256
	rng := rand.New(rand.NewSource(3))
	in := matmul.Generate(rng, n)
	want := matrix.New(n, n)
	linalg.MulBasic(want, in.A, in.B)
	tr := matmul.New()
	run := func(name string, cfg *choice.Config) {
		in.C.Fill(0)
		start := time.Now()
		choice.Run(choice.NewExec(pool, cfg), tr, in)
		d := time.Since(start)
		if diff := want.MaxAbsDiff(in.C); diff > 1e-8 {
			log.Fatalf("%s wrong by %g", name, diff)
		}
		fmt.Printf("  %-12s %10.3fms\n", name, float64(d.Microseconds())/1000)
	}
	fmt.Printf("C = A·B at n=%d (all outputs verified identical):\n", n)
	for ci, name := range matmul.ChoiceNames {
		cfg := choice.NewConfig()
		sel := choice.NewSelector(ci)
		if tr.Choices[ci].Recursive {
			sel = choice.Selector{Levels: []choice.Level{
				{Cutoff: 32, Choice: matmul.ChoiceBasic},
				{Cutoff: choice.Inf, Choice: ci},
			}}
		}
		cfg.SetSelector("matmul", sel)
		cfg.SetInt("matmul.seqcutoff", 64)
		run(name, cfg)
	}
	run("Autotuned", tuned)
}
