// Eigen demonstrates §4.2: the symmetric tridiagonal eigenproblem with
// three algorithmic choices — QR iteration, bisection with inverse
// iteration, and divide-and-conquer that recursively re-enters EIG — the
// hard-coded Cutoff-25 hybrid (LAPACK dstevd's strategy), and the
// autotuned hybrid, with residual and orthogonality checks.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"petabricks/internal/bench"
	"petabricks/internal/choice"
	"petabricks/internal/kernels/eigen"
)

func main() {
	fmt.Println("Autotuning EIG (the paper found: divide-and-conquer above n≈48, QR below)...")
	tuned, _, _, err := bench.Tune(bench.EigenBenchmark(), nil, 512, 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Tuned algorithm: %s\n\n", tuned.Selector("eig", 0).Render(eigen.ChoiceNames))

	const n = 400
	rng := rand.New(rand.NewSource(9))
	tri := eigen.Generate(rng, n)
	tr := eigen.New()
	configs := []struct {
		name string
		cfg  *choice.Config
	}{
		{"QR", pure(eigen.ChoiceQR)},
		{"Bisection", pure(eigen.ChoiceBIS)},
		{"DC", dcAllTheWay()},
		{"Cutoff 25", eigen.Cutoff25Config()},
		{"Autotuned", tuned},
	}
	fmt.Printf("All eigenvalues + eigenvectors of a random symmetric tridiagonal, n=%d:\n", n)
	var firstVals []float64
	for _, c := range configs {
		start := time.Now()
		out := choice.Run(choice.NewExec(nil, c.cfg), tr, tri)
		d := time.Since(start)
		if out.Err != nil {
			log.Fatalf("%s: %v", c.name, out.Err)
		}
		res := out.R.Residual(tri)
		off, _ := out.R.Orthogonality()
		fmt.Printf("  %-10s %10.3fms  residual %8.2e  orthogonality %8.2e\n",
			c.name, float64(d.Microseconds())/1000, res, off)
		if firstVals == nil {
			firstVals = out.R.Values
			continue
		}
		for i := range firstVals {
			if diff := abs(out.R.Values[i] - firstVals[i]); diff > 1e-7 {
				log.Fatalf("%s disagrees at λ[%d] by %g", c.name, i, diff)
			}
		}
	}
	fmt.Println("\nAll five algorithms agree on every eigenvalue (§3.5 consistency).")
}

func pure(c int) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.NewSelector(c))
	return cfg
}

func dcAllTheWay() *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.Selector{Levels: []choice.Level{
		{Cutoff: 3, Choice: eigen.ChoiceQR},
		{Cutoff: choice.Inf, Choice: eigen.ChoiceDC},
	}})
	return cfg
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
