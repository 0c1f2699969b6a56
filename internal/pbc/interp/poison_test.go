package interp_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/difftest"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/interp"
)

// corpusCases wraps every transform of the committed corpus as an
// oracle case on small-integer inputs (exact under any summation order,
// so recursive and direct rule choices must agree to the bit).
func corpusCases(t *testing.T) []*gen.Case {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "*.pbcc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	var cases []*gen.Case
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, string(src))
		for _, tr := range e.Prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			name := tr.Name
			cases = append(cases, &gen.Case{
				Name: filepath.Base(file) + "/" + name, Family: "corpus",
				Src: string(src), Main: name, MinN: 2,
				MakeInputs: func(n int, rng *rand.Rand) map[string]*matrix.Matrix {
					inputs, err := e.GenerateInputs(name, int64(n), 1)
					if err != nil {
						t.Fatalf("%s n=%d: %v", name, n, err)
					}
					for _, m := range inputs {
						m.Each(func([]int, float64) float64 { return float64(rng.Intn(7) - 3) })
					}
					return inputs
				},
			})
		}
	}
	return cases
}

// TestPoisonedTemporariesMatchOracle runs the corpus programs and every
// inplace shape through the oracle matrix with recycled storage filled
// with NaN on release. A view that outlives the temporary it windows —
// recycled too early, or still referenced from a pooled frame or
// invocation — then reads NaN (or the next owner's data) and shows as a
// divergence from the AST tier, which never recycles anything.
func TestPoisonedTemporariesMatchOracle(t *testing.T) {
	interp.PoisonRecycled(true)
	defer interp.PoisonRecycled(false)
	h := difftest.New(difftest.Options{Seed: 1, Workers: 2, MaxN: 40, NoWarmCold: true})
	defer h.Close()
	cases := corpusCases(t)
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := gen.New(seed)
		for v := 0; v < gen.InplaceVariants; v++ {
			c := g.Inplace(v)
			c.Name = fmt.Sprintf("inplace-s%d-v%d", seed, v)
			cases = append(cases, c)
		}
	}
	runs := 0
	for _, c := range cases {
		res, err := h.Check(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		runs += res.Runs
		for _, d := range res.Divergences {
			t.Errorf("%s: %s\nconfig:\n%s", c.Name, d, d.Config)
		}
	}
	t.Logf("%d cases, %d runs", len(cases), runs)
}
