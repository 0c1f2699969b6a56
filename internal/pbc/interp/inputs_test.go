package interp

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
)

// inputCase is one GenerateInputs call and the inputs a fresh
// rand.New(rand.NewSource(seed)) draws for it.
type inputCase struct {
	e          *Engine
	name       string
	size, seed int64
	want       map[string]*matrix.Matrix
}

// freshInputs draws what GenerateInputs must return from a fresh source:
// uniform integers in [0, 2^16) cell by cell, input after input (the
// shapes are taken from got), or, for a transform with a generator, the
// generator's outputs on seed matrices drawn that way.
func freshInputs(t *testing.T, e *Engine, name string, size, seed int64, got map[string]*matrix.Matrix) map[string]*matrix.Matrix {
	t.Helper()
	res, _ := e.Analysis(name)
	rng := rand.New(rand.NewSource(seed))
	fill := func(m *matrix.Matrix) *matrix.Matrix {
		m.Each(func([]int, float64) float64 { return float64(rng.Intn(1 << 16)) })
		return m
	}
	want := map[string]*matrix.Matrix{}
	if gen := res.Transform.Generator; gen != "" {
		gres, _ := e.Analysis(gen)
		seeds := map[string]*matrix.Matrix{}
		for _, d := range gres.Transform.From {
			dims := make([]int, len(gres.Matrices[d.Name].Dims))
			for i := range dims {
				dims[i] = int(size)
			}
			seeds[d.Name] = fill(matrix.New(dims...))
		}
		outs, err := e.Run(gen, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Transform.From {
			want[d.Name] = outs[d.Name]
		}
		return want
	}
	for _, d := range res.Transform.From {
		want[d.Name] = fill(matrix.New(got[d.Name].Shape()...))
	}
	return want
}

// sameInputs reports whether two input sets hold the same matrices,
// bit for bit.
func sameInputs(a, b map[string]*matrix.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if o, ok := b[k]; !ok || !sameBits(m, o) {
			return false
		}
	}
	return true
}

// inputCases loads every servable transform of the repository
// benchmark's programs (and a transform fed by a generator) at two sizes
// and three seeds, with the inputs a fresh source draws for each.
func inputCases(t *testing.T) []inputCase {
	t.Helper()
	files, err := filepath.Glob("../../../benchmark/programs/*.pbcc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark programs: %v", err)
	}
	var engines []*Engine
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		e, err := New(prog)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		engines = append(engines, e)
	}
	engines = append(engines, engine(t, `
transform MakeA from S[n] to A[n] { to (A.cell(i) a) from (S.cell(i) s) { a = s % 100; } }
transform Inc from A[n] to B[n] generator MakeA { to (B.cell(i) b) from (A.cell(i) a) { b = a + 1; } }
`))
	var cases []inputCase
	for _, e := range engines {
		for _, tr := range e.Prog.Transforms {
			if res, ok := e.Analysis(tr.Name); !ok || len(res.Transform.From) == 0 {
				continue
			}
			for _, size := range []int64{8, 64} {
				for _, seed := range []int64{1, 2, 1 << 40} {
					got, err := e.GenerateInputs(tr.Name, size, seed)
					if err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", tr.Name, size, seed, err)
					}
					cases = append(cases, inputCase{e, tr.Name, size, seed, freshInputs(t, e, tr.Name, size, seed, got)})
				}
			}
		}
	}
	return cases
}

// TestGenerateInputsPinnedStream pins the input streams: every
// transform's inputs are those of a fresh rand.NewSource(seed), bit for
// bit, whatever other seeds were drawn before on the same goroutine or
// are being drawn on others (the served checksums and the repository
// benchmark's sort oracle depend on that stream).
func TestGenerateInputsPinnedStream(t *testing.T) {
	cases := inputCases(t)
	if len(cases) < 5*2*3 {
		t.Fatalf("only %d cases", len(cases))
	}
	check := func(c inputCase) bool {
		got, err := c.e.GenerateInputs(c.name, c.size, c.seed)
		if err != nil || !sameInputs(got, c.want) {
			t.Errorf("%s n=%d seed=%d: inputs differ from a fresh source's (err %v)", c.name, c.size, c.seed, err)
			return false
		}
		return true
	}
	// Interleaved on one goroutine: forwards, then backwards.
	for i := range cases {
		check(cases[i])
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check(cases[i])
	}
	// From 8 goroutines at once, each starting elsewhere in the list.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				if !check(cases[(i*7+g*len(cases)/8)%len(cases)]) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGenerateInputsAllocs pins what generating Heat1D's n=64 input
// allocates: the input matrix and its bookkeeping, no random source.
// A fresh rand.New(rand.NewSource(seed)) per call makes it 10 (the
// source's 5 KiB of state among them).
func TestGenerateInputsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings only hold without the race detector")
	}
	src, err := os.ReadFile("../../../benchmark/programs/heat1d.pbcc")
	if err != nil {
		t.Fatal(err)
	}
	e := engine(t, string(src))
	seed := int64(0)
	got := testing.AllocsPerRun(200, func() {
		seed++
		if _, err := e.GenerateInputs("Heat1D", 64, seed); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 9
	t.Logf("%.0f allocs/run (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("GenerateInputs(Heat1D, 64): %.0f allocs/run, ceiling %d", got, ceiling)
	}
}
