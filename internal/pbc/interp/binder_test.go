package interp_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

func newEngine(t *testing.T, src string) *interp.Engine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkBind binds one input set through both solvers and demands the
// same sizes, or the same error text.
func checkBind(t *testing.T, e *interp.Engine, name string, targs []int64, inputs map[string]*matrix.Matrix) (compiled bool) {
	t.Helper()
	fast, ref, fastErr, refErr, compiled := interp.BindShapes(e, name, targs, inputs)
	switch {
	case (fastErr == nil) != (refErr == nil):
		t.Errorf("%s: compiled binder err %v, symbolic err %v", name, fastErr, refErr)
	case fastErr != nil:
		if fastErr.Error() != refErr.Error() {
			t.Errorf("%s: error text differs:\n  compiled: %s\n  symbolic: %s", name, fastErr, refErr)
		}
	case !reflect.DeepEqual(fast, ref):
		t.Errorf("%s: compiled binder bound %v, symbolic solver %v", name, fast, ref)
	}
	return compiled
}

// TestBinderMatchesSymbolicCorpus: for every transform of the committed
// corpus, at several sizes, the compiled solve order binds exactly the
// sizes the symbolic solver binds — and every corpus transform has a
// compiled form, so the comparison is not vacuous.
func TestBinderMatchesSymbolicCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "*.pbcc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	checked := 0
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
			for _, n := range []int64{1, 2, 3, 7, 16, 33} {
				inputs, err := e.GenerateInputs(tr.Name, n, n)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", filepath.Base(file), tr.Name, n, err)
				}
				if !checkBind(t, e, tr.Name, nil, inputs) {
					t.Errorf("%s/%s has no compiled shape binder", filepath.Base(file), tr.Name)
				}
				checked++
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d (transform, size) points checked", checked)
	}
}

// TestBinderMatchesSymbolicGenerated runs the same comparison over the
// fuzzer's program families: the case's own entry point on its own
// inputs (good shapes), on inputs of a neighbouring size mixed in (bad
// shapes for multi-input programs), and every other transform of the
// generated program on uniform inputs.
func TestBinderMatchesSymbolicGenerated(t *testing.T) {
	g := gen.New(11)
	families := map[string]bool{}
	for i := 0; i < 120; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c.WantErr {
			continue
		}
		families[c.Family] = true
		e := newEngine(t, c.Src)
		for _, n := range []int{c.MinN, c.MinN + 1, c.MinN + 5} {
			inputs := c.MakeInputs(n, rand.New(rand.NewSource(int64(n))))
			checkBind(t, e, c.Main, c.TArgs, inputs)
			other := c.MakeInputs(n+2, rand.New(rand.NewSource(int64(n))))
			for k := range inputs {
				mixed := map[string]*matrix.Matrix{}
				for kk, m := range inputs {
					mixed[kk] = m
				}
				mixed[k] = other[k]
				checkBind(t, e, c.Main, c.TArgs, mixed)
				delete(mixed, k)
				checkBind(t, e, c.Main, c.TArgs, mixed)
			}
		}
		for _, tr := range e.Prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			if inputs, err := e.GenerateInputs(tr.Name, 6, 1); err == nil {
				checkBind(t, e, tr.Name, nil, inputs)
			}
		}
	}
	if len(families) < 8 {
		t.Fatalf("only %d generator families seen: %v", len(families), families)
	}
}

const binderErrSrc = `
transform Vec from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }
transform Pair from A[n], B[n] to C[n] { to (C.cell(i) c) from (A.cell(i) a, B.cell(i) b) { c = a + b; } }
transform Square from A[n, n] to B[n] { to (B.cell(i) b) from (A.cell(i, i) a) { b = a; } }
transform Cat from X[a], Y[b], Z[a+b] to W[a] { to (W.cell(i) w) from (X.cell(i) x) { w = x; } }
transform Even from A[2*n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }
transform Pad from A[n+5] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }
transform Half from A[n], H[n/2] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }
transform Sum2 from A[a+b] to B[a] { to (B.cell(i) o) from (A.cell(i) x) { o = x; } }
`

// TestBinderErrorsMatchSymbolic pins every shape diagnostic: the
// compiled binder must report the symbolic solver's exact text (the
// difftest error axis compares these strings), and shapes outside the
// integer form must still take the symbolic path.
func TestBinderErrorsMatchSymbolic(t *testing.T) {
	e := newEngine(t, binderErrSrc)
	v := func(n int) *matrix.Matrix { return matrix.New(n) }
	for _, tc := range []struct {
		label, transform string
		inputs           map[string]*matrix.Matrix
		compiled         bool
		want             string // "" = binds
	}{
		{"ok", "Vec", map[string]*matrix.Matrix{"A": v(4)}, true, ""},
		{"rank", "Vec", map[string]*matrix.Matrix{"A": matrix.New(2, 3)}, true,
			`interp: input A has 2 dims, declared 1`},
		{"missing", "Pair", map[string]*matrix.Matrix{"A": v(4)}, true,
			`interp: missing input "B" for Pair`},
		{"repeated across inputs", "Pair", map[string]*matrix.Matrix{"A": v(4), "B": v(5)}, true,
			`interp: B size mismatch: declared n = 4, actual 5`},
		{"repeated within input", "Square", map[string]*matrix.Matrix{"A": matrix.New(3, 4)}, true,
			`interp: A size mismatch: declared n = 4, actual 3`},
		{"derived ok", "Cat", map[string]*matrix.Matrix{"X": v(3), "Y": v(4), "Z": v(7)}, true, ""},
		{"derived mismatch", "Cat", map[string]*matrix.Matrix{"X": v(3), "Y": v(4), "Z": v(6)}, true,
			`interp: Z size mismatch: declared a+b = 7, actual 6`},
		{"even ok", "Even", map[string]*matrix.Matrix{"A": v(8)}, true, ""},
		{"non-integer solve", "Even", map[string]*matrix.Matrix{"A": v(7)}, true,
			`interp: cannot solve 2*n = 7 for n`},
		{"negative solve", "Pad", map[string]*matrix.Matrix{"A": v(3)}, true,
			`interp: cannot solve n+5 = 3 for n`},
		{"zero solve", "Pad", map[string]*matrix.Matrix{"A": v(5)}, true, ""},
		{"fractional check ok", "Half", map[string]*matrix.Matrix{"A": v(7), "H": v(3)}, false, ""},
		{"fractional check mismatch", "Half", map[string]*matrix.Matrix{"A": v(7), "H": v(4)}, false,
			`interp: H size mismatch: declared 1/2*n = 3, actual 4`},
		{"two unknowns", "Sum2", map[string]*matrix.Matrix{"A": v(7)}, false,
			`interp: size a+b of A has two unknowns`},
	} {
		t.Run(tc.label, func(t *testing.T) {
			if got := checkBind(t, e, tc.transform, nil, tc.inputs); got != tc.compiled {
				t.Errorf("compiled form = %v, want %v", got, tc.compiled)
			}
			_, err := e.Run(tc.transform, tc.inputs)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Run failed: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Errorf("Run error = %v\nwant        %s", err, tc.want)
			}
		})
	}
}

// TestConcurrentReentry runs the two recursive workloads — MergeSortDSL
// and the c/w/h-decomposed MatrixMultiply — from 8 goroutines on one
// engine and one 2-worker pool. Call descriptors, pooled frames and
// invocations, the temporary free list, the holders' callee-key memos
// and the single pool entry are all shared state; recycled storage is
// poisoned, so a temporary handed to two runs at once corrupts an
// output. Every result must equal the sequential AST tier's, bit for
// bit. Meaningful under -race.
func TestConcurrentReentry(t *testing.T) {
	e := newEngine(t, parser.MergeSortSrc+parser.MatrixMultiplySrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(interp.SelectorName("MergeSortDSL"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 8, Choice: 0}, {Cutoff: choice.Inf, Choice: 1},
	}})
	cfg.SetSelector(interp.SelectorName("MatrixMultiply"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 4, Choice: 0}, {Cutoff: 8, Choice: 1}, {Cutoff: 12, Choice: 2}, {Cutoff: choice.Inf, Choice: 3},
	}})
	oracleCfg := cfg.Clone()
	oracleCfg.SetInt(interp.EngineKey, interp.EngineInterp)
	oracle := e.WithConfig(oracleCfg)
	e.Cfg = cfg
	e.Pool = runtime.NewPool(2)
	defer e.Pool.Shutdown()
	interp.PoisonRecycled(true)
	defer interp.PoisonRecycled(false)

	random := func(rng *rand.Rand, dims ...int) *matrix.Matrix {
		m := matrix.New(dims...)
		m.Each(func([]int, float64) float64 { return float64(rng.Intn(1000)) })
		return m
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for rep := 0; rep < 4; rep++ {
				name, inputs := "MergeSortDSL", map[string]*matrix.Matrix{"A": random(rng, 100+g)}
				if (g+rep)%2 == 1 {
					n := 16 + g
					name, inputs = "MatrixMultiply", map[string]*matrix.Matrix{"A": random(rng, n, n), "B": random(rng, n, n)}
				}
				want, err := oracle.Run(name, inputs)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := e.Run(name, inputs)
				if err != nil {
					t.Error(err)
					return
				}
				for out, w := range want {
					if !reflect.DeepEqual(got[out].Data(), w.Data()) {
						t.Errorf("goroutine %d: %s output %s differs from the AST tier", g, name, out)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
