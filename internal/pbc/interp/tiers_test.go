package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// tierCfg returns a config pinning the execution tier.
func tierCfg(mode int64) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetInt(EngineKey, mode)
	return cfg
}

// TestThreeTierAgreement runs every corpus transform on the AST tier
// and on the default one — the bytecode vm, macro rules' transform
// calls included — sequentially and on a worker pool, and requires the
// vm to reproduce the AST interpreter's output bit for bit. The tiers
// may only ever change performance, not results.
func TestThreeTierAgreement(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	const size = 17
	for _, src := range []string{
		parser.RollingSumSrc,
		parser.MatrixMultiplySrc,
		parser.MergeSortSrc,
		parser.Heat1DSrc,
		parser.SummedAreaSrc,
	} {
		e := engine(t, src)
		for _, tr := range e.Prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			inputs, err := e.GenerateInputs(tr.Name, size, 11)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := e.WithConfig(tierCfg(EngineInterp)).Run(tr.Name, inputs)
			if err != nil {
				t.Fatalf("%s interp: %v", tr.Name, err)
			}
			for _, par := range []bool{false, true} {
				v := e.WithConfig(tierCfg(EngineJIT))
				if par {
					v.Pool = pool
				} else {
					v.Pool = nil
				}
				got, err := v.Run(tr.Name, inputs)
				if err != nil {
					t.Fatalf("%s jit par=%v: %v", tr.Name, par, err)
				}
				for name, m := range ref {
					if !m.AlmostEqual(got[name], 0) {
						t.Errorf("%s output %s: jit tier (par=%v) diverges from interpreter", tr.Name, name, par)
					}
				}
			}
		}
	}
}

// TestJITCacheConcurrentEngines races engine views pinned to different
// EngineKey values through the shared invocation cache. Run under
// -race: the bytecode tier's programs and pooled frames must be safe to
// share across goroutines, and each compiling config must occupy its
// own cache entry (the config fingerprint covers EngineKey). Value 1,
// the retired closure tier's, resolves to the vm like any unknown one.
func TestJITCacheConcurrentEngines(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	holders := countHolders(t)
	const n = 64
	in := benchVec(n, 3)
	want := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += in.At1(i)
		want[i] = acc
	}
	cfgs := []*choice.Config{tierCfg(EngineInterp), tierCfg(1), tierCfg(EngineJIT)}
	views := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		views[i] = e.WithConfig(cfg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := views[g%len(views)]
			for it := 0; it < 20; it++ {
				out, err := v.Run1("RollingSum", in)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for i := 0; i < n; i++ {
					if out.At1(i) != want[i] {
						t.Errorf("goroutine %d: element %d = %g, want %g", g, i, out.At1(i), want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The two jit views must occupy distinct cache entries; the
	// interpreter tier compiles nothing and must occupy none.
	sizes := map[string]int64{"n": n}
	if artifact.ConfigFingerprint(cfgs[1]) == artifact.ConfigFingerprint(cfgs[2]) {
		t.Fatal("distinct configs share a fingerprint")
	}
	if mode := views[1].engineMode(); mode != EngineJIT {
		t.Errorf("pbc.engine=1 resolves to tier %d, want EngineJIT", mode)
	}
	progs := e.Artifacts().Mem()
	for _, v := range views[1:] {
		if !progs.Contains(invocationKeyFor(v, "RollingSum", sizes)) {
			t.Errorf("no cache entry for key %s", invocationKeyFor(v, "RollingSum", sizes))
		}
	}
	if progs.Contains(invocationKeyFor(views[0], "RollingSum", sizes)) {
		t.Error("interpreter-tier view populated the invocation cache")
	}
	if n := holders(); n != 2 {
		t.Errorf("invocation cache holds %d entries, want 2", n)
	}
}

// TestEngineStatsFallbackReasons checks that jit lowering failures are
// recorded with their typed construct token and surfaced through
// EngineStatsSnapshot, instead of the blanket skip they used to be.
func TestEngineStatsFallbackReasons(t *testing.T) {
	resetTierStats()
	defer resetTierStats()
	// One rule the bytecode tier handles (including the sum reduction
	// over a view, which lowers to OpSumV), one it must reject: a view
	// read as a scalar succeeds only when the view holds one element — a
	// dynamic property the register vm cannot express.
	src := `
transform Mixed
from A[n]
to B[n], C[n]
{
  to (B.cell(i) b) from (A.region(0, n) r) { b = sum(r); }
  to (C.cell(i) c) from (A.region(i, (i + 1)) r) { c = 2 * r; }
}
`
	e := engine(t, src)
	in := vec(1, 2, 3, 4)
	out, err := e.Run("Mixed", map[string]*matrix.Matrix{"A": in})
	if err != nil {
		t.Fatal(err)
	}
	if out["B"].At1(2) != 10 || out["C"].At1(1) != 4 {
		t.Fatalf("B[2]=%g C[1]=%g, want 10 and 4", out["B"].At1(2), out["C"].At1(1))
	}

	stats := EngineStatsSnapshot()
	if stats.Compiled["jit"] == 0 {
		t.Error("no rule recorded as jit-compiled")
	}
	found := false
	for _, r := range stats.Fallbacks {
		if r.Tier == "jit" && r.Transform == "Mixed" {
			if r.Construct != "view-scalar" {
				t.Errorf("fallback construct = %q, want view-scalar (%+v)", r.Construct, r)
				continue
			}
			found = true
			if r.Rule == "" || r.Count < 1 {
				t.Errorf("fallback entry incomplete: %+v", r)
			}
		}
	}
	if !found {
		t.Errorf("no jit view-scalar fallback recorded; stats = %+v", stats)
	}
}

// macroTierSrc is the mergesort corpus plus macro rules that stress what
// the vm now runs: Halves calls the call-free Ramp on the left and right
// halves of its output, so the callee writes into a strided region of
// its caller; Overrun indexes one past the end of its views; and
// Aliased and Misshapen are the pbfuzz inplace family's variants 3 and
// 4 — destinations that share storage with an argument, whose results
// must be copied (b1 = Q(b1), which would read its own zero-fill if
// written in place, and b2 = Q(b1)), and a callee whose output does not
// have the destination's shape. Logic, Guarded, NaNs and Loops stress
// the vm's control flow: && and || nested both ways in if and for
// conditions; a right operand whose .cell is out of range exactly when
// the left one short-circuits it; NaN under every comparison, of two
// view cells and of registers, and as a loop variable; a body that
// assigns its loop variable; zero-trip loops; a bound of size
// arithmetic; and a local shadowing a size name.
const macroTierSrc = parser.MergeSortSrc + `
transform Ramp
from A[w, h]
to B[w, h]
{
  to (B b) from (A a) {
    for (int y = 0; y < h; y++) {
      for (int x = 0; x < w; x++) { b.cell(x, y) = 2 * a.cell(x, y) + x - y / 4; }
    }
  }
}

transform Halves
from A[w, h]
to B[w, h]
{
  to (B.region(0, 0, w / 2, h) l, B.region(w / 2, 0, w, h) r)
  from (A.region(0, 0, w / 2, h) al, A.region(w / 2, 0, w, h) ar) {
    l = Ramp(al);
    r = Ramp(ar);
  }
}

transform Overrun
from A[n]
to B[n]
{
  to (B b) from (A a) {
    for (int i = 0; i <= n; i++) { b.cell(i) = a.cell(i) * 2; }
  }
}

transform FzP from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = 2 * a + 1; } }
transform FzQ from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a * a - 3; } }

transform Aliased
from A[n]
to B[2 * n]
{
  to (B.region(0, n) b1, B.region(n, 2 * n) b2) from (A a) {
    b1 = FzP(a);
    b1 = FzQ(b1);
    b2 = FzQ(b1);
  }
}

transform FzHalf from A[n] to B[n / 2] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }

transform Logic
from A[n]
to B[n]
{
  to (B b) from (A a) {
    for (int i = 0; i < n; i++) {
      double v = a.cell(i);
      double r = 3;
      if ((v > 0 && v < 2) || (v <= -1 && v != -2)) {
        r = 1;
      } else if ((v == 0 || i % 3 == 1) && (v >= 1 || i > 4)) {
        r = 2;
      }
      int c = 0;
      for (int k = i; k < n && (a.cell(k) >= 0 || k % 2 == 0); k++) { c = c + 1; }
      for (int k = i; (k >= 0 && k < 3) || k == i; k--) { c = c + 10; }
      b.cell(i) = r + 100 * c;
    }
  }
}

transform Guarded
from A[n]
to B[n]
{
  to (B b) from (A a) {
    double s = 0;
    for (int i = 0; i < n + 1; i++) {
      int k = n - 1 - i;
      if (i == n || a.cell(i) < a.cell(k)) { s = s + 1; }
      if (k >= 0 && a.cell(k) <= a.cell(i)) { s = s + 2; }
      if (!(i < n) || a.cell(i) != a.cell(0)) { s = s + 4; }
      if (i < n) { b.cell(i) = s; }
    }
    b.cell(n - 1) = s;
  }
}

transform NaNs
from A[n]
to B[n]
{
  to (B b) from (A a) {
    double q = sqrt(-1);
    for (int i = 0; i < n; i++) {
      if (i % 3 == 0) { b.cell(i) = q; } else { b.cell(i) = a.cell(i); }
    }
    double s = 0;
    for (int i = 0; i < n; i++) {
      int k = n - 1 - i;
      if (b.cell(i) < b.cell(k)) { s = s + 1; }
      if (b.cell(i) <= b.cell(k)) { s = s + 2; }
      if (b.cell(i) > b.cell(k)) { s = s + 4; }
      if (b.cell(i) >= b.cell(k)) { s = s + 8; }
      if (b.cell(i) == b.cell(k)) { s = s + 16; }
      if (b.cell(i) != b.cell(k)) { s = s + 32; }
      if (q < s || q >= s || q == q) { s = s + 64; }
      if (q != q && !(q > s)) { s = s + 128; }
    }
    for (double x = q; x < n; x++) { s = s + 1000; }
    for (int i = 0; i < n; i++) {
      if (i == 1) { i = q; }
      s = s + 10000;
    }
    b.cell(0) = s;
  }
}

transform Loops
from A[n]
to B[n]
{
  to (B b) from (A a) {
    double s = 0;
    for (int i = 0; i < n; i++) {
      if (a.cell(i) < 0) { i = i + 1; }
      if (i == 2) { i = i + 0.5; }
      if (i > 40) { i = n; }
      s = s + i;
    }
    for (int i = n; i < n; i++) { s = s + 1000; }
    for (int i = 0; i < 0; i++) { s = s + 1000; }
    for (int i = 0; i < 2 * n - 1; i++) { s = s + a.cell(i / 2); }
    b.cell(0) = s;
    if (s == s) {
      int n = 2;
      for (int i = 0; i < n; i++) {
        if (n < 6) { n = n + 1; }
        s = s + i;
      }
      s = s + 1000 * n;
    }
    b.cell(n - 1) = s;
  }
}

transform Misshapen
from A[n]
to B[n]
{
  to (B b) from (A a) { b = FzHalf(a); }
}
`

// sameBits reports whether a and b hold the same shape and bit-identical
// elements.
func sameBits(a, b *matrix.Matrix) bool {
	if a.Dims() != b.Dims() {
		return false
	}
	for d := 0; d < a.Dims(); d++ {
		if a.Size(d) != b.Size(d) {
			return false
		}
	}
	x, y := a.Data(), b.Data()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// tierRun runs one invocation under cfg with the AST tier and with the
// default one, on pool (nil: sequentially), and returns both results,
// each either outputs or the error or panic text it ended with.
func tierRun(t *testing.T, e *Engine, pool *runtime.Pool, cfg func(mode int64) *choice.Config, name string, in map[string]*matrix.Matrix) (ast, vm map[string]*matrix.Matrix, astErr, vmErr string) {
	t.Helper()
	run := func(mode int64) (out map[string]*matrix.Matrix, msg string) {
		defer func() {
			if r := recover(); r != nil {
				out, msg = nil, fmt.Sprint(r)
			}
		}()
		v := e.WithConfig(cfg(mode))
		v.Pool = pool
		out, err := v.Run(name, in)
		if err != nil {
			return nil, err.Error()
		}
		return out, ""
	}
	ast, astErr = run(EngineInterp)
	vm, vmErr = run(EngineJIT)
	return ast, vm, astErr, vmErr
}

// TestMacroRulesAcrossTiers runs the call-free macro rules SelectionSort
// and Merge, MergeSortDSL's call rules on top of them at two cutoffs, a
// nested call writing a strided region of its caller, the inplace
// family's variants 3 (destinations aliasing an argument, so the result
// is copied) and 4 (a callee result of the wrong shape), and the
// control-flow rules Logic, Guarded, NaNs and Loops on the AST tier and
// on the vm, sequentially and on a pool: outputs must agree bit for
// bit, and a .cell index past a view or a misshapen result must fail
// with the same text on both.
func TestMacroRulesAcrossTiers(t *testing.T) {
	e := engine(t, macroTierSrc)
	// The rules under test must really run on the vm.
	for _, tc := range []struct {
		name string
		rule int
	}{
		{"SelectionSort", 0}, {"Merge", 0}, {"Ramp", 0}, {"Overrun", 0},
		{"MergeSortDSL", 0}, {"MergeSortDSL", 1}, {"Halves", 0}, {"Aliased", 0}, {"Misshapen", 0},
		{"Logic", 0}, {"Guarded", 0}, {"NaNs", 0}, {"Loops", 0},
	} {
		ex := execFor(t, e.WithConfig(tierCfg(EngineJIT)), tc.name, 8)
		if ex.comp.rule(ex.res.Rules[tc.rule], nil) == astRule {
			t.Fatalf("%s rule %d does not lower to the vm", tc.name, tc.rule)
		}
	}
	rng := rand.New(rand.NewSource(5))
	vecOf := func(n int) *matrix.Matrix {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(21)-10) / 4 // duplicates, negatives, fractions
		}
		return matrix.FromSlice(v)
	}
	sorted := func(n int) *matrix.Matrix {
		m := vecOf(n)
		slices.Sort(m.Data())
		return m
	}
	plain := func(mode int64) *choice.Config { return tierCfg(mode) }
	cutoff := func(c int64) func(mode int64) *choice.Config {
		return func(mode int64) *choice.Config {
			cfg := tierCfg(mode)
			cfg.SetSelector(SelectorName("MergeSortDSL"), choice.Selector{Levels: []choice.Level{
				{Cutoff: c, Choice: 0}, {Cutoff: choice.Inf, Choice: 1},
			}})
			return cfg
		}
	}
	pool := runtime.NewPool(2)
	defer pool.Close()
	for _, p := range []*runtime.Pool{nil, pool} {
		mode := "seq"
		if p != nil {
			mode = "pool"
		}
		check := func(what string, cfg func(mode int64) *choice.Config, name string, in map[string]*matrix.Matrix) {
			t.Helper()
			ast, vm, astErr, vmErr := tierRun(t, e, p, cfg, name, in)
			if astErr != "" || vmErr != "" {
				t.Errorf("%s %s: AST error %q, vm error %q", mode, what, astErr, vmErr)
				return
			}
			for out, m := range ast {
				if !sameBits(m, vm[out]) {
					t.Errorf("%s %s: output %s differs between the AST and the vm", mode, what, out)
				}
			}
		}
		for _, n := range []int{1, 2, 31, 33, 64} {
			check(fmt.Sprintf("SelectionSort n=%d", n), plain, "SelectionSort", map[string]*matrix.Matrix{"A": vecOf(n)})
			a := n / 2
			check(fmt.Sprintf("Merge a=%d b=%d", a, n-a), plain, "Merge",
				map[string]*matrix.Matrix{"X": sorted(a), "Y": sorted(n - a)})
			for _, c := range []int64{4, 32} {
				check(fmt.Sprintf("MergeSortDSL n=%d cutoff=%d", n, c), cutoff(c), "MergeSortDSL",
					map[string]*matrix.Matrix{"A": vecOf(n)})
			}
			grid := matrix.New(n, 5) // w = 5, h = n: halves of width 2 and 3
			for i := range grid.Data() {
				grid.Data()[i] = float64(rng.Intn(21) - 10)
			}
			check(fmt.Sprintf("Halves w=5 h=%d", n), plain, "Halves", map[string]*matrix.Matrix{"A": grid})

			_, _, astErr, vmErr := tierRun(t, e, p, plain, "Overrun", map[string]*matrix.Matrix{"A": vecOf(n)})
			want := fmt.Sprintf("matrix: index %d out of range [0,%d) in dim 0", n, n)
			if p != nil {
				want = `runtime: task "run" panicked: ` + want // the pool reports a task's panic as its error
			}
			if astErr != want || vmErr != want {
				t.Errorf("%s Overrun n=%d: AST fails with %q, vm with %q; want %q", mode, n, astErr, vmErr, want)
			}

			check(fmt.Sprintf("Aliased n=%d", n), plain, "Aliased", map[string]*matrix.Matrix{"A": vecOf(n)})
			_, _, astErr, vmErr = tierRun(t, e, p, plain, "Misshapen", map[string]*matrix.Matrix{"A": vecOf(n)})
			want = fmt.Sprintf("interp: rule 0 binding b: cannot assign a value of shape [%d] to a region of shape [%d]", n/2, n)
			if astErr != want || vmErr != want {
				t.Errorf("%s Misshapen n=%d: AST fails with %q, vm with %q; want %q", mode, n, astErr, vmErr, want)
			}

			for _, name := range []string{"Logic", "Guarded", "NaNs", "Loops"} {
				check(fmt.Sprintf("%s n=%d", name, n), plain, name, map[string]*matrix.Matrix{"A": vecOf(n)})
			}
		}
	}
}
