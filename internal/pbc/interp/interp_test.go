package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

func engine(t testing.TB, src string) *Engine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func vec(vals ...float64) *matrix.Matrix { return matrix.FromSlice(vals) }

func TestRollingSumBothRules(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	in := vec(1, 2, 3, 4, 5)
	want := []float64{1, 3, 6, 10, 15}
	for rule := 0; rule <= 1; rule++ {
		cfg := choice.NewConfig()
		cfg.SetSelector(SelectorName("RollingSum"), choice.NewSelector(rule))
		e.Cfg = cfg
		out, err := e.Run1("RollingSum", in)
		if err != nil {
			t.Fatalf("rule %d: %v", rule, err)
		}
		for i, w := range want {
			if got := out.At1(i); got != w {
				t.Errorf("rule %d: B[%d] = %g, want %g", rule, i, got, w)
			}
		}
	}
}

func TestRollingSumDefaultConfig(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	out, err := e.Run1("RollingSum", vec(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.At1(2) != 6 {
		t.Fatalf("B[2] = %g", out.At1(2))
	}
}

func mmInput(rng *rand.Rand, w, c, h int) map[string]*matrix.Matrix {
	// DSL A[c,h]: width c, height h → storage (h, c). B[w,c] → (c, w).
	a := matrix.New(h, c)
	b := matrix.New(c, w)
	a.Each(func([]int, float64) float64 { return rng.Float64()*2 - 1 })
	b.Each(func([]int, float64) float64 { return rng.Float64()*2 - 1 })
	return map[string]*matrix.Matrix{"A": a, "B": b}
}

func refMM(in map[string]*matrix.Matrix) *matrix.Matrix {
	a, b := in["A"], in["B"]
	h, c := a.Size(0), a.Size(1)
	w := b.Size(1)
	out := matrix.New(h, w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			s := 0.0
			for k := 0; k < c; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.SetAt(i, j, s)
		}
	}
	return out
}

// selectorFor forces `rule` for sizes >= 2 with the base cell rule below,
// the way any terminating tuned configuration of a recursive macro rule
// looks.
func selectorFor(rule int) choice.Selector {
	if rule == 0 {
		return choice.NewSelector(0)
	}
	return choice.Selector{Levels: []choice.Level{
		{Cutoff: 2, Choice: 0},
		{Cutoff: choice.Inf, Choice: rule},
	}}
}

func TestMatrixMultiplyAllRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := engine(t, parser.MatrixMultiplySrc)
	for rule := 0; rule <= 3; rule++ {
		in := mmInput(rng, 4, 6, 8)
		want := refMM(in)
		cfg := choice.NewConfig()
		cfg.SetSelector(SelectorName("MatrixMultiply"), selectorFor(rule))
		e.Cfg = cfg
		out, err := e.Run("MatrixMultiply", in)
		if err != nil {
			t.Fatalf("rule %d: %v", rule, err)
		}
		ab := out["AB"]
		if ab.Size(0) != 8 || ab.Size(1) != 4 {
			t.Fatalf("rule %d: AB shape %v", rule, ab.Shape())
		}
		if d := want.MaxAbsDiff(ab); d > 1e-10 {
			t.Errorf("rule %d differs from reference by %g", rule, d)
		}
	}
}

func TestMatrixMultiplyHybridSelector(t *testing.T) {
	// Recursive c-decomposition above size 4, base rule below: the tuned
	// composition pattern.
	rng := rand.New(rand.NewSource(2))
	e := engine(t, parser.MatrixMultiplySrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MatrixMultiply"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 4, Choice: 0},
		{Cutoff: choice.Inf, Choice: 1},
	}})
	e.Cfg = cfg
	in := mmInput(rng, 8, 8, 8)
	want := refMM(in)
	out, err := e.Run("MatrixMultiply", in)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.MaxAbsDiff(out["AB"]); d > 1e-10 {
		t.Fatalf("hybrid differs by %g", d)
	}
}

func TestMatrixMultiplyRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := engine(t, parser.MatrixMultiplySrc)
	for rule := 0; rule <= 3; rule++ {
		in := mmInput(rng, 3, 5, 2)
		want := refMM(in)
		cfg := choice.NewConfig()
		cfg.SetSelector(SelectorName("MatrixMultiply"), selectorFor(rule))
		e.Cfg = cfg
		out, err := e.Run("MatrixMultiply", in)
		if err != nil {
			t.Fatalf("rule %d: %v", rule, err)
		}
		if d := want.MaxAbsDiff(out["AB"]); d > 1e-10 {
			t.Errorf("rule %d rect differs by %g", rule, d)
		}
	}
}

func TestParallelInterpretation(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(4))
	e := engine(t, parser.MatrixMultiplySrc)
	e.Pool = pool
	in := mmInput(rng, 24, 24, 24)
	want := refMM(in)
	out, err := e.Run("MatrixMultiply", in)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.MaxAbsDiff(out["AB"]); d > 1e-10 {
		t.Fatalf("parallel run differs by %g", d)
	}
}

func TestWhereAndPriorities(t *testing.T) {
	src := `
transform Clamp
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i < n/2 { b = a * 2; }
  to (B.cell(i) b) from (A.cell(i) a) where i >= n/2 { b = 0 - a; }
}
`
	e := engine(t, src)
	out, err := e.Run1("Clamp", vec(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, -3, -4}
	for i, w := range want {
		if out.At1(i) != w {
			t.Fatalf("B[%d] = %g, want %g", i, out.At1(i), w)
		}
	}
}

func TestSecondaryCornerCase(t *testing.T) {
	src := `
transform Scan
from A[n]
to B[n]
{
  primary to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) l) { b = a + l; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
`
	e := engine(t, src)
	out, err := e.Run1("Scan", vec(1, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 11, 111}
	for i, w := range want {
		if out.At1(i) != w {
			t.Fatalf("B[%d] = %g, want %g", i, out.At1(i), w)
		}
	}
}

func TestWavefrontThroughMatrix(t *testing.T) {
	src := `
transform Wave
from A[n]
to B[n]
through C[n]
{
  to (B.cell(i) b) from (A.cell(i) a, C.cell(i-1) c) { b = a + c; }
  to (C.cell(i) c) from (B.cell(i) b) { c = b * 10; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
`
	e := engine(t, src)
	out, err := e.Run1("Wave", vec(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// B[0]=1, C[0]=10, B[1]=1+10=11, C[1]=110, B[2]=111.
	want := []float64{1, 11, 111}
	for i, w := range want {
		if out.At1(i) != w {
			t.Fatalf("B[%d] = %g, want %g", i, out.At1(i), w)
		}
	}
}

func TestBodyControlFlow(t *testing.T) {
	src := `
transform Body
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) a) {
    double acc = 0;
    for (int j = 0; j <= i; j++) {
      if (a.cell(j) > 2) {
        acc += a.cell(j);
      } else {
        acc -= 1;
      }
    }
    b = acc;
  }
}
`
	e := engine(t, src)
	out, err := e.Run1("Body", vec(1, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 7}
	for i, w := range want {
		if out.At1(i) != w {
			t.Fatalf("B[%d] = %g, want %g", i, out.At1(i), w)
		}
	}
}

func TestBuiltins(t *testing.T) {
	src := `
transform Built
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) a, A.cell(i) x) {
    b = max(min(sum(a), 100), abs(x)) + sqrt(4) + pow(2, 3) + floor(2.7) + ceil(0.2) - (7 % 4);
  }
}
`
	e := engine(t, src)
	out, err := e.Run1("Built", vec(-20, 5))
	if err != nil {
		t.Fatal(err)
	}
	// sum = -15 → min(-15,100) = -15; abs(-20) = 20 → max = 20;
	// +2 +8 +2 +1 -3 = 30.
	if out.At1(0) != 30 {
		t.Fatalf("B[0] = %g, want 30", out.At1(0))
	}
}

func TestTransformCallInBody(t *testing.T) {
	// Calls a single-output transform from a body expression.
	src := parser.MatrixMultiplySrc + `
transform Twice
from X[w, h]
to Y[w, h]
{
  to (Y y) from (X x) {
    y = MatrixAdd(x, x);
  }
}
`
	e := engine(t, src)
	x := matrix.New(2, 3)
	x.Fill(4)
	out, err := e.Run("Twice", map[string]*matrix.Matrix{"X": x})
	if err != nil {
		t.Fatal(err)
	}
	y := out["Y"]
	if y.At(1, 2) != 8 {
		t.Fatalf("Y = %v", y)
	}
}

func TestMatrixVersionsIterate(t *testing.T) {
	// A<0..k> versions desugar to an extra dimension; each version
	// depends on the previous one (iterative algorithm pattern).
	src := `
transform Iter
from A[n], K[1]
to B<0..k>[n]
{
  to (B.cell(i, 0) b) from (A.cell(i) a) { b = a; }
  to (B.cell(i, v) b) from (B.cell(i, v-1) prev) where v >= 1 { b = prev * 2; }
}
`
	e := engine(t, src)
	// k is a free size variable of the output; bind via input K of size 1
	// is not enough — k appears only in B's version range, so unify fails.
	// Supply k by sizing: run with explicit output size via inputs is not
	// supported, so this transform uses n from A and k stays unbound.
	_, err := e.Run("Iter", map[string]*matrix.Matrix{"A": vec(1, 2), "K": vec(0)})
	if err == nil {
		t.Fatal("expected unbound size variable error")
	}
}

func TestErrorsSurface(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	if _, err := e.Run("Nope", nil); err == nil {
		t.Fatal("unknown transform should fail")
	}
	if _, err := e.Run("RollingSum", map[string]*matrix.Matrix{}); err == nil {
		t.Fatal("missing input should fail")
	}
	if _, err := e.Run("RollingSum", map[string]*matrix.Matrix{"A": matrix.New(2, 2)}); err == nil {
		t.Fatal("rank mismatch should fail")
	}
}

func TestShapeMismatchAcrossInputs(t *testing.T) {
	e := engine(t, parser.MatrixMultiplySrc)
	// A is 6x8 (c=6,h=8) but B claims c=5.
	in := map[string]*matrix.Matrix{
		"A": matrix.New(8, 6),
		"B": matrix.New(5, 4),
	}
	if _, err := e.Run("MatrixMultiply", in); err == nil {
		t.Fatal("inconsistent sizes should fail")
	}
}

func TestRawBodyRejectedAtRuntime(t *testing.T) {
	src := `
transform Ext
from A[n]
to B[n]
{
  to (B b) from (A a) %{ memcpy(b, a); }%
}
`
	e := engine(t, src)
	_, err := e.Run1("Ext", vec(1))
	if err == nil {
		t.Fatal("raw C++ bodies must be rejected by the interpreter")
	}
}

func TestDivisionByZeroInBody(t *testing.T) {
	src := `
transform Div
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a / (a - a); }
}
`
	e := engine(t, src)
	if _, err := e.Run1("Div", vec(1)); err == nil {
		t.Fatal("division by zero should error")
	}
}

func TestConsistencyAcrossChoices(t *testing.T) {
	// §3.5 style: all rule choices of RollingSum agree on random data.
	rng := rand.New(rand.NewSource(5))
	e := engine(t, parser.RollingSumSrc)
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(30)
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Round(rng.Float64() * 10)
		}
		var ref *matrix.Matrix
		for rule := 0; rule <= 1; rule++ {
			cfg := choice.NewConfig()
			cfg.SetSelector(SelectorName("RollingSum"), choice.NewSelector(rule))
			e.Cfg = cfg
			out, err := e.Run1("RollingSum", vec(data...))
			if err != nil {
				t.Fatal(err)
			}
			if rule == 0 {
				ref = out
			} else if ref.MaxAbsDiff(out) > 1e-9 {
				t.Fatalf("choices disagree on trial %d", trial)
			}
		}
	}
}

func TestLexicographicWavefront2D(t *testing.T) {
	// 2-D prefix sums: B[x,y] = A[x,y] + B[x-1,y] + B[x,y-1] - B[x-1,y-1]
	// is the classic summed-area table; its self dependencies point
	// backwards in *different* dimensions, so a single-axis wavefront
	// cannot schedule it — the lexicographic order can.
	src := `
transform SummedArea
from A[w, h]
to B[w, h]
{
  primary to (B.cell(x, y) b)
  from (A.cell(x, y) a, B.cell(x-1, y) l, B.cell(x, y-1) u, B.cell(x-1, y-1) d) {
    b = a + l + u - d;
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x-1, y) l) where y == 0 {
    b = a + l;
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x, y-1) u) where x == 0 {
    b = a + u;
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
	e := engine(t, src)
	res, _ := e.Analysis("SummedArea")
	foundLex := false
	for _, s := range res.Schedule {
		if s.Lex != nil {
			foundLex = true
		}
	}
	if !foundLex {
		t.Fatalf("expected a lexicographic step:\n%s", res.RenderSchedule())
	}
	const w, h = 5, 4
	a := matrix.New(h, w) // storage (rows=h, cols=w)
	a.Each(func(idx []int, _ float64) float64 { return float64(idx[0]*w + idx[1] + 1) })
	out, err := e.Run("SummedArea", map[string]*matrix.Matrix{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	b := out["B"]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := 0.0
			for yy := 0; yy <= y; yy++ {
				for xx := 0; xx <= x; xx++ {
					want += a.At(yy, xx)
				}
			}
			if got := b.At(y, x); got != want {
				t.Fatalf("B[x=%d,y=%d] = %g, want %g", x, y, got, want)
			}
		}
	}
}

func TestMatrixVersionsLiteralBounds(t *testing.T) {
	// B<0..3> desugars to an extra dimension of extent 4; version v
	// depends on version v-1, scheduled as an ascending wavefront over
	// the version dimension (the paper: "useful when defining iterative
	// algorithms").
	src := `
transform Iterate3
from A[n]
to B<0..3>[n]
{
  to (B.cell(i, 0) b) from (A.cell(i) a) { b = a; }
  to (B.cell(i, v) b) from (B.cell(i, v-1) prev) where v >= 1 { b = prev * 2; }
}
`
	e := engine(t, src)
	out, err := e.Run1("Iterate3", vec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Dims() != 2 || out.Size(0) != 4 || out.Size(1) != 2 {
		t.Fatalf("B shape = %v, want [4 2]", out.Shape())
	}
	// Storage is (version, i) since the version dim is appended last in
	// DSL order. B[i, v] = A[i]·2^v.
	for i, a := range []float64{3, 5} {
		for v := 0; v < 4; v++ {
			want := a * float64(int(1)<<v)
			if got := out.At(v, i); got != want {
				t.Fatalf("B[i=%d,v=%d] = %g, want %g", i, v, got, want)
			}
		}
	}
}

func TestTemplateInstantiation(t *testing.T) {
	// A template transform parameterized by the smoothing width W; each
	// instance is a separate transform with its own selector.
	src := `
transform Scale
template <W>
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) {
    b = a * W;
  }
}
`
	e := engine(t, src)
	for _, w := range []int64{2, 5} {
		out, err := e.RunTemplate("Scale", []int64{w}, map[string]*matrix.Matrix{"A": vec(1, 2, 3)})
		if err != nil {
			t.Fatal(err)
		}
		b := out["B"]
		for i, base := range []float64{1, 2, 3} {
			if got := b.At1(i); got != base*float64(w) {
				t.Fatalf("Scale<%d>: B[%d] = %g, want %g", w, i, got, base*float64(w))
			}
		}
	}
	// Instances are cached and addressable by mangled name.
	if _, ok := e.Analysis("Scale<2>"); !ok {
		t.Fatal("instance Scale<2> not cached")
	}
	// Arity and non-template errors.
	if _, err := e.RunTemplate("Scale", []int64{1, 2}, nil); err == nil {
		t.Fatal("wrong template arity should fail")
	}
	if _, err := e.RunTemplate("Nope", []int64{1}, nil); err == nil {
		t.Fatal("unknown template should fail")
	}
}

func TestTemplateParamInRegions(t *testing.T) {
	// The template parameter appears in region bounds and where clauses.
	src := `
transform Shift
template <K>
from A[n]
to B[n]
{
  primary to (B.cell(i) b) from (A.cell(i-K) a) where i >= K { b = a; }
  secondary to (B.cell(i) b) from (A.cell(i) x) { b = 0 - x; }
}
`
	e := engine(t, src)
	out, err := e.RunTemplate("Shift", []int64{2}, map[string]*matrix.Matrix{"A": vec(1, 2, 3, 4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -2, 1, 2, 3}
	b := out["B"]
	for i, w := range want {
		if b.At1(i) != w {
			t.Fatalf("Shift<2>: B[%d] = %g, want %g", i, b.At1(i), w)
		}
	}
}

func TestGeneratorDrivenInputs(t *testing.T) {
	// The `generator` keyword supplies training data: Inc's generator
	// produces an input vector named A from random data.
	src := `
transform MakeA
from S[n]
to A[n]
{
  to (A.cell(i) a) from (S.cell(i) s) { a = s % 100; }
}

transform Inc
from A[n]
to B[n]
generator MakeA
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a + 1; }
}
`
	e := engine(t, src)
	inputs, err := e.GenerateInputs("Inc", 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := inputs["A"]
	if !ok || a.Size(0) != 32 {
		t.Fatalf("generator inputs = %v", inputs)
	}
	for i := 0; i < 32; i++ {
		if v := a.At1(i); v < 0 || v >= 100 {
			t.Fatalf("generator output A[%d] = %g outside [0,100)", i, v)
		}
	}
	// Determinism per seed.
	again, err := e.GenerateInputs("Inc", 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsDiff(again["A"]) != 0 {
		t.Fatal("generator inputs not deterministic per seed")
	}
	other, _ := e.GenerateInputs("Inc", 32, 10)
	if a.MaxAbsDiff(other["A"]) == 0 {
		t.Fatal("different seeds should give different inputs")
	}
}

func TestSpaceFromAnalysis(t *testing.T) {
	src := `
transform Tn
from A[n]
to B[n]
tunable chunk(4, 64, 16)
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
  to (B ball) from (A a) { ball = copy(a); }
}
`
	e := engine(t, src)
	res, _ := e.Analysis("Tn")
	sp := Space(res)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(sp.Selectors, func(s choice.SelectorSpec) bool { return s.Transform == SelectorName("Tn") })
	if i < 0 || sp.Selectors[i].NumChoices() != 2 {
		t.Fatalf("specs = %+v", sp.Selectors)
	}
	spec := sp.Selectors[i]
	// The macro rule is the recursive-style whole-matrix choice.
	if rec := spec.RecursiveChoices(); len(rec) != 1 || rec[0] != 1 {
		t.Fatalf("recursive choices = %v", rec)
	}
	// Declared tunables plus the engine's parallel grain. The execution
	// tier is not searched: tiers never change an output.
	if len(sp.Tunables) != 2 || sp.Tunables[0].Name != "pbc.Tn.chunk" || sp.Tunables[0].Default != 16 {
		t.Fatalf("tunables = %+v", sp.Tunables)
	}
	if sp.Tunables[1].Name != ParGrainKey || sp.Tunables[1].Default != DefaultParGrain {
		t.Fatalf("tunables = %+v", sp.Tunables)
	}
}

// TestSpaceGrainOnlyWhenTiled checks that the plan-tile grain is a
// dimension of a transform's space only when some schedule step may be
// tiled by it. RollingSum's steps are one cell (B.region(0, 1)) and a
// rank-1 scan, which the plan runs as one serial task at any grain; a
// rank-2 cyclic step (Heat1D), a lexicographic wavefront (SummedArea)
// and plain cell grids (MatrixMultiply, Tn) may all be tiled.
func TestSpaceGrainOnlyWhenTiled(t *testing.T) {
	tn := `
transform Tn
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
`
	for _, c := range []struct {
		name, src string
		want      bool
	}{
		{"RollingSum", parser.RollingSumSrc, false},
		{"MatrixMultiply", parser.MatrixMultiplySrc, true},
		{"Heat1D", parser.Heat1DSrc, true},
		{"SummedArea", parser.SummedAreaSrc, true},
		{"Tn", tn, true},
	} {
		res, _ := engine(t, c.src).Analysis(c.name)
		got := slices.ContainsFunc(Space(res).Tunables, func(s choice.TunableSpec) bool { return s.Name == ParGrainKey })
		if got != c.want {
			t.Errorf("%s: %s in space = %v, want %v\n%s", c.name, ParGrainKey, got, c.want, res.RenderSchedule())
		}
	}
}

func TestParallelNestedSingleWorkerNoDeadlock(t *testing.T) {
	// One worker + deeply nested parallel transform calls: the helping
	// joins must keep the single scheduler thread busy instead of
	// blocking it (a blocking Wait would deadlock here).
	pool := runtime.NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(31))
	e := engine(t, parser.MatrixMultiplySrc)
	e.Pool = pool
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MatrixMultiply"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 8, Choice: 0},
		{Cutoff: choice.Inf, Choice: 1},
	}})
	e.Cfg = cfg
	in := mmInput(rng, 32, 32, 32)
	want := refMM(in)
	doneCh := make(chan error, 1)
	go func() {
		out, err := e.Run("MatrixMultiply", in)
		if err == nil && want.MaxAbsDiff(out["AB"]) > 1e-9 {
			err = fmt.Errorf("wrong result")
		}
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("nested parallel run deadlocked on a 1-worker pool")
	}
}
