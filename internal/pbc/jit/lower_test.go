package jit

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/parser"
)

// lowerRule parses src, analyzes its only transform, and lowers rule
// index ruleIdx under the given sizes.
func lowerRule(t testing.TB, src string, ruleIdx int, sizes map[string]int64) (*Program, *analysis.Result, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := analysis.Analyze(prog, prog.Transforms[0])
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	p, cerr := Compile(res, res.Rules[ruleIdx], sizes)
	return p, res, cerr
}

const pointwiseSrc = `
transform PW
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) {
    double t = 2 * a + 1;
    if (t > 10) { t = t - 10; } else { t = -t; }
    b = t;
  }
}
`

func TestLowerPointwise(t *testing.T) {
	p, _, err := lowerRule(t, pointwiseSrc, 0, map[string]int64{"n": 4})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if len(p.Refs) != 2 {
		t.Fatalf("refs = %d, want 2 (b, a)", len(p.Refs))
	}
	a := matrix.FromSlice([]float64{1, 4, 6, 9})
	b := matrix.FromSlice(make([]float64, 4))
	f := p.NewFrame()
	// Refs in To-then-From order: b then a.
	f.BindMatrix(0, b)
	f.BindMatrix(1, a)
	for i := int64(0); i < 4; i++ {
		if err := f.RunCell([]int64{i}); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	want := []float64{-3, -9, 3, 9}
	for i, w := range want {
		if got := b.Get(i); got != w {
			t.Fatalf("b[%d] = %v, want %v (program:\n%s)", i, got, w, p.Disassemble())
		}
	}
}

func TestLowerLoopAndBuiltins(t *testing.T) {
	src := `
transform Scan
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) {
    double acc = 0;
    for (int k = 0; k < 3; k++) {
      acc += k * 2;
    }
    b = max(min(a, acc), sqrt(a) > 2 ? pow(a, 0.5) : abs(-a), floor(a / 2));
  }
}
`
	p, _, err := lowerRule(t, src, 0, map[string]int64{"n": 2})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	a := matrix.FromSlice([]float64{9, 1})
	b := matrix.FromSlice(make([]float64, 2))
	f := p.NewFrame()
	f.BindMatrix(0, b)
	f.BindMatrix(1, a)
	for i := int64(0); i < 2; i++ {
		if err := f.RunCell([]int64{i}); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	// acc = 0+2+4 = 6; cell 0: max(min(9,6)=6, sqrt(9)>2 → 3, floor(4.5)=4) = 6
	// cell 1: max(min(1,6)=1, abs(-1)=1, floor(0.5)=0) = 1
	if b.Get(0) != 6 || b.Get(1) != 1 {
		t.Fatalf("b = [%v %v], want [6 1]\n%s", b.Get(0), b.Get(1), p.Disassemble())
	}
}

func TestLowerShortCircuitSkipsOOBLoad(t *testing.T) {
	// The right operand reads a.cell(i-1), out of range at i=0; the
	// short-circuit left operand must keep it from erroring there.
	src := `
transform SC
from A[n]
to B[n]
{
  priority(1) to (B.cell(i) b) from (A.cell(i) c, A.cell(i-1) l) {
    b = (i > 0 && l > 0) ? 1 : 0;
  }
  priority(2) to (B.cell(i) b) from (A.cell(i) c) {
    b = 0;
  }
}
`
	p, _, err := lowerRule(t, src, 0, map[string]int64{"n": 3})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	a := matrix.FromSlice([]float64{5, 0, 7})
	b := matrix.FromSlice(make([]float64, 3))
	f := p.NewFrame()
	f.BindMatrix(0, b)
	f.BindMatrix(1, a)
	f.BindMatrix(2, a)
	for i := int64(0); i < 3; i++ {
		if err := f.RunCell([]int64{i}); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	want := []float64{0, 1, 0}
	for i, w := range want {
		if got := b.Get(i); got != w {
			t.Fatalf("b[%d] = %v, want %v", i, got, w)
		}
	}
}

// TestLowerSumOverRegion lowers RollingSum's direct rule — sum over the
// affine prefix view A.region(0, i+1) — and checks the vm computes
// exact prefix sums through OpSumV.
func TestLowerSumOverRegion(t *testing.T) {
	p, _, err := lowerRule(t, parser.RollingSumSrc, 0, map[string]int64{"n": 5})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	a := matrix.FromSlice([]float64{1, 2, 3, 4, 5})
	b := matrix.FromSlice(make([]float64, 5))
	f := p.NewFrame()
	f.BindMatrix(0, b)
	f.BindMatrix(1, a)
	for i := int64(0); i < 5; i++ {
		if err := f.RunCell([]int64{i}); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	want := []float64{1, 3, 6, 10, 15}
	for i, w := range want {
		if got := b.Get(i); got != w {
			t.Fatalf("b[%d] = %v, want %v\n%s", i, got, w, p.Disassemble())
		}
	}
	// The view's bounds are checked eagerly: at i = n the prefix view
	// [0, n+1) exceeds the matrix and must error before the body runs.
	if err := f.RunCell([]int64{5}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected eager view bounds error, got %v", err)
	}
}

// TestLowerDotRowCol lowers MatrixMultiply's base rule — dot over a row
// view and a (non-contiguous) column view — and checks OpDotV against a
// hand-computed product.
func TestLowerDotRowCol(t *testing.T) {
	sizes := map[string]int64{"w": 2, "c": 2, "h": 2}
	p, _, err := lowerRule(t, parser.MatrixMultiplySrc, 0, sizes)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	mk := func(vals ...float64) *matrix.Matrix {
		m := matrix.New(2, 2)
		for i, v := range vals {
			m.Set(v, i/2, i%2)
		}
		return m
	}
	a := mk(1, 2, 3, 4)  // rows [1 2], [3 4]
	bm := mk(5, 6, 7, 8) // columns [5 7], [6 8]
	ab := matrix.New(2, 2)
	f := p.NewFrame()
	f.BindMatrix(0, ab) // To: AB.cell(x, y)
	f.BindMatrix(1, a)  // From: A.row(y)
	f.BindMatrix(2, bm) // From: B.column(x)
	for x := int64(0); x < 2; x++ {
		for y := int64(0); y < 2; y++ {
			if err := f.RunCell([]int64{x, y}); err != nil {
				t.Fatalf("cell (%d,%d): %v", x, y, err)
			}
		}
	}
	want := [][]float64{{19, 22}, {43, 50}} // row y, col x
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if got := ab.Get(y, x); got != want[y][x] {
				t.Fatalf("ab[%d][%d] = %v, want %v\n%s", y, x, got, want[y][x], p.Disassemble())
			}
		}
	}
}

// TestLowerIndexedAccess covers register-indexed reads and writes on
// view bindings: an explicit loop summing r.cell(k) (OpLoadAt with a
// loop-register index) and an indexed read-modify-write through a From
// view (OpStoreAt).
func TestLowerIndexedAccess(t *testing.T) {
	src := `
transform IX
from A[w, h]
to B[h]
{
  to (B.cell(y) b) from (A.row(y) r) {
    double s = 0;
    for (int k = 0; k < w; k++) {
      s += r.cell(k);
    }
    b = s;
  }
}
`
	p, _, err := lowerRule(t, src, 0, map[string]int64{"w": 3, "h": 2})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	a := matrix.New(2, 3) // row-major h x w
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			a.Set(float64(10*r+c+1), r, c)
		}
	}
	b := matrix.FromSlice(make([]float64, 2))
	f := p.NewFrame()
	f.BindMatrix(0, b)
	f.BindMatrix(1, a)
	for y := int64(0); y < 2; y++ {
		if err := f.RunCell([]int64{y}); err != nil {
			t.Fatalf("cell %d: %v", y, err)
		}
	}
	if b.Get(0) != 1+2+3 || b.Get(1) != 11+12+13 {
		t.Fatalf("b = [%v %v], want [6 36]\n%s", b.Get(0), b.Get(1), p.Disassemble())
	}

	wsrc := `
transform WX
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) r) {
    r.cell(i) = r.cell(i) + 1;
    b = r.cell(i);
  }
}
`
	wp, _, err := lowerRule(t, wsrc, 0, map[string]int64{"n": 3})
	if err != nil {
		t.Fatalf("lower write: %v", err)
	}
	wa := matrix.FromSlice([]float64{4, 5, 6})
	wb := matrix.FromSlice(make([]float64, 3))
	wf := wp.NewFrame()
	wf.BindMatrix(0, wb)
	wf.BindMatrix(1, wa)
	for i := int64(0); i < 3; i++ {
		if err := wf.RunCell([]int64{i}); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i, w := range []float64{5, 6, 7} {
		if wb.Get(i) != w || wa.Get(i) != w {
			t.Fatalf("i=%d: b=%v a=%v, want %v\n%s", i, wb.Get(i), wa.Get(i), w, wp.Disassemble())
		}
	}
	// An out-of-range explicit index panics exactly like matrix.Get.
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
				t.Fatalf("expected matrix.Get-style panic, got %v", r)
			}
		}()
		_ = wf.RunCell([]int64{3}) // r.cell(3) on a 3-element view
	}()
}

// TestLowerFallbackReasons checks the typed construct each rule outside
// the lowerable fragment reports, and that a call-free macro rule and a
// macro rule with a call statement lower (construct "").
func TestLowerFallbackReasons(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		rule      int
		construct string
	}{
		// A macro rule lowers when it calls no transform.
		{"macro-call-free-loop", `
transform ML
from A[n]
to B[n]
{
  to (B b) from (A a) {
    for (int i = 0; i < n; i++) { b.cell(i) = 2 * a.cell(n - 1 - i); }
  }
}
`, 0, ""},
		{"macro-region-assignment", `
transform V
from A[n]
to B[n]
{
  to (B b) from (A a) { b = a; }
}
`, 0, "region-assignment"},
		// So does one whose calls are statements `v = F(…)`.
		{"macro-call-statement", `
transform MC
from A[n]
to B[n]
{
  to (B b) from (A a) {
    for (int i = 0; i < n; i++) { b.cell(i) = a.cell(i); }
    b = MC(a);
  }
}
`, 0, ""},
		// A call in a scalar position does not lower, and neither does a
		// call statement whose argument is not a view.
		{"call-in-expression", `
transform CE
from A[n]
to B[n]
{
  to (B b) from (A a) {
    for (int i = 0; i < n; i++) { b.cell(i) = sum(CE(a)); }
  }
}
`, 0, "transform-call"},
		{"call-of-non-view", `
transform CN
from A[n]
to B[n]
{
  to (B b) from (A a) { int k = 2; b = CN(k); }
}
`, 0, "transform-call"},
		{"view-scalar", `
transform R
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(i, (i + 1)) r) { b = 2 * r; }
}
`, 0, "view-scalar"},
		{"region-assignment", `
transform RA
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) r) { r = b; b = 0; }
}
`, 0, "region-assignment"},
		{"index-rank", `
transform IR
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) r) { b = r.cell(i, 0); }
}
`, 0, "index-rank"},
		{"transform-call", `
transform Outer
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = Outer(a); }
}
`, 0, "transform-call"},
		{"builtin-view", `
transform S
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = sum(a); }
}
`, 0, "builtin"},
		{"builtin-arity", `
transform P
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = pow(a); }
}
`, 0, "builtin-arity"},
		{"incdec-cell", `
transform I
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; b++; }
}
`, 0, "incdec-target"},
		{"undefined-name", `
transform U
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = nosuch; }
}
`, 0, "undefined-name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := lowerRule(t, tc.src, tc.rule, map[string]int64{"n": 4})
			if tc.construct == "" {
				if err != nil {
					t.Fatalf("lower: %v", err)
				}
				return
			}
			var uns *ir.Unsupported
			if !errors.As(err, &uns) {
				t.Fatalf("err = %v, want *ir.Unsupported", err)
			}
			if uns.Construct != tc.construct {
				t.Fatalf("construct = %q (%v), want %q", uns.Construct, err, tc.construct)
			}
			if uns.Rule == "" {
				t.Fatal("fallback reason missing rule name")
			}
		})
	}
}

func TestLowerCorpusCoverage(t *testing.T) {
	// The hot corpus families the tier targets must actually lower.
	type tcase struct {
		src   string
		sizes map[string]int64
		// minimum number of rules that must lower (others may fall back)
		minLowered int
	}
	cases := map[string]tcase{
		"Heat1D":     {parser.Heat1DSrc, map[string]int64{"n": 8}, 3},
		"SummedArea": {parser.SummedAreaSrc, map[string]int64{"w": 4, "h": 4}, 4},
		// The paper's reduction kernels: RollingSum's direct
		// sum-over-prefix rule and MatrixMultiply's dot-product base rule
		// lower now that bounded views and reductions are in the fragment.
		"RollingSum":     {parser.RollingSumSrc, map[string]int64{"n": 8}, 2},
		"MatrixMultiply": {parser.MatrixMultiplySrc, map[string]int64{"w": 4, "c": 4, "h": 4}, 1},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := analysis.Analyze(prog, prog.Transforms[0])
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			lowered := 0
			for _, ri := range res.Rules {
				if p, err := Compile(res, ri, tc.sizes); err == nil {
					lowered++
					if len(p.Code) == 0 || p.Code[len(p.Code)-1].Op != OpHalt {
						t.Fatalf("%s: program must end in halt", ri.Rule.Name())
					}
				}
			}
			if lowered < tc.minLowered {
				t.Fatalf("lowered %d rules, want >= %d", lowered, tc.minLowered)
			}
		})
	}
}
