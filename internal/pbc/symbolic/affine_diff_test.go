package symbolic

import (
	"math/rand"
	"strings"
	"testing"
)

// The differential test drives the slice-backed Affine and the
// map-backed reference (affine_ref_test.go) with the same byte-programmed
// operation sequence and compares every observable after every step.
// One operation is two bytes, opcode then argument:
//
//	0 k  push the constant k-8
//	1 k  push the fraction (k%9-4)/(2+k%3)
//	2 k  push the variable diffVars[k%len]
//	3 _  pop y, x; push x+y
//	4 _  pop y, x; push x-y
//	5 k  scale the top by diffScales[k%len]
//	6 k  split the top by the variable list k selects; push the rest
//	7 _  duplicate the top

var diffVars = []string{"i", "j", "n", "m", "c", "w", "t", "ii"}

var diffScales = []Rat{RatInt(-1), RatInt(2), RatFrac(1, 2), RatInt(0), RatInt(1), RatFrac(-1, 3), RatInt(3), RatFrac(2, 3)}

type affPair struct {
	a Affine
	r refAffine
}

// splitVars decodes a Split argument list from one byte: up to four
// names, with the empty name and duplicates included on purpose.
func splitVars(k byte) []string {
	pool := append([]string{""}, diffVars...)
	n := 1 + int(k)%4
	out := make([]string, n)
	for i := range out {
		out[i] = pool[(int(k)/(i+1)+i*3)%len(pool)]
	}
	return out
}

func checkPair(t *testing.T, step int, p affPair) {
	t.Helper()
	a, r := p.a, p.r
	if got, want := a.String(), r.String(); got != want {
		t.Fatalf("step %d: String %q, reference %q", step, got, want)
	}
	if a.Const().Cmp(r.Const()) != 0 || a.IsConst() != r.IsConst() || a.IsZero() != r.IsZero() {
		t.Fatalf("step %d: %s: Const/IsConst/IsZero %v/%v/%v, reference %v/%v/%v",
			step, a, a.Const(), a.IsConst(), a.IsZero(), r.Const(), r.IsConst(), r.IsZero())
	}
	if got, want := strings.Join(a.Vars(), ","), strings.Join(r.Vars(), ","); got != want {
		t.Fatalf("step %d: %s: Vars %q, reference %q", step, a, got, want)
	}
	if a.NumTerms() != len(r.Vars()) {
		t.Fatalf("step %d: %s: NumTerms %d, reference %d", step, a, a.NumTerms(), len(r.Vars()))
	}
	for i, v := range r.Vars() {
		if name, c := a.Term(i); name != v || c.Cmp(r.Coeff(v)) != 0 {
			t.Fatalf("step %d: %s: Term(%d) = %s,%v, reference %s,%v", step, a, i, name, c, v, r.Coeff(v))
		}
	}
	for _, v := range append([]string{"", "zz"}, diffVars...) {
		if got, want := a.Coeff(v), r.Coeff(v); got.Cmp(want) != 0 {
			t.Fatalf("step %d: %s: Coeff(%q) = %v, reference %v", step, a, v, got, want)
		}
	}
	e := a.Expr()
	if got, want := shapeOf(e), r.exprShape(); got != want {
		t.Fatalf("step %d: %s: Expr tree %s, reference %s", step, a, got, want)
	}
	if got := e.String(); got != r.String() {
		t.Fatalf("step %d: Expr().String() %q, reference %q", step, got, r.String())
	}
	if back, ok := e.Affine(); !ok || !back.Equal(a) {
		t.Fatalf("step %d: %s: Expr().Affine() = %v, %v", step, a, back, ok)
	}
}

// runAffineOps interprets prog on both implementations. Arithmetic that
// leaves 64 bits panics identically in both (they share Rat), which ends
// the program: overflow is tested where Rat is.
func runAffineOps(t *testing.T, prog []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*OverflowError); !ok {
				panic(r)
			}
		}
	}()
	if len(prog) > 96 {
		prog = prog[:96]
	}
	var stack []affPair
	push := func(a Affine, r refAffine) { stack = append(stack, affPair{a, r}) }
	pop := func() affPair {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return p
	}
	for step := 0; step+1 < len(prog) && len(stack) < 12; step += 2 {
		op, k := prog[step]%8, prog[step+1]
		switch {
		case op == 0 || (len(stack) == 0 && op != 1 && op != 2):
			v := RatInt(int64(k%17) - 8)
			push(AffineConst(v), refAffineConst(v))
		case op == 1:
			v := RatFrac(int64(k%9)-4, int64(2+k%3))
			push(AffineConst(v), refAffineConst(v))
		case op == 2:
			v := diffVars[int(k)%len(diffVars)]
			push(AffineVar(v), refAffineVar(v))
		case op == 3 && len(stack) >= 2:
			y, x := pop(), pop()
			push(x.a.Add(y.a), x.r.Add(y.r))
		case op == 4 && len(stack) >= 2:
			y, x := pop(), pop()
			push(x.a.Sub(y.a), x.r.Sub(y.r))
		case op == 5:
			x, s := pop(), diffScales[int(k)%len(diffScales)]
			push(x.a.Scale(s), x.r.Scale(s))
		case op == 6:
			x, vars := pop(), splitVars(k)
			ca, ra := x.a.Split(vars)
			cr, rr := x.r.Split(vars)
			for i := range vars {
				if ca[i].Cmp(cr[i]) != 0 {
					t.Fatalf("step %d: Split(%s, %q) coeff %d = %v, reference %v", step, x.a, vars, i, ca[i], cr[i])
				}
			}
			push(x.a, x.r) // the operand must be untouched
			push(ra, rr)
		default:
			x := stack[len(stack)-1]
			push(x.a, x.r)
		}
		for _, p := range stack {
			checkPair(t, step, p)
		}
		for _, p := range stack {
			for _, q := range stack {
				if got, want := p.a.Equal(q.a), p.r.Equal(q.r); got != want {
					t.Fatalf("step %d: Equal(%s, %s) = %v, reference %v", step, p.a, q.a, got, want)
				}
			}
		}
	}
}

// affineSeeds build bounds that occur in the corpus: Heat1D's i-1, i+2
// and n-1, RollingSum's [0, i+1), MatrixMultiply's c/2 and w-w/2,
// MergeSort's (n+1)/2, SummedArea's two-variable offsets.
var affineSeeds = [][]byte{
	{2, 0, 0, 7, 3, 0},                         // i + (-1)
	{2, 0, 0, 10, 3, 0},                        // i + 2
	{2, 2, 0, 9, 4, 0},                         // n - 1
	{2, 0, 0, 9, 3, 0, 7, 0, 2, 0, 4, 0},       // (i+1) - i: cancels to a constant
	{2, 4, 5, 2},                               // c * 1/2
	{2, 5, 7, 0, 5, 2, 4, 0},                   // w - w/2
	{2, 2, 0, 9, 3, 0, 5, 2},                   // (n+1)/2
	{2, 0, 2, 1, 3, 0, 0, 7, 3, 0, 6, 1, 6, 2}, // i+j-1, split twice
	{2, 6, 0, 7, 3, 0, 2, 0, 4, 0, 5, 0},       // -(t-1-i)
	{1, 3, 2, 3, 3, 0, 2, 2, 5, 5, 3, 0, 6, 7}, // fractions and three variables
}

// TestAffineMatchesReference runs the seeds and 2000 random programs.
func TestAffineMatchesReference(t *testing.T) {
	for _, s := range affineSeeds {
		runAffineOps(t, s)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		prog := make([]byte, 2*(4+rng.Intn(40)))
		rng.Read(prog)
		runAffineOps(t, prog)
	}
}

// FuzzAffineOps is the same comparison under go test -fuzz.
func FuzzAffineOps(f *testing.F) {
	for _, s := range affineSeeds {
		f.Add(s)
	}
	f.Fuzz(runAffineOps)
}
