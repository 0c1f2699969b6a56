package symbolic

import (
	"sort"
	"strings"
)

// This file keeps the map-backed affine form this package used before
// it moved to a name-sorted term slice, as the reference the
// differential tests drive the slice-backed Affine against. It is test
// code only; nothing outside _test.go files may use it.

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// refAffine is a normalized affine function over integer free variables:
// constant + Σ coeff·var. It is the canonical form the compiler reasons
// in; every region bound in a legal PetaBricks program normalizes to one.
type refAffine struct {
	konst Rat
	terms map[string]Rat // never holds zero coefficients
}

func newRefAffine() refAffine { return refAffine{terms: map[string]Rat{}} }

// refAffineConst returns the affine function with only a constant part.
func refAffineConst(v Rat) refAffine {
	a := newRefAffine()
	a.konst = v
	return a
}

// refAffineVar returns the affine function 1·name.
func refAffineVar(name string) refAffine {
	a := newRefAffine()
	a.terms[name] = RatInt(1)
	return a
}

// Const returns the constant part.
func (a refAffine) Const() Rat { return a.konst }

// Coeff returns the coefficient of the named variable (zero if absent).
func (a refAffine) Coeff(name string) Rat { return a.terms[name] }

// Vars returns the sorted variable names with nonzero coefficients.
func (a refAffine) Vars() []string {
	out := make([]string, 0, len(a.terms))
	for v := range a.terms {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// IsConst reports whether a has no variable terms.
func (a refAffine) IsConst() bool { return len(a.terms) == 0 }

// Split separates the coefficients of the given variables from the
// rest, so that a == Σ coeffs[i]·vars[i] + rest. Variables absent from
// a (and empty names) get a zero coefficient. This is the extraction
// the interpreter's rule compiler uses to turn symbolic region bounds
// into per-loop-variable strides evaluated with integer multiply-adds.
func (a refAffine) Split(vars []string) (coeffs []Rat, rest refAffine) {
	coeffs = make([]Rat, len(vars))
	rest = a
	for i, v := range vars {
		if v == "" {
			continue
		}
		// Read from rest, not a, so a duplicated name extracts once.
		c := rest.Coeff(v)
		if c.IsZero() {
			continue
		}
		coeffs[i] = c
		rest = rest.Sub(refAffineVar(v).Scale(c))
	}
	return coeffs, rest
}

// IsZero reports whether a is identically zero.
func (a refAffine) IsZero() bool { return a.IsConst() && a.konst.IsZero() }

// Add returns a + b.
func (a refAffine) Add(b refAffine) refAffine {
	out := newRefAffine()
	out.konst = a.konst.Add(b.konst)
	for v, c := range a.terms {
		out.terms[v] = c
	}
	for v, c := range b.terms {
		s := out.terms[v].Add(c)
		if s.IsZero() {
			delete(out.terms, v)
		} else {
			out.terms[v] = s
		}
	}
	return out
}

// Sub returns a - b.
func (a refAffine) Sub(b refAffine) refAffine { return a.Add(b.Scale(RatInt(-1))) }

// Scale returns k·a.
func (a refAffine) Scale(k Rat) refAffine {
	out := newRefAffine()
	if k.IsZero() {
		return out
	}
	out.konst = a.konst.Mul(k)
	for v, c := range a.terms {
		out.terms[v] = c.Mul(k)
	}
	return out
}

// Equal reports whether a and b denote the same affine function.
func (a refAffine) Equal(b refAffine) bool {
	if a.konst.Cmp(b.konst) != 0 || len(a.terms) != len(b.terms) {
		return false
	}
	for v, c := range a.terms {
		if b.terms[v].Cmp(c) != 0 {
			return false
		}
	}
	return true
}

// exprShape describes the canonical expression tree the map-backed form
// built for a — "add(v(i),mul(c(2),v(n)),c(3))" — in the notation of
// shapeOf, so trees are compared without sharing a constructor.
func (a refAffine) exprShape() string {
	if a.IsConst() {
		return "c(" + a.konst.String() + ")"
	}
	termShape := func(v string) string {
		if c := a.terms[v]; c.Cmp(RatInt(1)) != 0 {
			return "mul(c(" + c.String() + "),v(" + v + "))"
		}
		return "v(" + v + ")"
	}
	if a.konst.IsZero() && len(a.terms) == 1 {
		return termShape(a.Vars()[0])
	}
	var parts []string
	for _, v := range a.Vars() {
		parts = append(parts, termShape(v))
	}
	if !a.konst.IsZero() {
		parts = append(parts, "c("+a.konst.String()+")")
	}
	return "add(" + strings.Join(parts, ",") + ")"
}

// shapeOf describes an expression tree through the exported accessors.
func shapeOf(e *Expr) string {
	switch e.Op() {
	case OpConst:
		return "c(" + e.ConstVal().String() + ")"
	case OpVar:
		return "v(" + e.VarName() + ")"
	}
	parts := make([]string, len(e.Args()))
	for i, x := range e.Args() {
		parts[i] = shapeOf(x)
	}
	return e.Op().String() + "(" + strings.Join(parts, ",") + ")"
}

// String renders the affine function, e.g. "i-1", "1/2*n+3".
func (a refAffine) String() string {
	if a.IsConst() {
		return a.konst.String()
	}
	var b strings.Builder
	first := true
	for _, v := range a.Vars() {
		c := a.terms[v]
		switch {
		case first && c.Cmp(RatInt(1)) == 0:
			b.WriteString(v)
		case first && c.Cmp(RatInt(-1)) == 0:
			b.WriteString("-" + v)
		case first:
			b.WriteString(c.String() + "*" + v)
		case c.Sign() > 0 && c.Cmp(RatInt(1)) == 0:
			b.WriteString("+" + v)
		case c.Cmp(RatInt(-1)) == 0:
			b.WriteString("-" + v)
		case c.Sign() > 0:
			b.WriteString("+" + c.String() + "*" + v)
		default:
			b.WriteString(c.String() + "*" + v)
		}
		first = false
	}
	if !a.konst.IsZero() {
		if a.konst.Sign() > 0 {
			b.WriteString("+")
		}
		b.WriteString(a.konst.String())
	}
	return b.String()
}

// refAffineOf copies an Affine into the reference form.
func refAffineOf(a Affine) refAffine {
	out := refAffineConst(a.Const())
	for i := 0; i < a.NumTerms(); i++ {
		name, c := a.Term(i)
		out.terms[name] = c
	}
	return out
}

// refRangeOf is the interval analysis Compare ran on a materialized
// difference before rangeOfDiff walked the two term lists in place.
func refRangeOf(a refAffine, assume Assumptions) (lo, hi Bound) {
	lo = Bound{Set: true, Val: a.konst}
	hi = Bound{Set: true, Val: a.konst}
	for v, c := range a.terms {
		vb := assume[v]
		var cl, ch Bound
		if c.Sign() > 0 {
			cl, ch = vb.Lo, vb.Hi
		} else {
			cl, ch = vb.Hi, vb.Lo
		}
		if lo.Set && cl.Set {
			lo.Val = lo.Val.Add(c.Mul(cl.Val))
		} else {
			lo.Set = false
		}
		if hi.Set && ch.Set {
			hi.Val = hi.Val.Add(c.Mul(ch.Val))
		} else {
			hi.Set = false
		}
	}
	return lo, hi
}

// compareFourPass is Compare as it stood before one interval decided an
// affine pair: an equality check, then up to four one-sided proofs that
// each re-derive both operands.
func compareFourPass(a, b *Expr, assume Assumptions) Order {
	if a.Equal(b) {
		return OrderEQ
	}
	lt := refLeRec(a, b, assume, true)
	gt := refLeRec(b, a, assume, true)
	switch {
	case lt:
		return OrderLT
	case gt:
		return OrderGT
	}
	le := refLeRec(a, b, assume, false)
	ge := refLeRec(b, a, assume, false)
	switch {
	case le && ge:
		return OrderEQ
	case le:
		return OrderLE
	case ge:
		return OrderGE
	}
	return OrderUnknown
}

func refLeRec(a, b *Expr, assume Assumptions, strict bool) bool {
	if aa, aok := a.Affine(); aok {
		if ba, bok := b.Affine(); bok {
			_, hi := refRangeOf(refAffineOf(aa).Sub(refAffineOf(ba)), assume)
			if !hi.Set {
				return false
			}
			if strict {
				return hi.Val.Sign() < 0
			}
			return hi.Val.Sign() <= 0
		}
	}
	all := func(n int, le func(i int) bool) bool {
		for i := 0; i < n; i++ {
			if !le(i) {
				return false
			}
		}
		return n > 0
	}
	some := func(n int, le func(i int) bool) bool {
		for i := 0; i < n; i++ {
			if le(i) {
				return true
			}
		}
		return false
	}
	xs, ys := a.Args(), b.Args()
	leftOf := func(i int) bool { return refLeRec(xs[i], b, assume, strict) }
	rightOf := func(i int) bool { return refLeRec(a, ys[i], assume, strict) }
	// min(xs) <= b if SOME x <= b; max(xs) <= b if ALL x <= b.
	if (a.Op() == OpMin && some(len(xs), leftOf)) || (a.Op() == OpMax && all(len(xs), leftOf)) {
		return true
	}
	// a <= min(ys) if ALL a <= y; a <= max(ys) if SOME a <= y.
	return (b.Op() == OpMin && all(len(ys), rightOf)) || (b.Op() == OpMax && some(len(ys), rightOf))
}
