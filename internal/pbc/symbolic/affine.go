package symbolic

import "strings"

// Affine is a normalized affine function over integer free variables:
// constant + Σ coeff·var. It is the canonical form the compiler reasons
// in; every region bound in a legal PetaBricks program normalizes to one.
//
// The terms are sorted by variable name, hold no zero coefficient and
// are never written after the value is built, so values share them
// freely: an operation whose other operand has no terms returns the
// same slice.
type Affine struct {
	konst Rat
	terms []term
}

type term struct {
	name string
	coef Rat
}

// AffineConst returns the affine function with only a constant part.
func AffineConst(v Rat) Affine { return Affine{konst: v} }

// AffineVar returns the affine function 1·name.
func AffineVar(name string) Affine {
	return Affine{terms: []term{{name: name, coef: RatInt(1)}}}
}

// Const returns the constant part.
func (a Affine) Const() Rat { return a.konst }

// Coeff returns the coefficient of the named variable (zero if absent).
func (a Affine) Coeff(name string) Rat {
	for _, t := range a.terms {
		if t.name == name {
			return t.coef
		}
	}
	return Rat{}
}

// Vars returns the sorted variable names with nonzero coefficients.
func (a Affine) Vars() []string {
	out := make([]string, len(a.terms))
	for i, t := range a.terms {
		out[i] = t.name
	}
	return out
}

// NumTerms returns the number of variables with nonzero coefficients.
func (a Affine) NumTerms() int { return len(a.terms) }

// Term returns the i-th variable in name order and its coefficient.
func (a Affine) Term(i int) (name string, coeff Rat) {
	return a.terms[i].name, a.terms[i].coef
}

// IsConst reports whether a has no variable terms.
func (a Affine) IsConst() bool { return len(a.terms) == 0 }

// Split separates the coefficients of the given variables from the
// rest, so that a == Σ coeffs[i]·vars[i] + rest. Variables absent from
// a (and empty names) get a zero coefficient; a duplicated name
// extracts once, at its first position. This is the extraction the
// interpreter's rule compiler uses to turn symbolic region bounds into
// per-loop-variable strides evaluated with integer multiply-adds.
func (a Affine) Split(vars []string) (coeffs []Rat, rest Affine) {
	coeffs = make([]Rat, len(vars))
	rest = a
	var kept []term // allocated at the first extraction
	for i, t := range a.terms {
		at := -1
		for j, v := range vars {
			if v == t.name && v != "" {
				at = j
				break
			}
		}
		switch {
		case at >= 0:
			coeffs[at] = t.coef
			if kept == nil {
				kept = append(make([]term, 0, len(a.terms)-1), a.terms[:i]...)
			}
		case kept != nil:
			kept = append(kept, t)
		}
	}
	if kept != nil {
		rest.terms = kept
	}
	return coeffs, rest
}

// IsZero reports whether a is identically zero.
func (a Affine) IsZero() bool { return a.IsConst() && a.konst.IsZero() }

// Add returns a + b.
func (a Affine) Add(b Affine) Affine { return a.addScaled(b, RatInt(1)) }

// Sub returns a - b.
func (a Affine) Sub(b Affine) Affine { return a.addScaled(b, RatInt(-1)) }

// Scale returns k·a.
func (a Affine) Scale(k Rat) Affine { return Affine{}.addScaled(a, k) }

// scaled returns k·c, skipping the arithmetic for the k == 1 of Add.
func scaled(c, k Rat) Rat {
	if k.isOne() {
		return c
	}
	return c.Mul(k)
}

// addScaled returns a + k·b in one merge of the two term lists.
func (a Affine) addScaled(b Affine, k Rat) Affine {
	if k.IsZero() {
		return a
	}
	out := Affine{konst: a.konst.Add(scaled(b.konst, k))}
	switch {
	case len(b.terms) == 0:
		out.terms = a.terms
	case len(a.terms) == 0 && k.isOne():
		out.terms = b.terms
	default:
		out.terms = mergeTerms(a.terms, b.terms, k)
	}
	return out
}

func mergeTerms(a, b []term, k Rat) []term {
	var out []term
	i, j := 0, 0
	// push allocates on the first surviving term, sized for what is left
	// to merge, so a difference that cancels (i+1 − i) allocates nothing.
	push := func(t term) {
		if out == nil {
			out = make([]term, 0, len(a)-i+len(b)-j)
		}
		out = append(out, t)
	}
	for i < len(a) && j < len(b) {
		switch ta, tb := a[i], b[j]; {
		case ta.name < tb.name:
			push(ta)
			i++
		case ta.name > tb.name:
			push(term{tb.name, scaled(tb.coef, k)})
			j++
		default:
			if c := ta.coef.Add(scaled(tb.coef, k)); !c.IsZero() {
				push(term{ta.name, c})
			}
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(term{b[j].name, scaled(b[j].coef, k)})
	}
	return out
}

// Equal reports whether a and b denote the same affine function.
func (a Affine) Equal(b Affine) bool {
	if !a.konst.eq(b.konst) || len(a.terms) != len(b.terms) {
		return false
	}
	for i, t := range a.terms {
		if u := b.terms[i]; t.name != u.name || !t.coef.eq(u.coef) {
			return false
		}
	}
	return true
}

// op is the root operator of a's canonical expression tree.
func (a Affine) op() Op {
	switch {
	case len(a.terms) == 0:
		return OpConst
	case len(a.terms) > 1 || !a.konst.IsZero():
		return OpAdd
	case a.terms[0].coef.isOne():
		return OpVar
	}
	return OpMul
}

// Expr returns the canonical expression for a: one node that carries a
// itself, whatever the number of terms.
func (a Affine) Expr() *Expr {
	if a.IsConst() {
		return ConstRat(a.konst)
	}
	return &Expr{op: a.op(), affine: true, aff: a}
}

// String renders the affine function, e.g. "i-1", "1/2*n+3".
func (a Affine) String() string {
	if a.IsConst() {
		return a.konst.String()
	}
	if a.op() == OpVar {
		return a.terms[0].name
	}
	var b strings.Builder
	for i, t := range a.terms {
		c := t.coef
		switch {
		case c.isOne():
			if i > 0 {
				b.WriteByte('+')
			}
		case c.eq(RatInt(-1)):
			b.WriteByte('-')
		default:
			if i > 0 && c.Sign() > 0 {
				b.WriteByte('+')
			}
			b.WriteString(c.String())
			b.WriteByte('*')
		}
		b.WriteString(t.name)
	}
	if !a.konst.IsZero() {
		if a.konst.Sign() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(a.konst.String())
	}
	return b.String()
}

// Affine returns e's affine normal form, which exists for the
// constant/var/add/mul-by-constant/div-by-constant fragment — all region
// arithmetic in the PetaBricks language. It is computed by the
// constructor that built e; this is a field read.
func (e *Expr) Affine() (Affine, bool) { return e.aff, e.affine }
