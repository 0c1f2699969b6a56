package symbolic

import (
	"fmt"
	"sort"
	"strings"
)

// Op identifies the operator at the root of an expression node.
type Op int

// Expression operators.
const (
	OpConst Op = iota // rational constant
	OpVar             // free variable (a transform size variable or rule index)
	OpAdd             // n-ary sum
	OpMul             // n-ary product
	OpDiv             // exact division (denominator must simplify to a constant)
	OpMin             // n-ary minimum
	OpMax             // n-ary maximum
)

func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Expr is an immutable symbolic expression over integer-valued free
// variables. Expressions are built with the package constructors, which
// eagerly simplify, so structurally different but equal affine
// expressions compare equal with Equal.
//
// An expression is one of two things, decided by the constructor that
// builds it and never changed afterwards (engine views read shared
// expressions concurrently): an affine node, which is its normal form
// and nothing else, or a tree node whose operator no affine form covers
// (min, max, a product of variables, a sum with such an operand).
type Expr struct {
	op     Op
	affine bool
	aff    Affine  // the normal form of an affine node
	args   []*Expr // the operands of a tree node
}

// Op returns the root operator; for an affine node, that of its
// canonical tree (terms in name order, then the constant).
func (e *Expr) Op() Op { return e.op }

// Args returns the operand list (nil for constants and variables).
// The returned slice must not be modified. An affine node builds its
// canonical operands on request.
func (e *Expr) Args() []*Expr {
	if !e.affine {
		return e.args
	}
	switch e.op {
	case OpMul:
		return []*Expr{ConstRat(e.aff.terms[0].coef), Var(e.aff.terms[0].name)}
	case OpAdd:
		args := make([]*Expr, 0, len(e.aff.terms)+1)
		for i := range e.aff.terms {
			args = append(args, Affine{terms: e.aff.terms[i : i+1]}.Expr())
		}
		if !e.aff.konst.IsZero() {
			args = append(args, ConstRat(e.aff.konst))
		}
		return args
	}
	return nil
}

// smallConsts holds the constant expressions for the integers a
// program's region arithmetic is mostly made of, so building one does
// not allocate. Filled once, before anything can read it.
var smallConsts = func() (t [33]Expr) {
	for i := range t {
		t[i] = Expr{op: OpConst, affine: true, aff: Affine{konst: RatInt(int64(i) - 16)}}
	}
	return t
}()

var zeroExpr = &smallConsts[16]

// Const returns the constant expression v.
func Const(v int64) *Expr { return ConstRat(RatInt(v)) }

// ConstRat returns the constant expression v.
func ConstRat(v Rat) *Expr {
	if v.IsInt() && v.num >= -16 && v.num <= 16 {
		return &smallConsts[v.num+16]
	}
	return &Expr{op: OpConst, affine: true, aff: Affine{konst: v}}
}

// Var returns the free variable named name.
func Var(name string) *Expr {
	// The node and its one term are a single allocation.
	v := &struct {
		e Expr
		t [1]term
	}{}
	v.t[0] = term{name: name, coef: RatInt(1)}
	v.e = Expr{op: OpVar, affine: true, aff: Affine{terms: v.t[:]}}
	return &v.e
}

// IsConst reports whether e is a constant, returning its value when so.
func (e *Expr) IsConst() (Rat, bool) {
	if e.op == OpConst {
		return e.aff.konst, true
	}
	return Rat{}, false
}

// sum returns the expression for rest[0]+rest[1]+…+aff, where no
// operand in rest is affine.
func sum(rest []*Expr, aff Affine) *Expr {
	if len(rest) == 0 {
		return aff.Expr()
	}
	if !aff.IsZero() {
		rest = append(rest, aff.Expr())
	}
	if len(rest) == 1 {
		return rest[0]
	}
	return &Expr{op: OpAdd, args: rest}
}

// Add returns the simplified sum of the operands.
func Add(xs ...*Expr) *Expr {
	var aff Affine
	var rest []*Expr
	for _, x := range xs {
		if x.affine {
			aff = aff.Add(x.aff)
		} else {
			rest = append(rest, x)
		}
	}
	return sum(rest, aff)
}

// Sub returns a - b, simplified.
func Sub(a, b *Expr) *Expr {
	if a.affine && b.affine {
		return a.aff.Sub(b.aff).Expr()
	}
	return Add(a, Neg(b))
}

// Neg returns -a, simplified.
func Neg(a *Expr) *Expr { return scale(a, RatInt(-1)) }

// scale returns c·x for nonzero c.
func scale(x *Expr, c Rat) *Expr {
	switch {
	case c.isOne():
		return x
	case x.affine:
		return x.aff.Scale(c).Expr()
	}
	return &Expr{op: OpMul, args: []*Expr{ConstRat(c), x}}
}

// Mul returns the simplified product of the operands.
func Mul(xs ...*Expr) *Expr {
	c := RatInt(1)
	var rest []*Expr
	for _, x := range xs {
		if v, ok := x.IsConst(); ok {
			c = c.Mul(v)
		} else {
			rest = append(rest, x)
		}
	}
	if c.IsZero() {
		return zeroExpr
	}
	if len(rest) == 0 {
		return ConstRat(c)
	}
	// Scale an affine operand by the constant factor when that is the
	// whole product; this keeps i*2, (n+1)/2 etc. in canonical form.
	if len(rest) == 1 {
		return scale(rest[0], c)
	}
	if !c.isOne() {
		rest = append([]*Expr{ConstRat(c)}, rest...)
	}
	return &Expr{op: OpMul, args: rest}
}

// Div returns a/b. b must simplify to a nonzero constant; PetaBricks
// region arithmetic only ever divides by literal constants (e.g. c/2).
func Div(a, b *Expr) *Expr {
	v, ok := b.IsConst()
	if !ok {
		return &Expr{op: OpDiv, args: []*Expr{a, b}}
	}
	if v.IsZero() {
		panic("symbolic: division by zero expression")
	}
	return scale(a, RatInt(1).Div(v))
}

// Min returns the simplified minimum of the operands.
func Min(xs ...*Expr) *Expr { return minMax(OpMin, xs) }

// Max returns the simplified maximum of the operands.
func Max(xs ...*Expr) *Expr { return minMax(OpMax, xs) }

func minMax(op Op, xs []*Expr) *Expr {
	if len(xs) == 0 {
		panic("symbolic: empty min/max")
	}
	// Flatten nested nodes of the same op and drop duplicates.
	var buf [8]*Expr
	uniq := buf[:0]
	add := func(x *Expr) {
		for _, u := range uniq {
			if u.Equal(x) {
				return
			}
		}
		uniq = append(uniq, x)
	}
	for _, x := range xs {
		if x.op == op {
			for _, y := range x.args {
				add(y)
			}
		} else {
			add(x)
		}
	}
	if len(uniq) == 1 {
		return uniq[0]
	}
	return &Expr{op: op, args: append([]*Expr(nil), uniq...)}
}

// Equal reports structural equality after canonicalization. Affine
// expressions that denote the same function always compare equal.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e.affine || o.affine {
		// A tree node holds an operator no affine tree contains.
		return e.affine && o.affine && e.aff.Equal(o.aff)
	}
	if e.op != o.op || len(e.args) != len(o.args) {
		return false
	}
	for i := range e.args {
		if !e.args[i].Equal(o.args[i]) {
			return false
		}
	}
	return true
}

// Vars returns the sorted set of free-variable names in e.
func (e *Expr) Vars() []string {
	if e.affine {
		return e.aff.Vars()
	}
	set := map[string]bool{}
	e.collectVars(set)
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectVars(set map[string]bool) {
	for _, t := range e.aff.terms {
		set[t.name] = true
	}
	for _, a := range e.args {
		a.collectVars(set)
	}
}

// Substitute replaces every occurrence of the named variables with the
// given expressions and re-simplifies.
func (e *Expr) Substitute(bind map[string]*Expr) *Expr {
	if e.affine {
		return e.substituteAffine(bind)
	}
	var args []*Expr // a copy of e.args, made when the first operand changes
	for i, a := range e.args {
		s := a.Substitute(bind)
		if s == a {
			continue
		}
		if args == nil {
			args = append([]*Expr(nil), e.args...)
		}
		args[i] = s
	}
	if args == nil {
		return e // nothing bound occurs in e
	}
	return rebuild(e.op, args)
}

// rebuild applies op's constructor to already simplified operands.
func rebuild(op Op, args []*Expr) *Expr {
	switch op {
	case OpAdd:
		return Add(args...)
	case OpMul:
		return Mul(args...)
	case OpDiv:
		return Div(args[0], args[1])
	case OpMin, OpMax:
		return minMax(op, args)
	}
	panic(fmt.Sprintf("symbolic: unknown op %v", op))
}

// substituteAffine substitutes into the terms directly: the result is
// konst + Σ coef·bind[name], merged as affine forms wherever the bound
// expressions are affine.
func (e *Expr) substituteAffine(bind map[string]*Expr) *Expr {
	first := -1
	for i, t := range e.aff.terms {
		if _, ok := bind[t.name]; ok {
			first = i
			break
		}
	}
	if first < 0 {
		return e
	}
	acc := Affine{konst: e.aff.konst, terms: e.aff.terms[:first]}
	var rest []*Expr
	for i := first; i < len(e.aff.terms); i++ {
		t := e.aff.terms[i]
		r, ok := bind[t.name]
		switch {
		case !ok:
			acc = acc.Add(Affine{terms: e.aff.terms[i : i+1]})
		case r.affine:
			acc = acc.addScaled(r.aff, t.coef)
		default:
			rest = append(rest, scale(r, t.coef))
		}
	}
	return sum(rest, acc)
}

// Eval evaluates e with integer variable bindings. Non-integer
// intermediate results (from divisions like c/2) are floored, matching
// the integer region semantics of the runtime. Eval reports an error for
// unbound variables, and an *OverflowError when a value leaves int64.
func (e *Expr) Eval(env map[string]int64) (int64, error) {
	r, err := e.evalRat(env)
	if err != nil {
		return 0, err
	}
	return r.Floor(), nil
}

// Eval evaluates a as Expr.Eval evaluates a's expression.
func (a Affine) Eval(env map[string]int64) (int64, error) {
	r, err := a.evalRat(env)
	if err != nil {
		return 0, err
	}
	return r.Floor(), nil
}

func (a Affine) evalRat(env map[string]int64) (Rat, error) {
	acc := a.konst
	for _, t := range a.terms {
		v, ok := env[t.name]
		if !ok {
			return Rat{}, fmt.Errorf("symbolic: unbound variable %q", t.name)
		}
		p, ok := t.coef.mul(RatInt(v))
		if !ok {
			return Rat{}, &OverflowError{Op: "*", X: t.coef, Y: RatInt(v)}
		}
		s, ok := acc.addSub(p, false)
		if !ok {
			return Rat{}, &OverflowError{Op: "+", X: acc, Y: p}
		}
		acc = s
	}
	return acc, nil
}

func (e *Expr) evalRat(env map[string]int64) (Rat, error) {
	if e.affine {
		return e.aff.evalRat(env)
	}
	acc, err := e.args[0].evalRat(env)
	if err != nil {
		return Rat{}, err
	}
	for _, a := range e.args[1:] {
		v, err := a.evalRat(env)
		if err != nil {
			return Rat{}, err
		}
		r, sym, ok := acc, "", true
		switch e.op {
		case OpAdd:
			r, ok = acc.addSub(v, false)
			sym = "+"
		case OpMul:
			r, ok = acc.mul(v)
			sym = "*"
		case OpDiv:
			if v.IsZero() {
				return Rat{}, fmt.Errorf("symbolic: division by zero")
			}
			r, ok = acc.quo(v)
			sym = "/"
		case OpMin:
			if v.Cmp(acc) < 0 {
				r = v
			}
		case OpMax:
			if v.Cmp(acc) > 0 {
				r = v
			}
		default:
			return Rat{}, fmt.Errorf("symbolic: unknown op %v", e.op)
		}
		if !ok {
			return Rat{}, &OverflowError{Op: sym, X: acc, Y: v}
		}
		acc = r
	}
	return acc, nil
}

// String renders the expression in conventional infix notation, e.g.
// "i-1", "n/2", "max(0, i-1)".
func (e *Expr) String() string {
	if e.affine {
		return e.aff.String()
	}
	parts := make([]string, len(e.args))
	for i, x := range e.args {
		parts[i] = x.String()
	}
	switch e.op {
	case OpAdd:
		return strings.Join(parts, "+")
	case OpMul:
		for i, x := range e.args {
			if x.op == OpAdd {
				parts[i] = "(" + parts[i] + ")"
			}
		}
		return strings.Join(parts, "*")
	case OpDiv:
		if op := e.args[0].op; op == OpAdd || op == OpMul {
			parts[0] = "(" + parts[0] + ")"
		}
		return parts[0] + "/" + parts[1]
	case OpMin:
		return "min(" + strings.Join(parts, ", ") + ")"
	case OpMax:
		return "max(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}
