// Package analysis implements the PetaBricks compiler's static analysis
// (§3.1): dependency normalization around rule centers, applicable
// region computation, choice-grid construction with rule priorities,
// choice dependency graph construction with direction/offset
// annotations, strongly-connected-component cycle elimination, deadlock
// detection (§3.6), and schedule extraction.
package analysis

import (
	"errors"
	"fmt"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/symbolic"
	"petabricks/internal/pbc/token"
)

// Error is an analysis error with source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos token.Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// toSymbolic converts the affine fragment of a header expression into a
// symbolic expression. Region arguments in legal PetaBricks programs are
// always affine in size and center variables.
func toSymbolic(e ast.Expr) (*symbolic.Expr, error) {
	a, err := toAffine(e)
	if err != nil {
		return nil, err
	}
	return a.Expr(), nil
}

// toAffine is toSymbolic in the affine domain: the whole conversion
// builds no intermediate expression.
func toAffine(e ast.Expr) (symbolic.Affine, error) {
	var none symbolic.Affine
	switch x := e.(type) {
	case *ast.Num:
		if x.Val != float64(int64(x.Val)) {
			return none, fmt.Errorf("non-integer constant %g in region expression", x.Val)
		}
		return symbolic.AffineConst(symbolic.RatInt(int64(x.Val))), nil
	case *ast.Ident:
		return symbolic.AffineVar(x.Name), nil
	case *ast.Unary:
		if x.Op != "-" {
			return none, fmt.Errorf("operator %q not allowed in region expressions", x.Op)
		}
		inner, err := toAffine(x.X)
		if err != nil {
			return none, err
		}
		return inner.Scale(symbolic.RatInt(-1)), nil
	case *ast.Binary:
		l, err := toAffine(x.L)
		if err != nil {
			return none, err
		}
		r, err := toAffine(x.R)
		if err != nil {
			return none, err
		}
		switch x.Op {
		case "+":
			return l.Add(r), nil
		case "-":
			return l.Sub(r), nil
		case "*":
			switch {
			case l.IsConst():
				return r.Scale(l.Const()), nil
			case r.IsConst():
				return l.Scale(r.Const()), nil
			}
			return none, fmt.Errorf("non-affine product in region expression")
		case "/":
			if !r.IsConst() {
				return none, fmt.Errorf("division by non-constant in region expression")
			}
			if r.Const().IsZero() {
				// Fuzzed inputs like `i / 0` or `i / (n - n)` must be a
				// clean front-end error.
				return none, fmt.Errorf("division by zero in region expression")
			}
			return l.Scale(symbolic.RatInt(1).Div(r.Const())), nil
		default:
			return none, fmt.Errorf("operator %q not allowed in region expressions", x.Op)
		}
	default:
		return none, fmt.Errorf("expression %s not allowed in region expressions", ast.ExprString(e))
	}
}

// comparisonBounds decomposes an affine comparison (from a where clause)
// into interval constraints on a single variable, when possible. The
// shift map applies the rule's center normalization before decomposing.
// Returns (variable, lo, hi) with either bound possibly nil; half-open
// convention [lo, hi).
func comparisonBounds(e ast.Expr, shift map[string]*symbolic.Expr) (string, *symbolic.Expr, *symbolic.Expr, error) {
	b, ok := e.(*ast.Binary)
	if !ok {
		return "", nil, nil, fmt.Errorf("where clause must be a comparison, got %s", ast.ExprString(e))
	}
	l, err := toSymbolic(b.L)
	if err != nil {
		return "", nil, nil, err
	}
	r, err := toSymbolic(b.R)
	if err != nil {
		return "", nil, nil, err
	}
	if len(shift) > 0 {
		l = l.Substitute(shift)
		r = r.Substitute(shift)
	}
	// Normalize to l - r REL 0.
	diff := symbolic.Sub(l, r)
	aff, ok2 := diff.Affine()
	if !ok2 {
		return "", nil, nil, fmt.Errorf("where clause is not affine")
	}
	vars := aff.Vars()
	// Pick the first variable as the bounded one; solve for it.
	if len(vars) == 0 {
		return "", nil, nil, fmt.Errorf("where clause has no variables")
	}
	v := vars[0]
	coef := aff.Coeff(v)
	rest := aff.Sub(symbolic.AffineVar(v).Scale(coef)) // diff = coef·v + rest
	// coef·v + rest REL 0  →  v REL' -rest/coef (flip for negative coef).
	bound := symbolic.Div(symbolic.Neg(rest.Expr()), symbolic.ConstRat(coef))
	op := b.Op
	if coef.Sign() < 0 {
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	one := symbolic.Const(1)
	switch op {
	case "<": // v < bound → hi = bound
		return v, nil, bound, nil
	case "<=": // v <= bound → hi = bound+1
		return v, nil, symbolic.Add(bound, one), nil
	case ">": // v > bound → lo = bound+1
		return v, symbolic.Add(bound, one), nil, nil
	case ">=":
		return v, bound, nil, nil
	case "==":
		return v, bound, symbolic.Add(bound, one), nil
	default:
		return "", nil, nil, fmt.Errorf("where operator %q unsupported", b.Op)
	}
}

// whereConstraints flattens a conjunction of comparisons.
func whereConstraints(e ast.Expr) ([]ast.Expr, error) {
	if b, ok := e.(*ast.Binary); ok && b.Op == "&&" {
		l, err := whereConstraints(b.L)
		if err != nil {
			return nil, err
		}
		r, err := whereConstraints(b.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	}
	return []ast.Expr{e}, nil
}

// ToSymbolic exposes the affine expression converter to sibling
// packages (the interpreter and code generator reuse it for region
// arguments in rule bodies). Like Analyze, it reports a constant fold
// that leaves 64 bits as an error.
func ToSymbolic(e ast.Expr) (se *symbolic.Expr, err error) {
	defer onOverflow(func(msg string) { se, err = nil, errors.New(msg) })
	return toSymbolic(e)
}

// ToAffine is ToSymbolic in the affine domain, for callers that split
// or render the affine form rather than evaluate an expression.
func ToAffine(e ast.Expr) (a symbolic.Affine, err error) {
	defer onOverflow(func(msg string) { a, err = symbolic.Affine{}, errors.New(msg) })
	return toAffine(e)
}

// onOverflow, deferred, recovers a symbolic.OverflowError panic and
// hands its rendering to report; any other panic continues.
func onOverflow(report func(msg string)) {
	switch r := recover().(type) {
	case nil:
	case *symbolic.OverflowError:
		report(fmt.Sprintf("region bound overflows 64-bit arithmetic (%s %s %s)", r.X, r.Op, r.Y))
	default:
		panic(r)
	}
}
