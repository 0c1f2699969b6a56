package symbolic

// Bound is an optional inclusive rational bound.
type Bound struct {
	Set bool
	Val Rat
}

// BoundAt returns a set bound with value v.
func BoundAt(v int64) Bound { return Bound{Set: true, Val: RatInt(v)} }

// VarBounds records the assumed inclusive range of one free variable.
type VarBounds struct {
	Lo Bound
	Hi Bound
}

// Assumptions maps free variables to their assumed ranges. The compiler
// assumes every transform size variable is >= 1 and every loop index is
// >= 0 unless a rule states otherwise.
type Assumptions map[string]VarBounds

// Order is the result of a symbolic comparison.
type Order int

// Possible comparison outcomes. OrderUnknown means the comparison cannot
// be decided from the assumptions alone.
const (
	OrderUnknown Order = iota
	OrderLT
	OrderLE
	OrderEQ
	OrderGE
	OrderGT
)

func (o Order) String() string {
	switch o {
	case OrderLT:
		return "<"
	case OrderLE:
		return "<="
	case OrderEQ:
		return "=="
	case OrderGE:
		return ">="
	case OrderGT:
		return ">"
	default:
		return "?"
	}
}

// rangeOfDiff computes the inclusive rational range [lo, hi] attainable
// by a − b under the assumptions; either end may be unbounded. It walks
// the two term lists once and never materializes the difference.
func rangeOfDiff(a, b Affine, assume Assumptions) (lo, hi Bound) {
	k := a.konst.Sub(b.konst)
	lo, hi = Bound{Set: true, Val: k}, Bound{Set: true, Val: k}
	i, j := 0, 0
	for i < len(a.terms) || j < len(b.terms) {
		var name string
		var c Rat
		switch {
		case j == len(b.terms) || (i < len(a.terms) && a.terms[i].name < b.terms[j].name):
			name, c = a.terms[i].name, a.terms[i].coef
			i++
		case i == len(a.terms) || b.terms[j].name < a.terms[i].name:
			name, c = b.terms[j].name, b.terms[j].coef.Neg()
			j++
		default:
			name, c = a.terms[i].name, a.terms[i].coef.Sub(b.terms[j].coef)
			i++
			j++
		}
		if c.IsZero() {
			continue
		}
		// Contribution range of c*name.
		vb := assume[name]
		cl, ch := vb.Lo, vb.Hi
		if c.Sign() < 0 {
			cl, ch = ch, cl
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

// Compare symbolically compares a and b under the assumptions. It decides
// the strongest order it can prove, or OrderUnknown. Affine expressions
// compare through interval analysis of their difference — one interval
// gives both directions, strict and not; min/max nodes compare
// structurally (min(x,…) ≤ b when some operand is ≤ b, and so on).
func Compare(a, b *Expr, assume Assumptions) Order {
	var lt, gt, le, ge bool
	if a.affine && b.affine {
		lo, hi := rangeOfDiff(a.aff, b.aff, assume)
		lt = hi.Set && hi.Val.Sign() < 0
		gt = lo.Set && lo.Val.Sign() > 0
		le = hi.Set && hi.Val.Sign() <= 0
		ge = lo.Set && lo.Val.Sign() >= 0
	} else {
		if a.Equal(b) {
			return OrderEQ
		}
		lt = leRec(a, b, assume, true)
		gt = !lt && leRec(b, a, assume, true)
		if !lt && !gt {
			le = leRec(a, b, assume, false)
			ge = leRec(b, a, assume, false)
		}
	}
	switch {
	case lt:
		return OrderLT
	case gt:
		return OrderGT
	case le && ge:
		return OrderEQ
	case le:
		return OrderLE
	case ge:
		return OrderGE
	}
	return OrderUnknown
}

// leRec proves a <= b (or a < b when strict) by affine interval analysis
// at the leaves and structural decomposition of min/max nodes.
func leRec(a, b *Expr, assume Assumptions, strict bool) bool {
	if a.affine && b.affine {
		_, hi := rangeOfDiff(a.aff, b.aff, assume)
		if !hi.Set {
			return false
		}
		if strict {
			return hi.Val.Sign() < 0
		}
		return hi.Val.Sign() <= 0
	}
	// Decompose a: min(xs) <= b if SOME x <= b; max(xs) <= b if ALL x <= b.
	switch a.op {
	case OpMin:
		for _, x := range a.args {
			if leRec(x, b, assume, strict) {
				return true
			}
		}
	case OpMax:
		all := len(a.args) > 0
		for _, x := range a.args {
			if !leRec(x, b, assume, strict) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	// Decompose b: a <= min(ys) if ALL a <= y; a <= max(ys) if SOME a <= y.
	switch b.op {
	case OpMin:
		all := len(b.args) > 0
		for _, y := range b.args {
			if !leRec(a, y, assume, strict) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	case OpMax:
		for _, y := range b.args {
			if leRec(a, y, assume, strict) {
				return true
			}
		}
	}
	return false
}

// ProvablyLE reports whether a <= b is provable under the assumptions.
func ProvablyLE(a, b *Expr, assume Assumptions) bool {
	switch Compare(a, b, assume) {
	case OrderLT, OrderLE, OrderEQ:
		return true
	}
	return false
}

// ProvablyGE reports whether a >= b is provable under the assumptions.
func ProvablyGE(a, b *Expr, assume Assumptions) bool {
	switch Compare(a, b, assume) {
	case OrderGT, OrderGE, OrderEQ:
		return true
	}
	return false
}

// SimplifyMinMax prunes dominated operands of min/max nodes using the
// assumptions, recursing into children. An affine node holds none and
// is returned as it is; other nodes are rebuilt with the standard
// constructors.
func SimplifyMinMax(e *Expr, assume Assumptions) *Expr {
	if e.affine {
		return e
	}
	args := make([]*Expr, len(e.args))
	for i, a := range e.args {
		args[i] = SimplifyMinMax(a, assume)
	}
	if e.op != OpMin && e.op != OpMax {
		return rebuild(e.op, args)
	}
	keep := make([]*Expr, 0, len(args))
	for i, x := range args {
		dominated := false
		for j, y := range args {
			if i == j {
				continue
			}
			ord := Compare(x, y, assume)
			if e.op == OpMin {
				// x dominated (removable) if x >= y. A provable GE
				// with the reverse also provable would have been EQ,
				// so GE needs no index guard; EQ keeps the first.
				if ord == OrderGT || ord == OrderGE || (ord == OrderEQ && j < i) {
					dominated = true
				}
			} else {
				if ord == OrderLT || ord == OrderLE || (ord == OrderEQ && j < i) {
					dominated = true
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			keep = append(keep, x)
		}
	}
	if len(keep) == 0 {
		// All mutually equal; keep the first.
		keep = args[:1]
	}
	return minMax(e.op, keep)
}
