package symbolic

import "fmt"

// CompareFourPass exposes the reference comparison of affine_ref_test.go
// to the external tests, which may import the packages built on this one.
var CompareFourPass = compareFourPass

// WithLo returns a copy of a with the lower bound of name set to lo.
func (a Assumptions) WithLo(name string, lo int64) Assumptions {
	out := make(Assumptions, len(a)+1)
	for k, v := range a {
		out[k] = v
	}
	vb := out[name]
	vb.Lo = BoundAt(lo)
	out[name] = vb
	return out
}

// WithRange returns a copy of a with name assumed to lie in [lo, hi].
func (a Assumptions) WithRange(name string, lo, hi int64) Assumptions {
	out := a.WithLo(name, lo)
	vb := out[name]
	vb.Hi = BoundAt(hi)
	out[name] = vb
	return out
}

// ProvablyLT reports whether a < b is provable under the assumptions.
func ProvablyLT(a, b *Expr, assume Assumptions) bool {
	return Compare(a, b, assume) == OrderLT
}

// VarName returns the variable name for an OpVar node.
func (e *Expr) VarName() string {
	if e.op != OpVar {
		return ""
	}
	return e.aff.terms[0].name
}

// ConstVal returns the rational value for an OpConst node.
func (e *Expr) ConstVal() Rat {
	if e.op != OpConst {
		return Rat{}
	}
	return e.aff.konst
}

// IntervalInt returns the concrete interval [lo, hi).
func IntervalInt(lo, hi int64) Interval { return Interval{Begin: Const(lo), End: Const(hi)} }

// Intersect returns the interval covering points in both i and o:
// [max(begins), min(ends)).
func (i Interval) Intersect(o Interval) Interval {
	return Interval{Begin: Max(i.Begin, o.Begin), End: Min(i.End, o.End)}
}

// Shift returns the interval translated by delta.
func (i Interval) Shift(delta *Expr) Interval {
	return Interval{Begin: Add(i.Begin, delta), End: Add(i.End, delta)}
}

// Equal reports symbolic equality of both endpoints.
func (i Interval) Equal(o Interval) bool {
	return i.Begin.Equal(o.Begin) && i.End.Equal(o.End)
}

// ProvablyNonEmpty reports whether Begin < End is provable.
func (i Interval) ProvablyNonEmpty(assume Assumptions) bool {
	return ProvablyLT(i.Begin, i.End, assume)
}

// NewRegion builds a region from intervals.
func NewRegion(ivs ...Interval) Region { return Region(ivs) }

// Dims returns the dimensionality.
func (r Region) Dims() int { return len(r) }

// Intersect returns the dimension-wise intersection. Both regions must
// have equal dimensionality.
func (r Region) Intersect(o Region) Region {
	if len(r) != len(o) {
		panic(fmt.Sprintf("symbolic: intersecting regions of dims %d and %d", len(r), len(o)))
	}
	out := make(Region, len(r))
	for d := range r {
		out[d] = r[d].Intersect(o[d])
	}
	return out
}

// Equal reports dimension-wise symbolic equality.
func (r Region) Equal(o Region) bool {
	if len(r) != len(o) {
		return false
	}
	for d := range r {
		if !r[d].Equal(o[d]) {
			return false
		}
	}
	return true
}

// Vars returns the sorted set of free variables in all endpoints.
func (r Region) Vars() []string {
	set := map[string]bool{}
	for _, iv := range r {
		iv.Begin.collectVars(set)
		iv.End.collectVars(set)
	}
	return sortedKeys(set)
}

// RatFrac returns the reduced rational num/den. It panics if den is zero.
func RatFrac(num, den int64) Rat {
	if den == 0 {
		panic("symbolic: rational with zero denominator")
	}
	r, ok := frac(num, den)
	if !ok {
		panic(&OverflowError{Op: "/", X: RatInt(num), Y: RatInt(den)})
	}
	return r
}

// Num returns the reduced numerator.
func (r Rat) Num() int64 { return r.num }

// Ceil returns the least integer >= r.
func (r Rat) Ceil() int64 {
	n, d := r.norm()
	q := n / d
	if n%d != 0 && n > 0 {
		q++
	}
	return q
}
