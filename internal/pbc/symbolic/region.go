package symbolic

import (
	"fmt"
	"strings"
)

// Interval is a half-open symbolic interval [Begin, End).
type Interval struct {
	Begin *Expr
	End   *Expr
}

// NewInterval returns the interval [begin, end).
func NewInterval(begin, end *Expr) Interval { return Interval{Begin: begin, End: end} }

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

// ProvablyEmpty reports whether End <= Begin is provable under the
// assumptions, i.e. the interval certainly contains no points.
func (i Interval) ProvablyEmpty(assume Assumptions) bool {
	return ProvablyLE(i.End, i.Begin, assume)
}

// ProvablyNonEmpty reports whether Begin < End is provable.
func (i Interval) ProvablyNonEmpty(assume Assumptions) bool {
	return ProvablyLT(i.Begin, i.End, assume)
}

// Simplify prunes min/max endpoints under the assumptions.
func (i Interval) Simplify(assume Assumptions) Interval {
	return Interval{
		Begin: SimplifyMinMax(i.Begin, assume),
		End:   SimplifyMinMax(i.End, assume),
	}
}

// Eval returns the concrete [lo, hi) under the bindings.
func (i Interval) Eval(env map[string]int64) (lo, hi int64, err error) {
	lo, err = i.Begin.Eval(env)
	if err != nil {
		return 0, 0, err
	}
	hi, err = i.End.Eval(env)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// String renders "[begin, end)".
func (i Interval) String() string {
	return fmt.Sprintf("[%s, %s)", i.Begin, i.End)
}

// Region is a rectilinear symbolic region: the product of one Interval per
// dimension. A zero-dimension region denotes a scalar.
type Region []Interval

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

// ProvablyEmpty reports whether any dimension is provably empty.
func (r Region) ProvablyEmpty(assume Assumptions) bool {
	for _, iv := range r {
		if iv.ProvablyEmpty(assume) {
			return true
		}
	}
	return false
}

// Simplify simplifies every interval under the assumptions.
func (r Region) Simplify(assume Assumptions) Region {
	out := make(Region, len(r))
	for d := range r {
		out[d] = r[d].Simplify(assume)
	}
	return out
}

// Substitute applies variable bindings to every endpoint.
func (r Region) Substitute(bind map[string]*Expr) Region {
	out := make(Region, len(r))
	for d, iv := range r {
		out[d] = Interval{Begin: iv.Begin.Substitute(bind), End: iv.End.Substitute(bind)}
	}
	return out
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

// String renders e.g. "[0, n)x[0, m)".
func (r Region) String() string {
	if len(r) == 0 {
		return "[scalar]"
	}
	parts := make([]string, len(r))
	for d, iv := range r {
		parts[d] = iv.String()
	}
	return strings.Join(parts, "x")
}
