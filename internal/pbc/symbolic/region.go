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

// ProvablyEmpty reports whether End <= Begin is provable under the
// assumptions, i.e. the interval certainly contains no points.
func (i Interval) ProvablyEmpty(assume Assumptions) bool {
	return ProvablyLE(i.End, i.Begin, assume)
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
