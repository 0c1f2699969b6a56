// Package symbolic implements the exact symbolic arithmetic used by the
// PetaBricks compiler for dependency normalization, applicable-region
// computation, and choice-grid construction.
//
// The original PetaBricks implementation delegated this reasoning to the
// Maxima computer algebra system. Every construct accepted by the
// PetaBricks front end produces affine expressions over the transform's
// free size variables, so this package implements, from scratch, exactly
// the affine fragment the compiler needs: exact rational arithmetic,
// expression simplification, substitution, sign analysis under variable
// bounds, and interval/region algebra with symbolic endpoints.
//
// Values are immutable and cheap: an affine form is a constant plus a
// name-sorted term slice (operations are single merges that share an
// operand's slice when the other has no terms), every expression carries
// its affine form from the constructor that built it, and comparing two
// affine expressions walks their terms once without allocating.
package symbolic

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Rat is an exact rational number with int64 numerator and denominator.
// The denominator is always positive and the fraction is always reduced;
// the zero value is the number 0. Arithmetic whose exact result does not
// fit panics with *OverflowError rather than wrap.
type Rat struct {
	num int64
	den int64 // 0 means 1 (so the zero value is 0/1)
}

// OverflowError is the panic value of Rat arithmetic (and of everything
// built on it: Affine, the Expr constructors, Compare) whose exact
// result needs more than 64 bits. A wrapped value would go on to prove
// false orders, so there is no silent fallback; analysis.Analyze
// recovers it into a positioned error and Eval returns it.
type OverflowError struct {
	Op   string // "+", "-", "*", "/"
	X, Y Rat
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("symbolic: %s %s %s overflows 64-bit arithmetic", e.X, e.Op, e.Y)
}

// RatInt returns the rational n/1.
func RatInt(n int64) Rat { return Rat{num: n, den: 1} }

// frac reduces num/den (den nonzero); ok is false when making the
// denominator positive would overflow.
func frac(num, den int64) (Rat, bool) {
	if den < 0 {
		if num == math.MinInt64 || den == math.MinInt64 {
			return Rat{}, false
		}
		num, den = -num, -den
	}
	if den == 1 {
		return Rat{num: num, den: 1}, true
	}
	if g := int64(gcd(absU(num), uint64(den))); g > 1 {
		num /= g
		den /= g
	}
	return Rat{num: num, den: den}, true
}

// absU returns |x| as a uint64, exact for math.MinInt64 too.
func absU(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// gcd returns the greatest common divisor, with gcd(0, 0) = 1.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// add64 and mul64 are int64 addition and multiplication that report
// whether the exact result fits.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0
}

func sub64(a, b int64) (int64, bool) {
	d := a - b
	return d, (a^b)&(a^d) >= 0
}

func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU(a), absU(b))
	if hi != 0 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), lo <= 1<<63
	}
	return int64(lo), lo <= math.MaxInt64
}

func (r Rat) norm() (num, den int64) {
	if r.den == 0 {
		return r.num, 1
	}
	return r.num, r.den
}

// Den returns the reduced (positive) denominator.
func (r Rat) Den() int64 { _, d := r.norm(); return d }

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.den <= 1 }

// isOne reports whether r == 1.
func (r Rat) isOne() bool { return r.num == 1 && r.den <= 1 }

// eq reports whether r == o; both are reduced, so fields decide.
func (r Rat) eq(o Rat) bool { return r.num == o.num && r.Den() == o.Den() }

// Int returns the integer value of r; it panics if r is not an integer.
func (r Rat) Int() int64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("symbolic: %s is not an integer", r))
	}
	return r.num
}

// Floor returns the greatest integer <= r.
func (r Rat) Floor() int64 {
	n, d := r.norm()
	q := n / d
	if n%d != 0 && n < 0 {
		q--
	}
	return q
}

// addSub returns r + o, or r - o when sub; ok is false on overflow.
func (r Rat) addSub(o Rat, sub bool) (Rat, bool) {
	rn, rd := r.norm()
	on, od := o.norm()
	ok := true
	if rd != 1 || od != 1 {
		var ok1, ok2 bool
		rn, ok1 = mul64(rn, od)
		on, ok2 = mul64(on, rd)
		rd, ok = mul64(rd, od)
		ok = ok && ok1 && ok2
	}
	var n int64
	var fits bool
	if sub {
		n, fits = sub64(rn, on)
	} else {
		n, fits = add64(rn, on)
	}
	if !ok || !fits {
		return Rat{}, false
	}
	return frac(n, rd)
}

// mul returns r * o; ok is false on overflow. Cross-reducing first keeps
// the products as small as the result allows.
func (r Rat) mul(o Rat) (Rat, bool) {
	rn, rd := r.norm()
	on, od := o.norm()
	if rd != 1 || od != 1 {
		g1 := int64(gcd(absU(rn), uint64(od)))
		g2 := int64(gcd(absU(on), uint64(rd)))
		rn, od = rn/g1, od/g1
		on, rd = on/g2, rd/g2
	}
	n, ok1 := mul64(rn, on)
	d, ok2 := mul64(rd, od)
	return Rat{num: n, den: d}, ok1 && ok2
}

// quo returns r / o for nonzero o; ok is false on overflow.
func (r Rat) quo(o Rat) (Rat, bool) {
	on, od := o.norm()
	inv, ok := frac(od, on)
	if !ok {
		return Rat{}, false
	}
	return r.mul(inv)
}

func overflow(op string, x, y Rat) Rat { panic(&OverflowError{Op: op, X: x, Y: y}) }

// Add returns r + o.
func (r Rat) Add(o Rat) Rat {
	if s, ok := r.addSub(o, false); ok {
		return s
	}
	return overflow("+", r, o)
}

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat {
	if d, ok := r.addSub(o, true); ok {
		return d
	}
	return overflow("-", r, o)
}

// Neg returns -r.
func (r Rat) Neg() Rat {
	if r.num == math.MinInt64 {
		return overflow("-", Rat{}, r)
	}
	return Rat{num: -r.num, den: r.den}
}

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	if p, ok := r.mul(o); ok {
		return p
	}
	return overflow("*", r, o)
}

// Div returns r / o. It panics if o is zero.
func (r Rat) Div(o Rat) Rat {
	if o.IsZero() {
		panic("symbolic: division by zero")
	}
	if q, ok := r.quo(o); ok {
		return q
	}
	return overflow("/", r, o)
}

// Cmp compares r and o, returning -1, 0, or +1. It compares the 128-bit
// cross products, so it cannot overflow.
func (r Rat) Cmp(o Rat) int {
	rn, rd := r.norm()
	on, od := o.norm()
	if rd == od || (rn < 0) != (on < 0) {
		return cmp.Compare(rn, on)
	}
	// Same sign, different denominators: order the magnitudes.
	h1, l1 := bits.Mul64(absU(rn), uint64(od))
	h2, l2 := bits.Mul64(absU(on), uint64(rd))
	c := cmp.Compare(h1, h2)
	if c == 0 {
		c = cmp.Compare(l1, l2)
	}
	if rn < 0 {
		return -c
	}
	return c
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int { return cmp.Compare(r.num, 0) }

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	n, d := r.norm()
	if d == 1 {
		return strconv.FormatInt(n, 10)
	}
	return strconv.FormatInt(n, 10) + "/" + strconv.FormatInt(d, 10)
}
