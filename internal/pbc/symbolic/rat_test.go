package symbolic

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRatBasics(t *testing.T) {
	cases := []struct {
		a, b Rat
		add  string
		mul  string
	}{
		{RatInt(1), RatInt(2), "3", "2"},
		{RatFrac(1, 2), RatFrac(1, 3), "5/6", "1/6"},
		{RatFrac(-1, 2), RatFrac(1, 2), "0", "-1/4"},
		{RatFrac(2, 4), RatFrac(3, 6), "1", "1/4"},
	}
	for _, c := range cases {
		if got := c.a.Add(c.b).String(); got != c.add {
			t.Errorf("%v+%v = %s, want %s", c.a, c.b, got, c.add)
		}
		if got := c.a.Mul(c.b).String(); got != c.mul {
			t.Errorf("%v*%v = %s, want %s", c.a, c.b, got, c.mul)
		}
	}
}

func TestRatZeroValue(t *testing.T) {
	var z Rat
	if !z.IsZero() || !z.IsInt() || z.Int() != 0 {
		t.Fatalf("zero value Rat should be 0, got %v", z)
	}
	if got := z.Add(RatInt(5)); got.Cmp(RatInt(5)) != 0 {
		t.Fatalf("0+5 = %v", got)
	}
}

func TestRatNegativeDenominator(t *testing.T) {
	r := RatFrac(3, -6)
	if r.String() != "-1/2" {
		t.Fatalf("3/-6 normalized to %s, want -1/2", r)
	}
	if r.Den() != 2 {
		t.Fatalf("denominator %d, want 2", r.Den())
	}
}

func TestRatFloorCeil(t *testing.T) {
	cases := []struct {
		r          Rat
		floor, cel int64
	}{
		{RatFrac(7, 2), 3, 4},
		{RatFrac(-7, 2), -4, -3},
		{RatInt(5), 5, 5},
		{RatInt(-5), -5, -5},
		{RatFrac(1, 3), 0, 1},
		{RatFrac(-1, 3), -1, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("floor(%v) = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.cel {
			t.Errorf("ceil(%v) = %d, want %d", c.r, got, c.cel)
		}
	}
}

func TestRatCmpSign(t *testing.T) {
	if RatFrac(1, 3).Cmp(RatFrac(1, 2)) != -1 {
		t.Error("1/3 should compare < 1/2")
	}
	if RatFrac(-1, 3).Sign() != -1 || RatInt(0).Sign() != 0 || RatFrac(1, 9).Sign() != 1 {
		t.Error("Sign misbehaved")
	}
}

func TestRatDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dividing by zero")
		}
	}()
	_ = RatInt(1).Div(RatInt(0))
}

func TestRatFracPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero denominator")
		}
	}()
	_ = RatFrac(1, 0)
}

// Property: field axioms on a bounded domain.
func TestRatFieldProperties(t *testing.T) {
	clamp := func(x int64) int64 {
		x %= 1000
		return x
	}
	clampNZ := func(x int64) int64 {
		x = clamp(x)
		if x == 0 {
			return 1
		}
		return x
	}
	commut := func(an, ad, bn, bd int64) bool {
		a := RatFrac(clamp(an), clampNZ(ad))
		b := RatFrac(clamp(bn), clampNZ(bd))
		return a.Add(b).Cmp(b.Add(a)) == 0 && a.Mul(b).Cmp(b.Mul(a)) == 0
	}
	if err := quick.Check(commut, nil); err != nil {
		t.Error(err)
	}
	distrib := func(an, ad, bn, bd, cn, cd int64) bool {
		a := RatFrac(clamp(an), clampNZ(ad))
		b := RatFrac(clamp(bn), clampNZ(bd))
		c := RatFrac(clamp(cn), clampNZ(cd))
		return a.Mul(b.Add(c)).Cmp(a.Mul(b).Add(a.Mul(c))) == 0
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Error(err)
	}
	inverse := func(an, ad int64) bool {
		a := RatFrac(clampNZ(an), clampNZ(ad))
		return a.Mul(RatInt(1).Div(a)).Cmp(RatInt(1)) == 0
	}
	if err := quick.Check(inverse, nil); err != nil {
		t.Error(err)
	}
}

func TestRatFloorInverseOfInt(t *testing.T) {
	prop := func(x int64) bool {
		x %= 1 << 40
		return RatInt(x).Floor() == x && RatInt(x).Ceil() == x
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// mustOverflow runs f and requires it to panic with *OverflowError.
func mustOverflow(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if _, ok := r.(*OverflowError); !ok {
			t.Errorf("%s: recovered %v, want *OverflowError", what, r)
		}
	}()
	f()
}

// Rat arithmetic used to wrap silently and Compare went on to prove
// false orders from the wrapped value; every operation now either
// returns the exact result or panics with the typed error.
func TestRatOverflowIsTyped(t *testing.T) {
	max, min := RatInt(math.MaxInt64), RatInt(math.MinInt64)
	mustOverflow(t, "max+1", func() { max.Add(RatInt(1)) })
	mustOverflow(t, "min-1", func() { min.Sub(RatInt(1)) })
	mustOverflow(t, "2^62*4", func() { RatInt(1 << 62).Mul(RatInt(4)) })
	mustOverflow(t, "-min", func() { min.Neg() })
	mustOverflow(t, "1/min", func() { RatInt(1).Div(min) })
	mustOverflow(t, "RatFrac(1,min)", func() { RatFrac(1, math.MinInt64) })
	mustOverflow(t, "1/3+1/2^62", func() { RatFrac(1, 3).Add(RatFrac(1, 1<<62)) })
	mustOverflow(t, "Add(Const(max),Const(1))", func() { Add(Const(math.MaxInt64), Const(1)) })
	mustOverflow(t, "Mul(Const(2^62),Const(4))", func() { Mul(Const(1<<62), Const(4)) })
	mustOverflow(t, "Compare(max, -1)", func() { Compare(Const(math.MaxInt64), Const(-1), nil) })

	// What fits is exact, at the edges too.
	if got := max.Add(RatInt(-1)).Add(RatInt(1)); got.Cmp(max) != 0 {
		t.Errorf("max-1+1 = %v", got)
	}
	if got := min.Add(max); got.Cmp(RatInt(-1)) != 0 {
		t.Errorf("min+max = %v", got)
	}
	if got := RatInt(1 << 62).Mul(RatFrac(1, 2)); got.Cmp(RatInt(1<<61)) != 0 {
		t.Errorf("2^62/2 = %v", got)
	}
	if got := min.Mul(RatFrac(1, 2)); got.Cmp(RatInt(math.MinInt64/2)) != 0 {
		t.Errorf("min/2 = %v", got)
	}
	// Eval reports the same condition as an error.
	e := Add(Var("n"), Const(math.MaxInt64))
	if _, err := e.Eval(map[string]int64{"n": 1}); err == nil {
		t.Error("Eval(n+max, n=1) returned no error")
	} else if _, ok := err.(*OverflowError); !ok {
		t.Errorf("Eval error %v is not *OverflowError", err)
	}
}

// Cmp cross-multiplies in 128 bits and Sign reads the numerator:
// neither can overflow, whatever the operands.
func TestRatCmpNeverOverflows(t *testing.T) {
	if got := RatInt(math.MinInt64).Cmp(RatInt(1)); got != -1 {
		t.Errorf("Cmp(min, 1) = %d, want -1", got)
	}
	if got := RatInt(math.MaxInt64).Cmp(RatInt(math.MinInt64)); got != 1 {
		t.Errorf("Cmp(max, min) = %d, want 1", got)
	}
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 62, -3, -1, 0, 1, 2, 3, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	dens := []int64{1, 2, 3, 1 << 61, math.MaxInt64}
	var rats []Rat
	for _, n := range vals {
		for _, d := range dens {
			rats = append(rats, RatFrac(n, d))
		}
	}
	for _, a := range rats {
		ba := big.NewRat(a.Num(), a.Den())
		if got, want := a.Sign(), ba.Sign(); got != want {
			t.Errorf("Sign(%v) = %d, want %d", a, got, want)
		}
		for _, b := range rats {
			if got, want := a.Cmp(b), ba.Cmp(big.NewRat(b.Num(), b.Den())); got != want {
				t.Errorf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// Every Rat operation agrees with math/big where the result fits, and
// panics exactly where it does not.
func TestRatMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(17) - 8
		case 1:
			return rng.Int63n(1<<32) - 1<<31
		case 2:
			return rng.Int63() - rng.Int63()
		}
		return []int64{math.MinInt64, math.MaxInt64, 1 << 62, -1 << 62}[rng.Intn(4)]
	}
	fits := func(r *big.Rat) bool { return r.Num().IsInt64() && r.Denom().IsInt64() }
	for i := 0; i < 20000; i++ {
		an, ad, bn, bd := pick(), pick(), pick(), pick()
		if ad <= 0 || bd <= 0 {
			continue
		}
		a, b := RatFrac(an, ad), RatFrac(bn, bd)
		ba, bb := big.NewRat(an, ad), big.NewRat(bn, bd)
		ops := []struct {
			name string
			got  func() Rat
			want *big.Rat
		}{
			{"+", func() Rat { return a.Add(b) }, new(big.Rat).Add(ba, bb)},
			{"-", func() Rat { return a.Sub(b) }, new(big.Rat).Sub(ba, bb)},
			{"*", func() Rat { return a.Mul(b) }, new(big.Rat).Mul(ba, bb)},
		}
		if !b.IsZero() {
			ops = append(ops, struct {
				name string
				got  func() Rat
				want *big.Rat
			}{"/", func() Rat { return a.Div(b) }, new(big.Rat).Quo(ba, bb)})
		}
		for _, op := range ops {
			var got Rat
			panicked := func() (p bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(*OverflowError); !ok {
							panic(r)
						}
						p = true
					}
				}()
				got = op.got()
				return false
			}()
			switch {
			case panicked && fits(op.want):
				// Allowed only when an intermediate product left 64 bits;
				// integers never have one.
				if a.IsInt() && b.IsInt() && op.name != "/" {
					t.Fatalf("%v %s %v panicked, exact result %v fits", a, op.name, b, op.want)
				}
			case !panicked && !fits(op.want):
				t.Fatalf("%v %s %v = %v, exact result %v does not fit", a, op.name, b, got, op.want)
			case !panicked && big.NewRat(got.Num(), got.Den()).Cmp(op.want) != 0:
				t.Fatalf("%v %s %v = %v, want %v", a, op.name, b, got, op.want)
			}
		}
	}
}
