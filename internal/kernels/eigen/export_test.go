package eigen

import (
	"fmt"

	"petabricks/internal/matrix"
)

// DCBaseQR is the plain divide-and-conquer base case order: below it,
// the recursion hands off to QR. Pure D&C recursion uses 1 (recurse all
// the way down); LAPACK's dstevd effectively uses 25 — the paper's
// "Cutoff 25" baseline.
func DCBaseQR(cutoff int) func(Tridiag) (Result, error) {
	var solve func(Tridiag) (Result, error)
	solve = func(t Tridiag) (Result, error) {
		if t.N() <= cutoff {
			return QR(t)
		}
		return DivideConquerWith(t, solve)
	}
	return solve
}

// DivideConquerWith performs one divide-and-conquer step: split T into
// two half-size tridiagonal problems with a rank-one correction, solve
// the halves with solveSub (which may recurse, or may be the tuned EIG
// transform), and merge via the secular equation with deflation.
func DivideConquerWith(t Tridiag, solveSub func(Tridiag) (Result, error)) (Result, error) {
	n := t.N()
	switch n {
	case 0:
		return Result{Values: nil, Vectors: matrix.New(0, 0)}, nil
	case 1:
		v := matrix.New(1, 1)
		v.SetAt(0, 0, 1)
		return Result{Values: []float64{t.D[0]}, Vectors: v}, nil
	}
	t1, t2, beta := DCSplit(t)
	r1, err := solveSub(t1)
	if err != nil {
		return Result{}, err
	}
	r2, err := solveSub(t2)
	if err != nil {
		return Result{}, err
	}
	return DCMerge(r1, r2, beta)
}

// Validate checks the diagonal lengths are consistent.
func (t Tridiag) Validate() error {
	if len(t.E) != maxInt(0, len(t.D)-1) {
		return fmt.Errorf("eigen: off-diagonal length %d for order %d", len(t.E), len(t.D))
	}
	return nil
}
