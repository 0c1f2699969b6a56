// Package eigen implements the paper's symmetric eigenproblem benchmark
// (§4.2): QR iteration, bisection with inverse iteration, and
// divide-and-conquer for the symmetric tridiagonal eigenproblem, all
// from scratch (replacing the LAPACK routines the paper called), plus
// the generalized EIG transform whose tuned selector composes them.
package eigen

import (
	"math"
	"math/rand"

	"petabricks/internal/matrix"
)

// Tridiag is a symmetric tridiagonal matrix: D its diagonal (length n)
// and E its sub/super-diagonal (length n-1).
type Tridiag struct {
	D []float64
	E []float64
}

// N returns the order of the matrix.
func (t Tridiag) N() int { return len(t.D) }

// MulVec computes y = T·x.
func (t Tridiag) MulVec(x []float64) []float64 {
	n := t.N()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := t.D[i] * x[i]
		if i > 0 {
			s += t.E[i-1] * x[i-1]
		}
		if i+1 < n {
			s += t.E[i] * x[i+1]
		}
		y[i] = s
	}
	return y
}

// Gershgorin returns an interval certainly containing all eigenvalues.
func (t Tridiag) Gershgorin() (lo, hi float64) {
	n := t.N()
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.E[i-1])
		}
		if i+1 < n {
			r += math.Abs(t.E[i])
		}
		lo = math.Min(lo, t.D[i]-r)
		hi = math.Max(hi, t.D[i]+r)
	}
	return lo, hi
}

// Result is an eigendecomposition: Values sorted ascending, Vectors'
// column j the unit eigenvector for Values[j].
type Result struct {
	Values  []float64
	Vectors *matrix.Matrix
}

// Residual returns max_j ‖T·v_j − λ_j·v_j‖∞, a correctness measure.
func (r Result) Residual(t Tridiag) float64 {
	n := t.N()
	worst := 0.0
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x[i] = r.Vectors.At(i, j)
		}
		tx := t.MulVec(x)
		for i := 0; i < n; i++ {
			d := math.Abs(tx[i] - r.Values[j]*x[i])
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Orthogonality returns max_{i≠j} |v_i·v_j| and max_i |‖v_i‖−1|.
func (r Result) Orthogonality() (offDiag, normErr float64) {
	n := len(r.Values)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += r.Vectors.At(k, i) * r.Vectors.At(k, j)
			}
			if i == j {
				normErr = math.Max(normErr, math.Abs(dot-1))
			} else {
				offDiag = math.Max(offDiag, math.Abs(dot))
			}
		}
	}
	return offDiag, normErr
}

// sortResult sorts eigenpairs ascending by eigenvalue, in place.
func sortResult(r Result) Result {
	n := len(r.Values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort of the index permutation (n is moderate here).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && r.Values[idx[j]] < r.Values[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals := make([]float64, n)
	vecs := matrix.New(n, n)
	for j, src := range idx {
		vals[j] = r.Values[src]
		for i := 0; i < n; i++ {
			vecs.SetAt(i, j, r.Vectors.At(i, src))
		}
	}
	return Result{Values: vals, Vectors: vecs}
}

// Generate produces a random symmetric tridiagonal matrix, the paper's
// benchmark input.
func Generate(rng *rand.Rand, n int) Tridiag {
	t := Tridiag{D: make([]float64, n), E: make([]float64, maxInt(0, n-1))}
	for i := range t.D {
		t.D[i] = rng.Float64()*2 - 1
	}
	for i := range t.E {
		t.E[i] = rng.Float64()*2 - 1
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
