// Package poisson implements the paper's Poisson-equation benchmark
// (§4.1): the direct band-Cholesky solver (the DPBSV substitute), Jacobi
// iteration, Red-Black SOR with the split red/black storage layout the
// paper describes, the multigrid V-cycle, and the variable-accuracy
// POISSONi/MULTIGRIDi family (§4.1.4) together with its
// dynamic-programming autotuner (§4.1.3).
//
// Grids are square N×N matrices with N = 2^k + 1, Dirichlet boundary
// (the border is held fixed at zero), and the 5-point stencil operator
// A·x = 4·x[i][j] − x[i±1][j] − x[i][j±1] applied to interior cells, so
// the right-hand side carries the h² factor.
package poisson

import (
	"fmt"
	"math"
	"math/rand"

	"petabricks/internal/matrix"
)

// LevelOf returns k for N = 2^k + 1, or an error for other sizes.
func LevelOf(n int) (int, error) {
	if n < 3 {
		return 0, fmt.Errorf("poisson: grid size %d too small", n)
	}
	k := 0
	for m := n - 1; m > 1; m /= 2 {
		if m%2 != 0 {
			return 0, fmt.Errorf("poisson: grid size %d is not 2^k+1", n)
		}
		k++
	}
	return k, nil
}

// SizeOfLevel returns N = 2^k + 1.
func SizeOfLevel(k int) int { return (1 << k) + 1 }

// ApplyOperator computes out = A·x on interior cells (border zeroed).
func ApplyOperator(out, x *matrix.Matrix) {
	n := x.Size(0)
	out.Fill(0)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			out.SetAt(i, j, 4*x.At(i, j)-x.At(i-1, j)-x.At(i+1, j)-x.At(i, j-1)-x.At(i, j+1))
		}
	}
}

// Residual computes r = b − A·x on interior cells.
func Residual(r, x, b *matrix.Matrix) {
	n := x.Size(0)
	r.Fill(0)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			ax := 4*x.At(i, j) - x.At(i-1, j) - x.At(i+1, j) - x.At(i, j-1) - x.At(i, j+1)
			r.SetAt(i, j, b.At(i, j)-ax)
		}
	}
}

// ErrorVs returns the RMS of (x − ref) over interior cells.
func ErrorVs(x, ref *matrix.Matrix) float64 {
	n := x.Size(0)
	sum := 0.0
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			d := x.At(i, j) - ref.At(i, j)
			sum += d * d
		}
	}
	cnt := float64((n - 2) * (n - 2))
	return math.Sqrt(sum / cnt)
}

// Problem is a Poisson instance with a known exact solution, as the
// training generator produces (b is manufactured from Exact, so tuning
// can measure true accuracy, matching the paper's "representative
// training data" assumption).
type Problem struct {
	N     int
	B     *matrix.Matrix
	Exact *matrix.Matrix
}

// Generate builds a random problem of size N = 2^k+1: a random smooth-ish
// exact solution with zero boundary and the matching right-hand side.
func Generate(rng *rand.Rand, n int) Problem {
	if _, err := LevelOf(n); err != nil {
		panic(err)
	}
	exact := matrix.New(n, n)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			exact.SetAt(i, j, rng.Float64()*2-1)
		}
	}
	b := matrix.New(n, n)
	ApplyOperator(b, exact)
	return Problem{N: n, B: b, Exact: exact}
}

// Restrict performs full-weighting restriction from a fine grid
// (size 2^k+1) to the coarse grid (size 2^(k-1)+1).
func Restrict(coarse, fine *matrix.Matrix) {
	nc := coarse.Size(0)
	coarse.Fill(0)
	for i := 1; i < nc-1; i++ {
		for j := 1; j < nc-1; j++ {
			fi, fj := 2*i, 2*j
			v := 0.25*fine.At(fi, fj) +
				0.125*(fine.At(fi-1, fj)+fine.At(fi+1, fj)+fine.At(fi, fj-1)+fine.At(fi, fj+1)) +
				0.0625*(fine.At(fi-1, fj-1)+fine.At(fi-1, fj+1)+fine.At(fi+1, fj-1)+fine.At(fi+1, fj+1))
			coarse.SetAt(i, j, v)
		}
	}
}

// Interpolate performs bilinear prolongation from the coarse grid into
// the fine grid (overwriting fine).
func Interpolate(fine, coarse *matrix.Matrix) {
	nf := fine.Size(0)
	nc := coarse.Size(0)
	fine.Fill(0)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			fine.SetAt(2*i, 2*j, coarse.At(i, j))
		}
	}
	// Odd columns on even rows.
	for i := 0; i < nf; i += 2 {
		for j := 1; j < nf; j += 2 {
			fine.SetAt(i, j, 0.5*(fine.At(i, j-1)+fine.At(i, j+1)))
		}
	}
	// Odd rows.
	for i := 1; i < nf; i += 2 {
		for j := 0; j < nf; j++ {
			fine.SetAt(i, j, 0.5*(fine.At(i-1, j)+fine.At(i+1, j)))
		}
	}
	// Boundary stays Dirichlet zero.
	for i := 0; i < nf; i++ {
		fine.SetAt(i, 0, 0)
		fine.SetAt(i, nf-1, 0)
		fine.SetAt(0, i, 0)
		fine.SetAt(nf-1, i, 0)
	}
}

// OmegaOpt is the optimal SOR weight for the 2D discrete Poisson problem
// with fixed boundaries (Demmel 1997), used by POISSONi per §4.1.4.
func OmegaOpt(n int) float64 {
	return 2 / (1 + math.Sin(math.Pi/float64(n-1)))
}
