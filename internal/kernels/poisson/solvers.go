package poisson

import (
	"petabricks/internal/linalg"
	"petabricks/internal/matrix"
)

// SolveDirect solves A·x = b exactly with the band Cholesky factorization
// (the paper's LAPACK DPBSV path). The interior unknowns are numbered
// row-major; the half-bandwidth is the interior width, so the cost is
// O(n²) in the number of cells n, matching the paper's complexity table.
func SolveDirect(x, b *matrix.Matrix) error {
	n := x.Size(0)
	m := n - 2 // interior width
	if m <= 0 {
		return nil
	}
	nn := m * m
	a := linalg.NewBandSPD(nn, m)
	idx := func(i, j int) int { return (i-1)*m + (j - 1) }
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			p := idx(i, j)
			a.Set(p, p, 4)
			if j+1 < n-1 {
				a.Set(p+1, p, -1)
			}
			if i+1 < n-1 {
				a.Set(p+m, p, -1)
			}
		}
	}
	rhs := make([]float64, nn)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			rhs[idx(i, j)] = b.At(i, j)
		}
	}
	sol, err := linalg.SolveBandSPD(a, rhs)
	if err != nil {
		return err
	}
	x.Fill(0)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			x.SetAt(i, j, sol[idx(i, j)])
		}
	}
	return nil
}

// Jacobi performs iters Jacobi sweeps on x (Θ(n) work per sweep, the
// slowest-converging method in the paper's table).
func Jacobi(x, b *matrix.Matrix, iters int) {
	n := x.Size(0)
	next := matrix.New(n, n)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				next.SetAt(i, j, 0.25*(b.At(i, j)+x.At(i-1, j)+x.At(i+1, j)+x.At(i, j-1)+x.At(i, j+1)))
			}
		}
		x.CopyFrom(next)
	}
}

// SORInPlace performs iters Red-Black SOR sweeps directly on the
// checkerboard in x (the layout-ablation baseline).
func SORInPlace(x, b *matrix.Matrix, omega float64, iters int) {
	n := x.Size(0)
	sweep := func(color int) {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				if (i+j)%2 != color {
					continue
				}
				gs := 0.25 * (b.At(i, j) + x.At(i-1, j) + x.At(i+1, j) + x.At(i, j-1) + x.At(i, j+1))
				x.SetAt(i, j, x.At(i, j)+omega*(gs-x.At(i, j)))
			}
		}
	}
	for it := 0; it < iters; it++ {
		sweep(0) // red: uses black values from the previous iteration
		sweep(1) // black: uses the red values just computed
	}
}

// RedBlack holds the paper's split storage for Red-Black SOR: "splitting
// the matrix into two temporary matrices each half the size of the
// input. One temporary matrix contains only red cells, the other only
// black cells… memory is accessed in a dense fashion."
//
// Cell (i, j) is red when (i+j) is even. Row i of Red holds the red
// cells of grid row i in order; likewise Black.
type RedBlack struct {
	N          int
	Red, Black *matrix.Matrix
}

// NewRedBlack packs grid x into split red/black storage.
func NewRedBlack(x *matrix.Matrix) *RedBlack {
	n := x.Size(0)
	w := (n + 1) / 2
	rb := &RedBlack{N: n, Red: matrix.New(n, w), Black: matrix.New(n, w)}
	for i := 0; i < n; i++ {
		ri, bi := 0, 0
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				rb.Red.SetAt(i, ri, x.At(i, j))
				ri++
			} else {
				rb.Black.SetAt(i, bi, x.At(i, j))
				bi++
			}
		}
	}
	return rb
}

// Unpack writes the split representation back into grid x.
func (rb *RedBlack) Unpack(x *matrix.Matrix) {
	n := rb.N
	for i := 0; i < n; i++ {
		ri, bi := 0, 0
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				x.SetAt(i, j, rb.Red.At(i, ri))
				ri++
			} else {
				x.SetAt(i, j, rb.Black.At(i, bi))
				bi++
			}
		}
	}
}

// colIndex returns the packed column index of grid cell (i, j).
func colIndex(i, j int) int { return j / 2 }

// SOR performs iters Red-Black SOR sweeps with the given relaxation
// weight using split storage: the red half-iteration reads only Black
// (previous values), the black half-iteration reads the just-updated
// Red, realizing the dependency pattern of the paper's Figure 5.
func SOR(x, b *matrix.Matrix, omega float64, iters int) {
	rb := NewRedBlack(x)
	brb := NewRedBlack(b)
	n := rb.N
	for it := 0; it < iters; it++ {
		rb.sweepRed(brb, omega, n)
		rb.sweepBlack(brb, omega, n)
	}
	rb.Unpack(x)
}

func (rb *RedBlack) sweepRed(brb *RedBlack, omega float64, n int) {
	for i := 1; i < n-1; i++ {
		for j := 1 + (1+i)%2; j < n-1; j += 2 { // red interior cells: (i+j) even
			c := colIndex(i, j)
			// All four neighbours of a red cell are black.
			up := rb.Black.At(i-1, colIndex(i-1, j))
			dn := rb.Black.At(i+1, colIndex(i+1, j))
			lf := rb.Black.At(i, colIndex(i, j-1))
			rt := rb.Black.At(i, colIndex(i, j+1))
			cur := rb.Red.At(i, c)
			gs := 0.25 * (brb.Red.At(i, c) + up + dn + lf + rt)
			rb.Red.SetAt(i, c, cur+omega*(gs-cur))
		}
	}
}

func (rb *RedBlack) sweepBlack(brb *RedBlack, omega float64, n int) {
	for i := 1; i < n-1; i++ {
		for j := 1 + i%2; j < n-1; j += 2 { // black interior cells: (i+j) odd
			c := colIndex(i, j)
			up := rb.Red.At(i-1, colIndex(i-1, j))
			dn := rb.Red.At(i+1, colIndex(i+1, j))
			lf := rb.Red.At(i, colIndex(i, j-1))
			rt := rb.Red.At(i, colIndex(i, j+1))
			cur := rb.Black.At(i, c)
			gs := 0.25 * (brb.Black.At(i, c) + up + dn + lf + rt)
			rb.Black.SetAt(i, c, cur+omega*(gs-cur))
		}
	}
}
