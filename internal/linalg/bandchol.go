package linalg

import (
	"fmt"
	"math"
)

// BandSPD is a symmetric positive-definite band matrix of order N with
// half-bandwidth KD, stored in LAPACK-style lower band layout:
// band[d][i] = A[i+d][i] for d in [0, KD], i in [0, N-d).
//
// This is the storage DPBSV (the paper's direct Poisson solver) uses.
type BandSPD struct {
	N    int
	KD   int
	band [][]float64
}

// NewBandSPD allocates a zero band matrix.
func NewBandSPD(n, kd int) *BandSPD {
	if n < 0 || kd < 0 {
		panic("linalg: negative band matrix size")
	}
	if kd >= n && n > 0 {
		kd = n - 1
	}
	b := &BandSPD{N: n, KD: kd, band: make([][]float64, kd+1)}
	for d := range b.band {
		b.band[d] = make([]float64, n-d)
	}
	return b
}

// Set stores A[i][j] (and symmetrically A[j][i]). It panics when the
// entry lies outside the band.
func (m *BandSPD) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	d := i - j
	if d > m.KD {
		panic(fmt.Sprintf("linalg: entry (%d,%d) outside band kd=%d", i, j, m.KD))
	}
	m.band[d][j] = v
}

// Clone deep-copies the band matrix.
func (m *BandSPD) Clone() *BandSPD {
	out := NewBandSPD(m.N, m.KD)
	for d := range m.band {
		copy(out.band[d], m.band[d])
	}
	return out
}

// CholeskyBand factors A = L·Lᵀ in place, with L stored in the same band
// layout. It is the factorization phase of DPBSV, O(N·KD²) work. It
// returns an error when A is not positive definite.
func (m *BandSPD) CholeskyBand() error {
	for j := 0; j < m.N; j++ {
		// d = diagonal entry minus the squares of the already-computed
		// row of L to the left.
		sum := m.band[0][j]
		for k := maxInt(0, j-m.KD); k < j; k++ {
			l := m.band[j-k][k]
			sum -= l * l
		}
		if sum <= 0 {
			return fmt.Errorf("linalg: matrix not positive definite at column %d", j)
		}
		diag := math.Sqrt(sum)
		m.band[0][j] = diag
		// Column below the diagonal.
		for i := j + 1; i <= minInt(j+m.KD, m.N-1); i++ {
			s := m.band[i-j][j]
			for k := maxInt(0, i-m.KD); k < j; k++ {
				s -= m.band[i-k][k] * m.band[j-k][k]
			}
			m.band[i-j][j] = s / diag
		}
	}
	return nil
}

// SolveFactored solves L·Lᵀ·x = b in place given a CholeskyBand-factored
// receiver, overwriting b with x.
func (m *BandSPD) SolveFactored(b []float64) {
	if len(b) != m.N {
		panic("linalg: rhs length mismatch")
	}
	// Forward: L·y = b.
	for i := 0; i < m.N; i++ {
		s := b[i]
		for k := maxInt(0, i-m.KD); k < i; k++ {
			s -= m.band[i-k][k] * b[k]
		}
		b[i] = s / m.band[0][i]
	}
	// Backward: Lᵀ·x = y.
	for i := m.N - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k <= minInt(i+m.KD, m.N-1); k++ {
			s -= m.band[k-i][i] * b[k]
		}
		b[i] = s / m.band[0][i]
	}
}

// SolveBandSPD is the DPBSV equivalent: it factors a copy of A and
// solves A·x = b, returning x.
func SolveBandSPD(a *BandSPD, b []float64) ([]float64, error) {
	f := a.Clone()
	if err := f.CholeskyBand(); err != nil {
		return nil, err
	}
	x := append([]float64{}, b...)
	f.SolveFactored(x)
	return x, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
