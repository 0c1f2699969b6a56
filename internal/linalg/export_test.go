package linalg

// At returns A[i][j]; indices may be in either triangle.
func (m *BandSPD) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	d := i - j
	if d > m.KD {
		return 0
	}
	return m.band[d][j]
}

// MulVec computes y = A·x for the symmetric band matrix.
func (m *BandSPD) MulVec(x []float64) []float64 {
	if len(x) != m.N {
		panic("linalg: vector length mismatch")
	}
	y := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		s := m.band[0][i] * x[i]
		for d := 1; d <= m.KD; d++ {
			if i-d >= 0 {
				s += m.band[d][i-d] * x[i-d]
			}
			if i+d < m.N {
				s += m.band[d][i] * x[i+d]
			}
		}
		y[i] = s
	}
	return y
}
