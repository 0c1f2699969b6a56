package poisson

import (
	"math"
	"petabricks/internal/matrix"
)

// RMSInterior returns the RMS of interior cells.
func RMSInterior(m *matrix.Matrix) float64 {
	n := m.Size(0)
	if n <= 2 {
		return 0
	}
	sum := 0.0
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			v := m.At(i, j)
			sum += v * v
		}
	}
	cnt := float64((n - 2) * (n - 2))
	return math.Sqrt(sum / cnt)
}

// Accuracy is the paper's metric: the ratio between the RMS error of the
// input guess and the RMS error of the output, both against the true
// solution ("a higher accuracy algorithm is better").
func Accuracy(in, out, exact *matrix.Matrix) float64 {
	ein := ErrorVs(in, exact)
	eout := ErrorVs(out, exact)
	if eout == 0 {
		return math.Inf(1)
	}
	return ein / eout
}

// halfWidth returns the number of cells of the given color in row i.
func halfWidth(n, i, color int) int {
	// Cells j in [0, n) with (i+j)%2 == color.
	if (i+color)%2 == 0 {
		return (n + 1) / 2
	}
	return n / 2
}
