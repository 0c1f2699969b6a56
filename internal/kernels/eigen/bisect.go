package eigen

import (
	"math"

	"petabricks/internal/matrix"
)

// sturmCount returns the number of eigenvalues of T strictly less than x,
// via the Sturm sequence of leading principal minors.
func sturmCount(t Tridiag, x float64) int {
	n := t.N()
	count := 0
	q := 1.0
	for i := 0; i < n; i++ {
		if i == 0 {
			q = t.D[0] - x
		} else {
			div := q
			if div == 0 {
				div = 1e-300
			}
			q = t.D[i] - x - t.E[i-1]*t.E[i-1]/div
		}
		if q < 0 {
			count++
		}
	}
	return count
}

// eigenvalueK returns the k-th (0-based, ascending) eigenvalue of T by
// bisection on the Sturm count. The paper notes this algorithm "is based
// on a simple formula to count the number of eigenvalues less than a
// given value", making each eigenvalue independently computable —
// "embarrassingly parallel".
func eigenvalueK(t Tridiag, k int, lo, hi float64) float64 {
	for i := 0; i < 200 && hi-lo > 1e-14*(1+math.Abs(lo)+math.Abs(hi)); i++ {
		mid := 0.5 * (lo + hi)
		if sturmCount(t, mid) > k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// inverseIteration refines an eigenvector for eigenvalue lambda by
// repeatedly solving (T − λI)·x = b with a tridiagonal LU with partial
// pivoting, starting from a deterministic pseudo-random vector.
func inverseIteration(t Tridiag, lambda float64, seed int) []float64 {
	n := t.N()
	x := make([]float64, n)
	// Deterministic start vector, non-degenerate for any n.
	s := uint64(seed)*2654435761 + 12345
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(s%2048)/1024 - 1
		if x[i] == 0 {
			x[i] = 0.5
		}
	}
	normalize(x)
	for it := 0; it < 4; it++ {
		y := solveShifted(t, lambda, x)
		if y == nil {
			break
		}
		normalize(y)
		copy(x, y)
	}
	return x
}

// solveShifted solves (T − λI)·x = b by Gaussian elimination with
// partial pivoting on the tridiagonal (bandwidth grows to 2 on the upper
// side). Returns nil when the shifted matrix is numerically singular in
// a way that prevents a solve.
func solveShifted(t Tridiag, lambda float64, b []float64) []float64 {
	n := t.N()
	if n == 1 {
		den := t.D[0] - lambda
		if den == 0 {
			den = 1e-300
		}
		return []float64{b[0] / den}
	}
	// Band storage: diag[i], up1[i] (i,i+1), up2[i] (i,i+2), low[i] (i+1,i).
	diag := make([]float64, n)
	up1 := make([]float64, n)
	up2 := make([]float64, n)
	rhs := append([]float64{}, b...)
	low := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = t.D[i] - lambda
		if i+1 < n {
			up1[i] = t.E[i]
			low[i] = t.E[i]
		}
	}
	for i := 0; i < n-1; i++ {
		// Pivot between rows i and i+1.
		if math.Abs(low[i]) > math.Abs(diag[i]) {
			diag[i], low[i] = low[i], diag[i]
			up1[i], diag[i+1] = diag[i+1], up1[i]
			if i+2 < n {
				up2[i], up1[i+1] = up1[i+1], up2[i]
			}
			rhs[i], rhs[i+1] = rhs[i+1], rhs[i]
		}
		piv := diag[i]
		if piv == 0 {
			piv = 1e-300
			diag[i] = piv
		}
		m := low[i] / piv
		diag[i+1] -= m * up1[i]
		if i+2 < n {
			up1[i+1] -= m * up2[i]
		}
		rhs[i+1] -= m * rhs[i]
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		if i+1 < n {
			s -= up1[i] * x[i+1]
		}
		if i+2 < n {
			s -= up2[i] * x[i+2]
		}
		den := diag[i]
		if den == 0 {
			den = 1e-300
		}
		x[i] = s / den
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	return x
}

func normalize(x []float64) {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	s = math.Sqrt(s)
	if s == 0 {
		return
	}
	for i := range x {
		x[i] /= s
	}
}

// BisectionParallel computes all eigenpairs by Sturm bisection plus
// inverse iteration (the paper's "Bisection" algorithm, O(n·k²) for k
// eigenvalues), with the embarrassingly parallel eigenvalue search routed
// through a caller-supplied parallel-for. Clustered eigenvalues are
// re-orthogonalized against their cluster by modified Gram-Schmidt. Only
// the eigenvalue bisections parallelize; inverse iteration stays
// sequential because cluster re-orthogonalization is order-dependent.
func BisectionParallel(t Tridiag, parallelFor func(n int, body func(lo, hi int))) (Result, error) {
	n := t.N()
	vals := make([]float64, n)
	vecs := matrix.New(n, n)
	if n == 0 {
		return Result{Values: vals, Vectors: vecs}, nil
	}
	lo, hi := t.Gershgorin()
	lo -= 1e-8
	hi += 1e-8
	parallelFor(n, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			vals[k] = eigenvalueK(t, k, lo, hi)
		}
	})
	clusterTol := 1e-7 * (1 + math.Abs(hi) + math.Abs(lo))
	var cluster [][]float64
	clusterStart := 0
	for k := 0; k < n; k++ {
		// Perturb the shift slightly so (T−λI) is safely invertible.
		v := inverseIteration(t, vals[k]+1e-12*(1+math.Abs(vals[k])), k)
		if k > 0 && vals[k]-vals[k-1] < clusterTol {
			// Same cluster: orthogonalize against earlier members.
			for _, u := range cluster {
				dot := 0.0
				for i := range v {
					dot += u[i] * v[i]
				}
				for i := range v {
					v[i] -= dot * u[i]
				}
			}
			normalize(v)
		} else {
			cluster = cluster[:0]
			clusterStart = k
		}
		_ = clusterStart
		cluster = append(cluster, v)
		for i := 0; i < n; i++ {
			vecs.SetAt(i, k, v[i])
		}
	}
	return Result{Values: vals, Vectors: vecs}, nil
}
