package eigen

import (
	"fmt"
	"math"

	"petabricks/internal/matrix"
)

// DCSplit splits T at the midpoint into two independent tridiagonal
// subproblems with the rank-one correction β·u·uᵀ subtracted
// (T = blkdiag(T1, T2) + β·u·uᵀ with u the indicator of rows k-1, k).
// It panics for n < 2.
func DCSplit(t Tridiag) (t1, t2 Tridiag, beta float64) {
	n := t.N()
	k := n / 2
	beta = t.E[k-1]
	t1 = Tridiag{D: append([]float64{}, t.D[:k]...), E: append([]float64{}, t.E[:k-1]...)}
	t2 = Tridiag{D: append([]float64{}, t.D[k:]...), E: append([]float64{}, t.E[k:]...)}
	t1.D[k-1] -= beta
	t2.D[0] -= beta
	return t1, t2, beta
}

// DCMerge combines the eigendecompositions of the two halves via the
// secular equation with deflation.
func DCMerge(r1, r2 Result, beta float64) (Result, error) {
	k := len(r1.Values)
	n := k + len(r2.Values)
	d := make([]float64, n)
	w := make([]float64, n)
	copy(d, r1.Values)
	copy(d[k:], r2.Values)
	q := matrix.New(n, n)
	for j := 0; j < k; j++ {
		w[j] = r1.Vectors.At(k-1, j) // last row of Q1
		for i := 0; i < k; i++ {
			q.SetAt(i, j, r1.Vectors.At(i, j))
		}
	}
	for j := 0; j < n-k; j++ {
		w[k+j] = r2.Vectors.At(0, j) // first row of Q2
		for i := 0; i < n-k; i++ {
			q.SetAt(k+i, k+j, r2.Vectors.At(i, j))
		}
	}
	return mergeRankOne(d, w, beta, q)
}

// mergeRankOne diagonalizes diag(d) + rho·w·wᵀ, where q's columns are
// the basis in which d/w are expressed; it returns eigenpairs of the
// original matrix (vectors mapped back through q), sorted ascending.
func mergeRankOne(d, w []float64, rho float64, q *matrix.Matrix) (Result, error) {
	n := len(d)
	if rho == 0 {
		return sortResult(Result{Values: d, Vectors: q}), nil
	}
	// Sort by d ascending, permuting w and q's columns.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[perm[j]] < d[perm[j-1]]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	ds := make([]float64, n)
	ws := make([]float64, n)
	qs := matrix.New(n, n)
	for j, src := range perm {
		ds[j] = d[src]
		ws[j] = w[src]
		for i := 0; i < n; i++ {
			qs.SetAt(i, j, q.At(i, src))
		}
	}
	// Scale for tolerances.
	wnorm2 := 0.0
	for _, v := range ws {
		wnorm2 += v * v
	}
	scale := math.Abs(rho)*wnorm2 + math.Abs(ds[0]) + math.Abs(ds[n-1]) + 1e-300
	tol := 1e-14 * scale

	deflated := make([]bool, n)
	// Deflation 1: negligible w components.
	for i := 0; i < n; i++ {
		if math.Abs(rho)*ws[i]*ws[i] < tol*1e-2 {
			deflated[i] = true
		}
	}
	// Deflation 2: nearly equal poles. Rotate (i, j) so w[j] -> 0.
	last := -1
	for i := 0; i < n; i++ {
		if deflated[i] {
			continue
		}
		if last >= 0 && ds[i]-ds[last] < tol {
			c, s, r := givens(ws[last], ws[i])
			ws[last] = r
			ws[i] = 0
			// Rotate the basis columns to match.
			for row := 0; row < n; row++ {
				a, b := qs.At(row, last), qs.At(row, i)
				qs.SetAt(row, last, c*a+s*b)
				qs.SetAt(row, i, -s*a+c*b)
			}
			// Poles nearly equal: the rotated second coordinate stays an
			// eigenvector with eigenvalue ~ds[i].
			deflated[i] = true
			continue
		}
		last = i
	}
	// Active subproblem.
	var act []int
	for i := 0; i < n; i++ {
		if !deflated[i] {
			act = append(act, i)
		}
	}
	m := len(act)
	vals := make([]float64, n)
	vecs := matrix.New(n, n)
	// Deflated eigenpairs pass through.
	for i := 0; i < n; i++ {
		if deflated[i] {
			vals[i] = ds[i]
			for row := 0; row < n; row++ {
				vecs.SetAt(row, i, qs.At(row, i))
			}
		}
	}
	if m > 0 {
		dd := make([]float64, m)
		ww := make([]float64, m)
		w2sum := 0.0
		for j, src := range act {
			dd[j] = ds[src]
			ww[j] = ws[src]
			w2sum += ws[src] * ws[src]
		}
		for j := 0; j < m; j++ {
			anchor, mu, err := secularRoot(dd, ww, rho, w2sum, j)
			if err != nil {
				return Result{}, err
			}
			lambda := dd[anchor] + mu
			vals[act[j]] = lambda
			// Eigenvector in the diagonal basis: v_i = w_i/(d_i − λ),
			// with the anchored difference computed stably.
			v := make([]float64, m)
			norm := 0.0
			for i := 0; i < m; i++ {
				den := (dd[i] - dd[anchor]) - mu
				if den == 0 {
					den = math.Copysign(1e-300, -mu)
				}
				v[i] = ww[i] / den
				norm += v[i] * v[i]
			}
			norm = math.Sqrt(norm)
			for i := range v {
				v[i] /= norm
			}
			// Back to the original basis: column = Σ_i v_i · qs[:, act[i]].
			for row := 0; row < n; row++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += v[i] * qs.At(row, act[i])
				}
				vecs.SetAt(row, act[j], s)
			}
		}
	}
	return sortResult(Result{Values: vals, Vectors: vecs}), nil
}

// secularRoot finds the j-th root (ascending) of
// f(λ) = 1 + ρ·Σ w_i²/(d_i − λ) by bisection on μ = λ − d[anchor],
// where the anchor pole is chosen so the critical difference is formed
// without cancellation. Requires d strictly increasing (post-deflation).
func secularRoot(d, w []float64, rho, w2sum float64, j int) (anchor int, mu float64, err error) {
	m := len(d)
	var lo, hi float64
	if rho > 0 {
		// Root j lies in (d_j, d_{j+1}); last root in (d_{m-1}, d_{m-1}+ρΣw²).
		anchor = j
		lo = 0
		if j == m-1 {
			hi = rho * w2sum
		} else {
			hi = d[j+1] - d[j]
		}
	} else {
		// Root j lies in (d_{j-1}, d_j); first root below d_0.
		anchor = j
		hi = 0
		if j == 0 {
			lo = rho * w2sum
		} else {
			lo = d[j-1] - d[j]
		}
	}
	f := func(mu float64) float64 {
		s := 1.0
		for i := 0; i < m; i++ {
			den := (d[i] - d[anchor]) - mu
			if den == 0 {
				return math.Copysign(math.Inf(1), -rho)
			}
			s += rho * w[i] * w[i] / den
		}
		return s
	}
	// For ρ > 0, f runs −∞ → +∞ across the interval (increasing); for
	// ρ < 0 it runs +∞ → −∞ (decreasing). Bisect accordingly.
	a, b := lo, hi
	increasing := rho > 0
	for it := 0; it < 140; it++ {
		mid := 0.5 * (a + b)
		if mid == a || mid == b {
			break
		}
		if (f(mid) < 0) == increasing {
			a = mid
		} else {
			b = mid
		}
	}
	mu = 0.5 * (a + b)
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return 0, 0, fmt.Errorf("eigen: secular root %d did not converge", j)
	}
	return anchor, mu, nil
}

func givens(a, b float64) (c, s, r float64) {
	r = math.Hypot(a, b)
	if r == 0 {
		return 1, 0, 0
	}
	return a / r, b / r, r
}
