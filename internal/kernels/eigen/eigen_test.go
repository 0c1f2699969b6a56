package eigen

import (
	"math"
	"math/rand"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/runtime"
)

// laplacian1D returns the tridiagonal [-1, 2, -1] matrix whose
// eigenvalues are known analytically: 2 − 2·cos(kπ/(n+1)).
func laplacian1D(n int) Tridiag {
	t := Tridiag{D: make([]float64, n), E: make([]float64, n-1)}
	for i := range t.D {
		t.D[i] = 2
	}
	for i := range t.E {
		t.E[i] = -1
	}
	return t
}

func laplacianEigenvalues(n int) []float64 {
	vals := make([]float64, n)
	for k := 1; k <= n; k++ {
		vals[k-1] = 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	return vals
}

type method struct {
	name string
	f    func(Tridiag) (Result, error)
}

func methods() []method {
	return []method{
		{"QR", QR},
		{"Bisection", func(t Tridiag) (Result, error) {
			return BisectionParallel(t, func(n int, body func(lo, hi int)) { body(0, n) })
		}},
		{"DC(base1)", DCBaseQR(2)},
		{"DC(base25)", DCBaseQR(25)},
	}
}

func checkDecomposition(t *testing.T, name string, tri Tridiag, r Result, tol float64) {
	t.Helper()
	n := tri.N()
	if len(r.Values) != n || r.Vectors.Size(0) != n || r.Vectors.Size(1) != n {
		t.Fatalf("%s: wrong shapes", name)
	}
	for i := 1; i < n; i++ {
		if r.Values[i] < r.Values[i-1] {
			t.Fatalf("%s: eigenvalues not sorted at %d", name, i)
		}
	}
	if res := r.Residual(tri); res > tol {
		t.Errorf("%s: residual %g > %g (n=%d)", name, res, tol, n)
	}
	off, norm := r.Orthogonality()
	if off > 1e-6 || norm > 1e-8 {
		t.Errorf("%s: orthogonality off=%g norm=%g (n=%d)", name, off, norm, n)
	}
}

func TestKnownLaplacianEigenvalues(t *testing.T) {
	for _, n := range []int{2, 3, 8, 33} {
		tri := laplacian1D(n)
		want := laplacianEigenvalues(n)
		for _, m := range methods() {
			r, err := m.f(tri)
			if err != nil {
				t.Fatalf("%s n=%d: %v", m.name, n, err)
			}
			for i := range want {
				if math.Abs(r.Values[i]-want[i]) > 1e-8 {
					t.Errorf("%s n=%d: λ[%d] = %.12g, want %.12g", m.name, n, i, r.Values[i], want[i])
				}
			}
			checkDecomposition(t, m.name, tri, r, 1e-7)
		}
	}
}

func TestRandomMatricesAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 5, 16, 31, 64, 100} {
		tri := Generate(rng, n)
		var ref Result
		for mi, m := range methods() {
			r, err := m.f(tri)
			if err != nil {
				t.Fatalf("%s n=%d: %v", m.name, n, err)
			}
			checkDecomposition(t, m.name, tri, r, 1e-7)
			if mi == 0 {
				ref = r
				continue
			}
			for i := range ref.Values {
				if math.Abs(r.Values[i]-ref.Values[i]) > 1e-7 {
					t.Errorf("%s n=%d: λ[%d]=%g disagrees with QR %g", m.name, n, i, r.Values[i], ref.Values[i])
				}
			}
		}
	}
}

func TestDiagonalMatrix(t *testing.T) {
	tri := Tridiag{D: []float64{3, -1, 7, 2}, E: []float64{0, 0, 0}}
	for _, m := range methods() {
		r, err := m.f(tri)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		want := []float64{-1, 2, 3, 7}
		for i := range want {
			if math.Abs(r.Values[i]-want[i]) > 1e-12 {
				t.Errorf("%s: λ[%d]=%g want %g", m.name, i, r.Values[i], want[i])
			}
		}
		checkDecomposition(t, m.name, tri, r, 1e-10)
	}
}

func TestRepeatedEigenvalues(t *testing.T) {
	// Identity-like with a duplicate cluster.
	tri := Tridiag{D: []float64{5, 5, 5, 5}, E: []float64{0, 1e-15, 0}}
	for _, m := range methods() {
		r, err := m.f(tri)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		checkDecomposition(t, m.name, tri, r, 1e-9)
	}
}

func TestTinyOrders(t *testing.T) {
	for _, m := range methods() {
		r, err := m.f(Tridiag{D: []float64{4}, E: nil})
		if err != nil || len(r.Values) != 1 || math.Abs(r.Values[0]-4) > 1e-12 {
			t.Fatalf("%s on 1x1: %v %v", m.name, r.Values, err)
		}
		r2, err := m.f(Tridiag{D: []float64{1, 3}, E: []float64{2}})
		if err != nil {
			t.Fatalf("%s on 2x2: %v", m.name, err)
		}
		// Eigenvalues of [[1,2],[2,3]]: 2 ± √5.
		if math.Abs(r2.Values[0]-(2-math.Sqrt(5))) > 1e-10 ||
			math.Abs(r2.Values[1]-(2+math.Sqrt(5))) > 1e-10 {
			t.Fatalf("%s 2x2 eigenvalues = %v", m.name, r2.Values)
		}
	}
}

func TestSturmCount(t *testing.T) {
	tri := laplacian1D(10)
	vals := laplacianEigenvalues(10)
	for k, v := range vals {
		if got := sturmCount(tri, v-1e-9); got != k {
			t.Errorf("count below λ[%d]: got %d, want %d", k, got, k)
		}
		if got := sturmCount(tri, v+1e-9); got != k+1 {
			t.Errorf("count above λ[%d]: got %d, want %d", k, got, k+1)
		}
	}
	if sturmCount(tri, -10) != 0 || sturmCount(tri, 10) != 10 {
		t.Error("extremes wrong")
	}
}

func TestGershgorinContainsEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		tri := Generate(rng, 20)
		lo, hi := tri.Gershgorin()
		r, err := QR(tri)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Values {
			if v < lo-1e-12 || v > hi+1e-12 {
				t.Fatalf("eigenvalue %g outside Gershgorin [%g, %g]", v, lo, hi)
			}
		}
	}
}

func TestTransformChoices(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := New()
	tri := Generate(rng, 48)
	var ref Result
	for ci, name := range ChoiceNames {
		cfg := choice.NewConfig()
		cfg.SetSelector("eig", choice.NewSelector(ci))
		out := choice.Run(choice.NewExec(nil, cfg), tr, tri)
		if out.Err != nil {
			t.Fatalf("choice %s: %v", name, out.Err)
		}
		checkDecomposition(t, "transform/"+name, tri, out.R, 1e-7)
		if ci == 0 {
			ref = out.R
			continue
		}
		for i := range ref.Values {
			if math.Abs(out.R.Values[i]-ref.Values[i]) > 1e-7 {
				t.Errorf("choice %s disagrees at λ[%d]", name, i)
			}
		}
	}
}

func TestCutoff25Config(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New()
	tri := Generate(rng, 120)
	out := choice.Run(choice.NewExec(nil, Cutoff25Config()), tr, tri)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	checkDecomposition(t, "cutoff25", tri, out.R, 1e-7)
}

func TestAutotunedStyleHybrid(t *testing.T) {
	// The paper's tuned result: DC above 48, QR below.
	rng := rand.New(rand.NewSource(6))
	cfg := choice.NewConfig()
	cfg.SetSelector("eig", choice.Selector{Levels: []choice.Level{
		{Cutoff: 49, Choice: ChoiceQR},
		{Cutoff: choice.Inf, Choice: ChoiceDC},
	}})
	tr := New()
	tri := Generate(rng, 200)
	out := choice.Run(choice.NewExec(nil, cfg), tr, tri)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	checkDecomposition(t, "hybrid48", tri, out.R, 1e-7)
}

func TestSpaceValid(t *testing.T) {
	tr := New()
	if err := Space(tr).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Tridiag{D: []float64{1, 2}, E: []float64{1}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Tridiag{D: []float64{1, 2}, E: nil}).Validate(); err == nil {
		t.Fatal("expected length error")
	}
}

func TestZeroOrder(t *testing.T) {
	for _, m := range methods()[:2] { // QR and Bisection accept n=0
		r, err := m.f(Tridiag{})
		if err != nil || len(r.Values) != 0 {
			t.Fatalf("%s on empty: %v %v", m.name, r.Values, err)
		}
	}
}

func TestTransformParallelPool(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(21))
	tri := Generate(rng, 150)
	for _, ci := range []int{ChoiceBIS, ChoiceDC} {
		cfg := choice.NewConfig()
		sel := choice.NewSelector(ci)
		if ci == ChoiceDC {
			sel = choice.Selector{Levels: []choice.Level{
				{Cutoff: 16, Choice: ChoiceQR},
				{Cutoff: choice.Inf, Choice: ChoiceDC},
			}}
		}
		cfg.SetSelector("eig", sel)
		cfg.SetInt("eig.seqcutoff", 32)
		tr := New()
		out := choice.Run(choice.NewExec(pool, cfg), tr, tri)
		if out.Err != nil {
			t.Fatalf("choice %d: %v", ci, out.Err)
		}
		checkDecomposition(t, "parallel/"+ChoiceNames[ci], tri, out.R, 1e-7)
	}
}
