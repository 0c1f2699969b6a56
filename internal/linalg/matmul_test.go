package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"petabricks/internal/matrix"
)

func randMat(rng *rand.Rand, h, w int) *matrix.Matrix {
	m := matrix.New(h, w)
	m.Each(func([]int, float64) float64 { return rng.Float64()*2 - 1 })
	return m
}

func TestMulBasicKnown(t *testing.T) {
	a := matrix.New(2, 3)
	b := matrix.New(3, 2)
	// A = [1 2 3; 4 5 6], B = [7 8; 9 10; 11 12]
	vals := []float64{1, 2, 3, 4, 5, 6}
	k := 0
	a.Each(func([]int, float64) float64 { k++; return vals[k-1] })
	valsB := []float64{7, 8, 9, 10, 11, 12}
	k = 0
	b.Each(func([]int, float64) float64 { k++; return valsB[k-1] })
	c := matrix.New(2, 2)
	MulBasic(c, a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestIdentityMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 16
	a := randMat(rng, n, n)
	id := matrix.New(n, n)
	for i := 0; i < n; i++ {
		id.SetAt(i, i, 1)
	}
	c := matrix.New(n, n)
	MulBasic(c, a, id)
	if a.MaxAbsDiff(c) > 1e-15 {
		t.Fatal("A*I != A")
	}
}

func TestAllVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][3]int{{8, 8, 8}, {16, 16, 16}, {7, 5, 9}, {1, 1, 1}, {3, 17, 2}, {32, 32, 32}, {33, 33, 33}}
	for _, s := range shapes {
		h, c, w := s[0], s[1], s[2]
		A := randMat(rng, h, c)
		B := randMat(rng, c, w)
		ref := matrix.New(h, w)
		MulBasic(ref, A, B)
		for name, f := range map[string]func(C, A, B *matrix.Matrix){
			"transpose": MulTransposed,
			"blocked4":  func(C, A, B *matrix.Matrix) { MulBlocked(C, A, B, 4) },
			"blockedBig": func(C, A, B *matrix.Matrix) {
				MulBlocked(C, A, B, 1024)
			},
			"blockedDefault": func(C, A, B *matrix.Matrix) { MulBlocked(C, A, B, 0) },
		} {
			got := matrix.New(h, w)
			f(got, A, B)
			if d := ref.MaxAbsDiff(got); d > 1e-9 {
				t.Errorf("%s differs from basic by %g on shape %v", name, d, s)
			}
		}
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	A := randMat(rng, 5, 7)
	B := randMat(rng, 5, 7)
	C := matrix.New(5, 7)
	Add(C, A, B)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(C.At(i, j)-(A.At(i, j)+B.At(i, j))) > 1e-15 {
				t.Fatal("Add wrong")
			}
		}
	}
	Sub(C, C, B)
	if C.MaxAbsDiff(A) > 1e-14 {
		t.Fatal("Sub wrong")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MulBasic(matrix.New(2, 2), matrix.New(2, 3), matrix.New(4, 2))
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMulTransposeIdentity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, c, w := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		A := randMat(rng, h, c)
		B := randMat(rng, c, w)
		AB := matrix.New(h, w)
		MulBasic(AB, A, B)
		BtAt := matrix.New(w, h)
		MulBasic(BtAt, B.Transposed().Copy(), A.Transposed().Copy())
		return AB.Transposed().MaxAbsDiff(BtAt) < 1e-10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: multiplication distributes over addition.
func TestMulDistributes(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		A := randMat(rng, n, n)
		B := randMat(rng, n, n)
		C := randMat(rng, n, n)
		BC := matrix.New(n, n)
		Add(BC, B, C)
		left := matrix.New(n, n)
		MulBasic(left, A, BC)
		ab := matrix.New(n, n)
		ac := matrix.New(n, n)
		MulBasic(ab, A, B)
		MulBasic(ac, A, C)
		right := matrix.New(n, n)
		Add(right, ab, ac)
		return left.MaxAbsDiff(right) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
