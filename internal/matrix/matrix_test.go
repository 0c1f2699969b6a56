package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	m := New(3, 4)
	if m.Dims() != 2 || m.Size(0) != 3 || m.Size(1) != 4 || m.Count() != 12 {
		t.Fatalf("shape wrong: %v count=%d", m.Shape(), m.Count())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != 0 {
				t.Fatal("not zero-initialized")
			}
		}
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	m := New(2, 3, 4)
	k := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for l := 0; l < 4; l++ {
				m.Set(k, i, j, l)
				k++
			}
		}
	}
	k = 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for l := 0; l < 4; l++ {
				if m.Get(i, j, l) != k {
					t.Fatalf("Get(%d,%d,%d) = %g, want %g", i, j, l, m.Get(i, j, l), k)
				}
				k++
			}
		}
	}
}

func TestRegionViewAliases(t *testing.T) {
	m := New(4, 4)
	v := m.Region([]int{1, 1}, []int{3, 3})
	if v.Size(0) != 2 || v.Size(1) != 2 {
		t.Fatalf("view shape %v", v.Shape())
	}
	v.SetAt(0, 0, 42)
	if m.At(1, 1) != 42 {
		t.Fatal("view does not alias parent")
	}
	m.SetAt(2, 2, 7)
	if v.At(1, 1) != 7 {
		t.Fatal("parent write invisible through view")
	}
}

func TestNestedRegions(t *testing.T) {
	m := New(8, 8)
	m.Each(func(idx []int, _ float64) float64 { return float64(idx[0]*8 + idx[1]) })
	v := m.Region([]int{2, 2}, []int{6, 6}).Region([]int{1, 1}, []int{3, 3})
	// v[0][0] should be m[3][3] = 27.
	if v.At(0, 0) != 27 {
		t.Fatalf("nested region At(0,0) = %g, want 27", v.At(0, 0))
	}
}

func TestRowColSlice(t *testing.T) {
	m := New(3, 4)
	m.Each(func(idx []int, _ float64) float64 { return float64(idx[0]*10 + idx[1]) })
	row := m.Slice(0, 1)
	if row.Dims() != 1 || row.Size(0) != 4 {
		t.Fatalf("row shape %v", row.Shape())
	}
	for c := 0; c < 4; c++ {
		if row.At1(c) != float64(10+c) {
			t.Fatalf("row[%d] = %g", c, row.At1(c))
		}
	}
	col := m.Slice(1, 2)
	if col.Size(0) != 3 {
		t.Fatalf("col shape %v", col.Shape())
	}
	for r := 0; r < 3; r++ {
		if col.At1(r) != float64(r*10+2) {
			t.Fatalf("col[%d] = %g", r, col.At1(r))
		}
	}
	// Writes through a column view land in the parent.
	col.SetAt1(0, -1)
	if m.At(0, 2) != -1 {
		t.Fatal("column write did not alias")
	}
}

func TestTransposedView(t *testing.T) {
	m := New(2, 3)
	m.Each(func(idx []int, _ float64) float64 { return float64(idx[0]*3 + idx[1]) })
	tr := m.Transposed()
	if tr.Size(0) != 3 || tr.Size(1) != 2 {
		t.Fatalf("transposed shape %v", tr.Shape())
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if tr.At(c, r) != m.At(r, c) {
				t.Fatal("transpose mismatch")
			}
		}
	}
	if tr.IsContiguous() {
		t.Error("transposed view of 2x3 should not be contiguous")
	}
	if !tr.Copy().IsContiguous() {
		t.Error("copy must be contiguous")
	}
}

func TestDataContiguity(t *testing.T) {
	m := New(3, 3)
	if !m.IsContiguous() {
		t.Fatal("fresh matrix must be contiguous")
	}
	d := m.Data()
	if len(d) != 9 {
		t.Fatalf("Data len %d", len(d))
	}
	sub := m.Region([]int{0, 0}, []int{2, 3}) // full rows: still contiguous
	if !sub.IsContiguous() {
		t.Error("full-width row range should be contiguous")
	}
	subCol := m.Region([]int{0, 0}, []int{3, 2})
	if subCol.IsContiguous() {
		t.Error("partial-width region should not be contiguous")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Data on non-contiguous view should panic")
		}
	}()
	_ = subCol.Data()
}

func TestFillCopyEqual(t *testing.T) {
	m := New(4, 4)
	m.Fill(3.5)
	c := m.Copy()
	if !m.Equal(c) {
		t.Fatal("copy not equal")
	}
	c.SetAt(0, 0, 0)
	if m.Equal(c) {
		t.Fatal("mutated copy still equal")
	}
	if m.AlmostEqual(c, 4) != true {
		t.Fatal("AlmostEqual with big tol should pass")
	}
	if got := m.MaxAbsDiff(c); got != 3.5 {
		t.Fatalf("MaxAbsDiff = %g", got)
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	if !math.IsInf(New(2).MaxAbsDiff(New(3)), 1) {
		t.Fatal("shape mismatch should be +Inf")
	}
}

func TestRMS(t *testing.T) {
	m := FromSlice([]float64{3, 4})
	want := math.Sqrt((9.0 + 16.0) / 2.0)
	if got := m.RMS(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMS = %g, want %g", got, want)
	}
	if New().RMS() != 0 {
		// scalar zero matrix
		t.Fatal("zero scalar RMS should be 0")
	}
}

func TestScalarMatrix(t *testing.T) {
	s := New()
	if s.Count() != 1 || s.Dims() != 0 {
		t.Fatalf("scalar: count=%d dims=%d", s.Count(), s.Dims())
	}
	s.SetScalar(9)
	if s.Scalar() != 9 {
		t.Fatal("scalar round trip failed")
	}
}

func TestFromSliceAliases(t *testing.T) {
	raw := []float64{1, 2, 3}
	m := FromSlice(raw)
	m.SetAt1(1, 20)
	if raw[1] != 20 {
		t.Fatal("FromSlice must alias")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Fill(5)
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatal("CopyFrom mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom shape mismatch should panic")
		}
	}()
	a.CopyFrom(New(3, 3))
}

func TestBoundsPanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.Get(2, 0) },
		func() { m.Get(0) },
		func() { m.Set(1, -1, 0) },
		func() { m.Region([]int{0, 0}, []int{3, 2}) },
		func() { m.Slice(2, 0) },
		func() { m.Slice(0, 5) },
		func() { New(-1) },
		func() { FromSlice(nil).Transposed() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEachWalkOrder(t *testing.T) {
	m := New(2, 3)
	var visited [][2]int
	m.Walk(func(idx []int, _ float64) {
		visited = append(visited, [2]int{idx[0], idx[1]})
	})
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(visited) != len(want) {
		t.Fatalf("visited %d elems", len(visited))
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, visited[i], want[i])
		}
	}
	// Each over empty matrix is a no-op.
	New(0, 5).Walk(func([]int, float64) { t.Fatal("should not visit") })
}

// Property: a region view reads exactly the parent's elements.
func TestRegionViewProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, w := 1+r.Intn(10), 1+r.Intn(10)
		m := New(h, w)
		m.Each(func([]int, float64) float64 { return rng.Float64() })
		r0, c0 := r.Intn(h), r.Intn(w)
		r1, c1 := r0+r.Intn(h-r0)+0, c0+r.Intn(w-c0)
		v := m.Region([]int{r0, c0}, []int{r1, c1})
		ok := true
		v.Walk(func(idx []int, val float64) {
			if m.At(r0+idx[0], c0+idx[1]) != val {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Copy is deep — mutating the copy never affects the source.
func TestCopyIsDeep(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(1+r.Intn(6), 1+r.Intn(6))
		m.Each(func([]int, float64) float64 { return r.Float64() })
		c := m.Copy()
		before := m.Copy()
		c.Fill(-999)
		return m.Equal(before)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	m := FromSlice([]float64{1, 2})
	if m.String() != "[1 2]" {
		t.Fatalf("1-D String = %q", m.String())
	}
	big := New(100, 100)
	if got := big.String(); got == "" {
		t.Fatal("large matrix should still render something")
	}
	s := New()
	s.SetScalar(4)
	if s.String() != "4" {
		t.Fatalf("scalar String = %q", s.String())
	}
}

func TestCachedContiguity(t *testing.T) {
	m := New(4, 6)
	if !m.IsContiguous() {
		t.Fatal("fresh matrix must be contiguous")
	}
	if !FromSlice([]float64{1, 2}).IsContiguous() {
		t.Fatal("FromSlice must be contiguous")
	}
	// Full-extent region stays contiguous; inner column ranges do not.
	full := m.Region([]int{0, 0}, []int{4, 6})
	if !full.IsContiguous() {
		t.Fatal("identity region must be contiguous")
	}
	rows := m.Region([]int{1, 0}, []int{3, 6})
	if !rows.IsContiguous() {
		t.Fatal("row-band region must be contiguous")
	}
	inner := m.Region([]int{0, 1}, []int{4, 5})
	if inner.IsContiguous() {
		t.Fatal("inner column range must not be contiguous")
	}
	// Row slices are unit-stride; column slices are not (unless width 1).
	if !m.Slice(0, 2).IsContiguous() {
		t.Fatal("row slice must be contiguous")
	}
	if m.Slice(1, 3).IsContiguous() {
		t.Fatal("column slice of a wide matrix must not be contiguous")
	}
	if !New(4, 1).Slice(1, 0).IsContiguous() {
		t.Fatal("column of a width-1 matrix is trivially contiguous")
	}
	if New(3, 3).Transposed().IsContiguous() {
		t.Fatal("transpose must not be contiguous")
	}
	if !New(1, 5).Transposed().IsContiguous() {
		t.Fatal("transpose of a single row is still one dense run")
	}
	// A single-row region of the non-contiguous column view is unit count.
	one := inner.Region([]int{0, 0}, []int{1, 1})
	if !one.IsContiguous() {
		t.Fatal("single-element view is trivially contiguous")
	}
}

func TestEachContiguousMatchesStrided(t *testing.T) {
	// The contiguous fast path must visit the same (idx, value) pairs in
	// the same order as the strided odometer.
	m := New(3, 4, 2)
	i := 0.0
	m.Each(func([]int, float64) float64 { i++; return i })
	var fast []float64
	m.Each(func(idx []int, v float64) float64 {
		fast = append(fast, v)
		return v
	})
	var strided []float64
	v := m.Region([]int{0, 1, 0}, []int{3, 4, 2}) // non-contiguous view
	v.Walk(func(_ []int, x float64) { strided = append(strided, x) })
	if len(fast) != 24 || len(strided) != 18 {
		t.Fatalf("lengths %d %d", len(fast), len(strided))
	}
	for k := 1; k < len(fast); k++ {
		if fast[k] != fast[k-1]+1 {
			t.Fatalf("fast order broken at %d: %v", k, fast)
		}
	}
	want := 0.0
	k := 0
	for a := 0; a < 3; a++ {
		for b := 1; b < 4; b++ {
			for c := 0; c < 2; c++ {
				want = m.Get(a, b, c)
				if strided[k] != want {
					t.Fatalf("strided[%d] = %g, want %g", k, strided[k], want)
				}
				k++
			}
		}
	}
}

// TestSetWindowMatchesRegion: SetWindow given the window's offset,
// extents and strides builds the view Region does.
func TestSetWindowMatchesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(5, 7)
	m.Each(func([]int, float64) float64 { return rng.Float64() })
	win := &Matrix{}
	for trial := 0; trial < 50; trial++ {
		b0, b1 := rng.Intn(5), rng.Intn(7)
		e0, e1 := b0+rng.Intn(6-b0), b1+rng.Intn(8-b1)
		begin, end := []int{b0, b1}, []int{e0, e1}
		want := m.Region(begin, end)
		win.SetWindow(m.data, want.offset, []int64{int64(e0 - b0), int64(e1 - b1)}, want.strides)
		if !shapeEqual(win.dims, want.dims) || win.IsContiguous() != want.IsContiguous() ||
			(want.Count() > 0 && want.MaxAbsDiff(win) != 0) {
			t.Fatalf("SetWindow of [%v,%v): %v@%d, want %v@%d", begin, end, win.dims, win.offset, want.dims, want.offset)
		}
	}
}

func TestCollapseUnitDims(t *testing.T) {
	m := New(4, 6)
	row := m.Region([]int{2, 0}, []int{3, 6}) // 1x6
	row.CollapseUnitDims()
	if row.Dims() != 1 || row.Size(0) != 6 {
		t.Fatalf("row collapse: %v", row.Shape())
	}
	row.SetAt1(3, 8)
	if m.At(2, 3) != 8 {
		t.Fatal("collapsed row must alias parent")
	}
	col := m.Region([]int{0, 1}, []int{4, 2}) // 4x1
	col.CollapseUnitDims()
	if col.Dims() != 1 || col.Size(0) != 4 || col.IsContiguous() {
		t.Fatalf("col collapse: %v contig=%v", col.Shape(), col.IsContiguous())
	}
	one := m.Region([]int{1, 1}, []int{2, 2}) // 1x1
	one.CollapseUnitDims()
	if one.Dims() != 1 || one.Size(0) != 1 {
		t.Fatalf("1x1 collapse: %v", one.Shape())
	}
	mid := New(2, 1, 3)
	v := mid.Region([]int{0, 0, 0}, []int{2, 1, 3})
	v.CollapseUnitDims()
	if v.Dims() != 2 || v.Size(0) != 2 || v.Size(1) != 3 {
		t.Fatalf("middle collapse: %v", v.Shape())
	}
}

func TestFlatAccessors(t *testing.T) {
	m := New(3, 4)
	m.SetAt(2, 1, 42)
	off := m.Offset() + 2*m.Stride(0) + 1*m.Stride(1)
	if m.AtFlat(off) != 42 {
		t.Fatalf("AtFlat = %g", m.AtFlat(off))
	}
	m.SetFlat(off, 7)
	if m.At(2, 1) != 7 {
		t.Fatal("SetFlat did not write through")
	}
	// Flat positions survive view construction (same backing buffer).
	v := m.Region([]int{1, 0}, []int{3, 4})
	voff := v.Offset() + 1*v.Stride(0) + 1*v.Stride(1)
	if voff != off || v.AtFlat(voff) != 7 {
		t.Fatalf("view flat access: off=%d vs %d", voff, off)
	}
}
