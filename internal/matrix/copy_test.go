package matrix

import (
	"fmt"
	"math"
	"testing"
)

// iotaMatrix returns a matrix holding 1, 2, 3, … in row-major order.
func iotaMatrix(dims ...int) *Matrix {
	m := New(dims...)
	n := 0.0
	m.Each(func([]int, float64) float64 { n++; return n })
	return m
}

// refCopy is the element-by-element copy CopyFrom used to be: the
// reference the run-based implementation must match.
func refCopy(dst, src *Matrix) {
	dst.Each(func(idx []int, _ float64) float64 { return src.Get(idx...) })
}

// viewCases builds, per case, two same-shaped views over separate
// buffers — one to read, one to write — covering every stride shape the
// interpreter produces.
func viewCases() []struct {
	name     string
	src, dst *Matrix
} {
	unit := func(m *Matrix) *Matrix {
		v := m.Region([]int{2, 0}, []int{3, 5})
		v.CollapseUnitDims()
		return v
	}
	return []struct {
		name     string
		src, dst *Matrix
	}{
		{"contiguous 2-D", iotaMatrix(4, 5), New(4, 5)},
		{"contiguous 3-D", iotaMatrix(2, 3, 4), New(2, 3, 4)},
		{"row block (contiguous view)", iotaMatrix(6, 5).Region([]int{2, 0}, []int{5, 5}), New(6, 5).Region([]int{1, 0}, []int{4, 5})},
		{"column split (strided rows)", iotaMatrix(4, 6).Region([]int{0, 3}, []int{4, 6}), New(4, 6).Region([]int{0, 0}, []int{4, 3})},
		{"strided into contiguous", iotaMatrix(4, 6).Region([]int{1, 2}, []int{3, 5}), New(2, 3)},
		{"contiguous into strided", iotaMatrix(2, 3), New(4, 6).Region([]int{1, 2}, []int{3, 5})},
		{"transposed source", iotaMatrix(3, 4).Transposed(), New(4, 3)},
		{"transposed both", iotaMatrix(3, 4).Transposed(), New(3, 4).Transposed()},
		{"column (1-D, stride w)", iotaMatrix(4, 5).Slice(1, 2), New(4, 5).Slice(1, 4)},
		{"collapsed unit dim", unit(iotaMatrix(4, 5)), unit(New(4, 5))},
		{"unit dims kept", iotaMatrix(4, 5).Region([]int{1, 0}, []int{2, 5}), New(1, 5)},
		{"3-D inner plane of a larger block", iotaMatrix(3, 4, 5).Region([]int{0, 1, 0}, []int{3, 3, 5}), New(3, 2, 5)},
		{"zero extent", iotaMatrix(4, 5).Region([]int{1, 2}, []int{1, 4}), New(0, 2)},
		{"scalar", func() *Matrix { m := New(); m.SetScalar(7); return m }(), New()},
		{"one cell of a matrix", iotaMatrix(3, 3).Region([]int{1, 1}, []int{2, 2}), New(1, 1)},
	}
}

func TestCopyFromMatchesElementwise(t *testing.T) {
	for _, tc := range viewCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := New(tc.dst.Shape()...)
			refCopy(want, tc.src)
			tc.dst.CopyFrom(tc.src)
			if !tc.dst.Equal(want) {
				t.Errorf("CopyFrom:\n%v\nwant\n%v", tc.dst, want)
			}
			cp := tc.src.Copy()
			if !cp.IsContiguous() || !cp.Equal(want) {
				t.Errorf("Copy:\n%v\nwant\n%v", cp, want)
			}
			if tc.src.Count() > 0 && cp.SharesStorage(tc.src) {
				t.Error("Copy shares storage with its source")
			}
		})
	}
}

// TestCopyFromLeavesSurroundingsAlone: a copy into a view touches the
// view's cells only.
func TestCopyFromLeavesSurroundingsAlone(t *testing.T) {
	for _, tc := range viewCases() {
		// Re-home dst inside a frame of sentinels.
		if tc.dst.Dims() != 2 {
			continue
		}
		h, w := tc.dst.Size(0), tc.dst.Size(1)
		frame := New(h+2, w+2)
		frame.Fill(-1)
		inner := frame.Region([]int{1, 1}, []int{1 + h, 1 + w})
		inner.CopyFrom(tc.src)
		inner.Zero()
		sentinels := 0
		frame.Walk(func(idx []int, v float64) {
			in := idx[0] >= 1 && idx[0] <= h && idx[1] >= 1 && idx[1] <= w
			switch {
			case in && v != 0:
				t.Errorf("%s: cell %v inside the view is %g after Zero", tc.name, idx, v)
			case !in && v != -1:
				t.Errorf("%s: cell %v outside the view was overwritten with %g", tc.name, idx, v)
			case !in:
				sentinels++
			}
		})
		if sentinels != (h+2)*(w+2)-h*w {
			t.Errorf("%s: walked %d sentinels", tc.name, sentinels)
		}
	}
}

func TestZero(t *testing.T) {
	for _, tc := range viewCases() {
		t.Run(tc.name, func(t *testing.T) {
			tc.src.Zero()
			tc.src.Walk(func(idx []int, v float64) {
				if v != 0 {
					t.Fatalf("cell %v = %g after Zero", idx, v)
				}
			})
		})
	}
}

// TestCopyFromOverlapKeepsForwardOrder pins the documented behaviour
// for views of one buffer: elements move one at a time in row-major
// order, so a source that overlaps the destination is read as the
// earlier stores left it (shifting right by one smears the first
// element — the opposite of memmove).
func TestCopyFromOverlapKeepsForwardOrder(t *testing.T) {
	buf := FromSlice([]float64{1, 2, 3, 4, 5, 6})
	buf.Region([]int{1}, []int{6}).CopyFrom(buf.Region([]int{0}, []int{5}))
	for i := 0; i < 6; i++ {
		if buf.At1(i) != 1 {
			t.Fatalf("right shift: %v, want all 1", buf)
		}
	}
	buf = FromSlice([]float64{1, 2, 3, 4, 5, 6})
	buf.Region([]int{0}, []int{5}).CopyFrom(buf.Region([]int{1}, []int{6}))
	if got := fmt.Sprint(buf); got != "[2 3 4 5 6 6]" {
		t.Fatalf("left shift: %s", got)
	}
	// 2-D: rows 1..3 from rows 0..2 of the same matrix.
	m := iotaMatrix(3, 2)
	want := iotaMatrix(3, 2)
	refCopy(want.Region([]int{1, 0}, []int{3, 2}), want.Region([]int{0, 0}, []int{2, 2}))
	m.Region([]int{1, 0}, []int{3, 2}).CopyFrom(m.Region([]int{0, 0}, []int{2, 2}))
	if !m.Equal(want) {
		t.Fatalf("overlapping rows:\n%v\nwant\n%v", m, want)
	}
}

func TestCopyFromShapeMismatchText(t *testing.T) {
	defer func() {
		if r := recover(); r != "matrix: CopyFrom shape mismatch [8] vs [4]" {
			t.Fatalf("panic = %v", r)
		}
	}()
	New(8).CopyFrom(New(4))
}

func TestSharesStorageAndShape(t *testing.T) {
	m := New(4, 6)
	left := m.Region([]int{0, 0}, []int{4, 3})
	right := m.Region([]int{0, 3}, []int{4, 6})
	if !left.SharesStorage(right) || !m.SharesStorage(left.Slice(0, 1)) {
		t.Error("views of one matrix must share storage, even disjoint ones")
	}
	if m.SharesStorage(New(4, 6)) || m.SharesStorage(m.Copy()) {
		t.Error("separate allocations must not share storage")
	}
	if New(0).SharesStorage(New(0)) {
		t.Error("empty matrices share nothing")
	}
	if !left.SameShape(right) || left.SameShape(m) || !left.HasShape([]int{4, 3}) || left.HasShape([]int{3, 4}) || left.HasShape([]int{12}) {
		t.Error("SameShape/HasShape disagree with the dims")
	}
}

// TestTempFreeList: a recycled temporary comes back zeroed and
// reshaped, whatever was left in it; Recycle ignores everything that is
// not a live temporary.
func TestTempFreeList(t *testing.T) {
	a := NewTemp(3, 5)
	if !a.IsContiguous() || a.Count() != 15 || a.Stride(0) != 5 || a.Stride(1) != 1 {
		t.Fatalf("NewTemp(3, 5): dims %v strides %d,%d", a.Shape(), a.Stride(0), a.Stride(1))
	}
	a.Fill(math.NaN())
	a.Recycle()
	a.Recycle() // second call: no longer a live temporary

	// Whether b reuses a's storage is up to sync.Pool; either way it must
	// be indistinguishable from New(2, 2, 4).
	for i := 0; i < 4; i++ {
		b := NewTemp(2, 2, 4) // 16 elements: a's size class
		if got, want := fmt.Sprint(b.Shape()), "[2 2 4]"; got != want {
			t.Fatalf("reused temporary has shape %s", got)
		}
		if !b.Equal(New(2, 2, 4)) || len(b.Data()) != 16 {
			t.Fatalf("reused temporary is not zeroed: %v", b.Data())
		}
		b.Fill(float64(i + 1))
		b.Recycle()
	}

	plain := New(4)
	plain.Fill(3)
	plain.Recycle()
	view := NewTemp(4).Region([]int{0}, []int{2})
	view.Recycle()
	if c := NewTemp(4); c.SharesStorage(plain) || c.SharesStorage(view) {
		t.Error("Recycle accepted a matrix that is not a temporary")
	}

	for _, dims := range [][]int{{}, {0}, {0, 7}, {1}, {2}, {3}, {1 << 10}, {1<<10 + 1}} {
		m := NewTemp(dims...)
		if !m.HasShape(dims) || !m.Equal(New(dims...)) {
			t.Errorf("NewTemp(%v) = %v", dims, m.Shape())
		}
		m.Recycle()
	}
}

func TestTempClass(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11} {
		if got := tempClass(n); got != want {
			t.Errorf("tempClass(%d) = %d, want %d", n, got, want)
		}
		if n > 0 && 1<<tempClass(n) < n {
			t.Errorf("class %d cannot hold %d elements", tempClass(n), n)
		}
	}
}

var benchSink *Matrix

// BenchmarkCopyFrom prices the copy a nested transform result pays when
// it cannot be written in place, against the element-by-element walk it
// replaced. Views are 64×64 windows; "columns" is the strided case (the
// right half of a 64×128 matrix).
func BenchmarkCopyFrom(b *testing.B) {
	wide := func() *Matrix { return iotaMatrix(64, 128).Region([]int{0, 64}, []int{64, 128}) }
	for _, bc := range []struct {
		name     string
		dst, src *Matrix
	}{
		{"contiguous", New(64, 64), iotaMatrix(64, 64)},
		{"columns", wide(), wide()},
		{"transposed", New(64, 64), iotaMatrix(64, 64).Transposed()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(64 * 64 * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.dst.CopyFrom(bc.src)
			}
		})
		b.Run(bc.name+"/elementwise", func(b *testing.B) {
			b.SetBytes(64 * 64 * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refCopy(bc.dst, bc.src)
			}
		})
	}
	b.Run("Zero/columns", func(b *testing.B) {
		m := wide()
		b.SetBytes(64 * 64 * 8)
		for i := 0; i < b.N; i++ {
			m.Zero()
		}
	})
	b.Run("NewTemp+Recycle/4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = NewTemp(64, 64)
			benchSink.Recycle()
		}
	})
	b.Run("New/4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = New(64, 64)
		}
	})
}
