// Package matrix provides the n-dimensional dense array type used by the
// PetaBricks runtime, kernels, and generated code.
//
// A Matrix is a strided view over a shared float64 buffer. Sub-region
// views (Region, Slice, Row, Col) alias the parent's storage in O(1),
// which is what lets rules write disjoint output regions of the same
// matrix in parallel without copying, exactly as PetaBricks' generated
// C++ did. The interpreter relies on it twice over: a nested transform
// call is handed the caller's region view as its output (Zero,
// SharesStorage and SameShape are the checks that make that safe), and
// the results that cannot be written in place — call temporaries,
// intermediates of nested calls — come from a free list (NewTemp,
// Recycle; see temp.go) instead of the heap.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is an n-dimensional strided view of a float64 buffer. The zero
// value is an empty 0-dimensional matrix.
type Matrix struct {
	data    []float64
	dims    []int
	strides []int
	offset  int
	// contig caches whether the view is a single dense row-major run;
	// it is recomputed whenever dims/strides change so the hot paths
	// (Data, Each, compiled rule execution) never re-derive it.
	contig bool
	// temp marks a matrix handed out by NewTemp and not yet recycled;
	// views never carry it, so Recycle is a no-op on anything else.
	temp bool
}

// computeContig derives the dense row-major property from dims/strides.
func (m *Matrix) computeContig() bool {
	stride := 1
	for i := len(m.dims) - 1; i >= 0; i-- {
		if m.dims[i] != 1 && m.strides[i] != stride {
			return false
		}
		stride *= m.dims[i]
	}
	return true
}

// New allocates a zero-filled matrix with the given dimension sizes.
// New() allocates a scalar (0-dimensional) matrix holding one element.
func New(dims ...int) *Matrix {
	n := 1
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("matrix: negative dimension %d", d))
		}
		n *= d
	}
	m := &Matrix{
		data:    make([]float64, n),
		dims:    append([]int{}, dims...),
		strides: make([]int, len(dims)),
	}
	// Row-major: last dimension contiguous.
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		m.strides[i] = stride
		stride *= dims[i]
	}
	m.contig = true
	return m
}

// FromSlice builds a 1-D matrix that aliases data.
func FromSlice(data []float64) *Matrix {
	return &Matrix{data: data, dims: []int{len(data)}, strides: []int{1}, contig: true}
}

// Dims returns the number of dimensions.
func (m *Matrix) Dims() int { return len(m.dims) }

// Size returns the length of dimension d.
func (m *Matrix) Size(d int) int { return m.dims[d] }

// Shape returns a copy of all dimension sizes.
func (m *Matrix) Shape() []int { return append([]int{}, m.dims...) }

// Count returns the total number of elements.
func (m *Matrix) Count() int {
	n := 1
	for _, d := range m.dims {
		n *= d
	}
	return n
}

func (m *Matrix) index(idx []int) int {
	if len(idx) != len(m.dims) {
		panic(fmt.Sprintf("matrix: %d indices for %d-dim matrix", len(idx), len(m.dims)))
	}
	off := m.offset
	for d, i := range idx {
		if i < 0 || i >= m.dims[d] {
			panic(fmt.Sprintf("matrix: index %d out of range [0,%d) in dim %d", i, m.dims[d], d))
		}
		off += i * m.strides[d]
	}
	return off
}

// Get returns the element at the given indices.
func (m *Matrix) Get(idx ...int) float64 { return m.data[m.index(idx)] }

// Set stores v at the given indices.
func (m *Matrix) Set(v float64, idx ...int) { m.data[m.index(idx)] = v }

// At and SetAt are the 2-D fast paths used by kernels.
func (m *Matrix) At(r, c int) float64 { return m.data[m.offset+r*m.strides[0]+c*m.strides[1]] }

// SetAt stores v at row r, column c of a 2-D matrix.
func (m *Matrix) SetAt(r, c int, v float64) {
	m.data[m.offset+r*m.strides[0]+c*m.strides[1]] = v
}

// At1 and SetAt1 are the 1-D fast paths.
func (m *Matrix) At1(i int) float64 { return m.data[m.offset+i*m.strides[0]] }

// SetAt1 stores v at index i of a 1-D matrix.
func (m *Matrix) SetAt1(i int, v float64) { m.data[m.offset+i*m.strides[0]] = v }

// Stride returns the element stride of dimension d. Together with
// Offset, AtFlat, and SetFlat it lets compiled code (the interpreter's
// rule compiler) resolve a cell to one buffer position with a handful of
// integer multiply-adds instead of per-access index slices.
func (m *Matrix) Stride(d int) int { return m.strides[d] }

// Offset returns the view's base position in the backing buffer.
func (m *Matrix) Offset() int { return m.offset }

// AtFlat reads the element at a backing-buffer position previously
// computed from Offset and Stride.
func (m *Matrix) AtFlat(off int) float64 { return m.data[off] }

// SetFlat stores v at a backing-buffer position previously computed
// from Offset and Stride.
func (m *Matrix) SetFlat(off int, v float64) { m.data[off] = v }

// Region returns a view of the half-open hyper-rectangle [begin, end).
// The view shares storage with m.
func (m *Matrix) Region(begin, end []int) *Matrix {
	if len(begin) != len(m.dims) || len(end) != len(m.dims) {
		panic("matrix: region rank mismatch")
	}
	out := &Matrix{
		data:    m.data,
		dims:    make([]int, len(m.dims)),
		strides: append([]int{}, m.strides...),
		offset:  m.offset,
	}
	for d := range m.dims {
		if begin[d] < 0 || end[d] > m.dims[d] || begin[d] > end[d] {
			panic(fmt.Sprintf("matrix: bad region [%d,%d) in dim %d of size %d", begin[d], end[d], d, m.dims[d]))
		}
		out.offset += begin[d] * m.strides[d]
		out.dims[d] = end[d] - begin[d]
	}
	out.contig = out.computeContig()
	return out
}

// Detach drops a reusable view's reference to its backing storage while
// keeping its dims/strides capacity for the next SetWindow, so a pooled
// view does not pin the matrix it last windowed.
func (m *Matrix) Detach() { m.data = nil }

// SetWindow configures m in place as a strided view of data: element
// (i0, i1, …) of the row-major extents dims is data[off + Σ ik·strides[k]].
// It is how a compiled frame hands a window it has already bound and
// range-checked to code that takes a *Matrix. m's dims/strides storage
// is reused when capacity allows.
func (m *Matrix) SetWindow(data []float64, off int, dims []int64, strides []int) {
	nd := len(dims)
	if cap(m.dims) < nd {
		m.dims = make([]int, nd)
	}
	if cap(m.strides) < nd {
		m.strides = make([]int, nd)
	}
	m.dims, m.strides = m.dims[:nd], m.strides[:nd]
	for d, n := range dims {
		m.dims[d] = int(n)
	}
	copy(m.strides, strides)
	m.data, m.offset, m.temp = data, off, false
	m.contig = m.computeContig()
}

// Slice fixes dimension d at index i, returning a view with one fewer
// dimension (e.g. a row or column of a 2-D matrix).
func (m *Matrix) Slice(d, i int) *Matrix {
	if d < 0 || d >= len(m.dims) {
		panic("matrix: slice dimension out of range")
	}
	if i < 0 || i >= m.dims[d] {
		panic(fmt.Sprintf("matrix: slice index %d out of range [0,%d)", i, m.dims[d]))
	}
	out := &Matrix{
		data:    m.data,
		dims:    make([]int, 0, len(m.dims)-1),
		strides: make([]int, 0, len(m.dims)-1),
		offset:  m.offset + i*m.strides[d],
	}
	for k := range m.dims {
		if k == d {
			continue
		}
		out.dims = append(out.dims, m.dims[k])
		out.strides = append(out.strides, m.strides[k])
	}
	out.contig = out.computeContig()
	return out
}

// Transposed returns a transposed view of a 2-D matrix (no copy).
func (m *Matrix) Transposed() *Matrix {
	if len(m.dims) != 2 {
		panic("matrix: Transposed requires 2 dimensions")
	}
	out := &Matrix{
		data:    m.data,
		dims:    []int{m.dims[1], m.dims[0]},
		strides: []int{m.strides[1], m.strides[0]},
		offset:  m.offset,
	}
	out.contig = out.computeContig()
	return out
}

// IsContiguous reports whether the view's elements are a single dense run
// in row-major order. The property is cached at view construction.
func (m *Matrix) IsContiguous() bool { return m.contig }

// Data returns the underlying contiguous element slice. It panics for
// non-contiguous views; use Copy first in that case.
func (m *Matrix) Data() []float64 {
	if !m.IsContiguous() {
		panic("matrix: Data on non-contiguous view")
	}
	return m.data[m.offset : m.offset+m.Count()]
}

// Backing returns the full underlying storage slice, regardless of
// contiguity; callers address it with Offset and the per-dimension
// Stride values. This is the raw surface compiled kernels index into;
// Data remains the safe contiguous-run accessor.
func (m *Matrix) Backing() []float64 { return m.data }

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	m.Each(func(idx []int, _ float64) float64 { return v })
}

// Each applies f to every element in row-major order, storing the result.
// f receives the (reused) index slice and the current value.
func (m *Matrix) Each(f func(idx []int, v float64) float64) {
	if m.Count() == 0 {
		return
	}
	idx := make([]int, len(m.dims))
	if m.contig {
		// Contiguous fast path: row-major order is a single dense run,
		// so the per-element stride arithmetic reduces to off++.
		off := m.offset
		for {
			m.data[off] = f(idx, m.data[off])
			off++
			d := len(idx) - 1
			for d >= 0 {
				idx[d]++
				if idx[d] < m.dims[d] {
					break
				}
				idx[d] = 0
				d--
			}
			if d < 0 {
				return
			}
		}
	}
	for {
		off := m.offset
		for d, i := range idx {
			off += i * m.strides[d]
		}
		m.data[off] = f(idx, m.data[off])
		// Advance odometer.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < m.dims[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// Walk visits every element in row-major order without modifying it.
// Unlike Each it never writes, so concurrent Walks over a shared view
// are safe.
func (m *Matrix) Walk(f func(idx []int, v float64)) {
	if m.Count() == 0 {
		return
	}
	idx := make([]int, len(m.dims))
	if m.contig {
		off := m.offset
		for {
			f(idx, m.data[off])
			off++
			d := len(idx) - 1
			for d >= 0 {
				idx[d]++
				if idx[d] < m.dims[d] {
					break
				}
				idx[d] = 0
				d--
			}
			if d < 0 {
				return
			}
		}
	}
	for {
		off := m.offset
		for d, i := range idx {
			off += i * m.strides[d]
		}
		f(idx, m.data[off])
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < m.dims[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// Copy returns a freshly allocated contiguous copy of m.
func (m *Matrix) Copy() *Matrix {
	out := New(m.dims...)
	copyRuns(out, m)
	return out
}

// CopyFrom copies o's elements into m; shapes must match. Views of
// different buffers are copied one inner-contiguous run at a time. When
// m and o window the same buffer the copy goes element by element in
// row-major order, so an overlapping source is read as the earlier
// stores left it — not with memmove semantics.
func (m *Matrix) CopyFrom(o *Matrix) {
	if !shapeEqual(m.dims, o.dims) {
		panic(fmt.Sprintf("matrix: CopyFrom shape mismatch %v vs %v", m.dims, o.dims))
	}
	copyRuns(m, o)
}

// Zero sets every element to 0: one clear for a contiguous view, one
// per inner run otherwise.
func (m *Matrix) Zero() { copyRuns(m, nil) }

// SameShape reports whether m and o have equal dimension sizes.
func (m *Matrix) SameShape(o *Matrix) bool { return shapeEqual(m.dims, o.dims) }

// HasShape reports whether m's dimension sizes are exactly dims.
func (m *Matrix) HasShape(dims []int) bool { return shapeEqual(m.dims, dims) }

// SharesStorage reports whether m and any of others are views of one
// buffer. It compares buffer identity, not element ranges: disjoint
// regions of the same matrix share storage.
func (m *Matrix) SharesStorage(others ...*Matrix) bool {
	for _, o := range others {
		if len(m.data) > 0 && len(o.data) > 0 && &m.data[0] == &o.data[0] {
			return true
		}
	}
	return false
}

// denseSuffix counts the trailing dimensions that form one dense
// row-major run (unit-extent dimensions never break a run).
func (m *Matrix) denseSuffix() int {
	stride, k := 1, 0
	for i := len(m.dims) - 1; i >= 0; i-- {
		if m.dims[i] != 1 && m.strides[i] != stride {
			break
		}
		stride *= m.dims[i]
		k++
	}
	return k
}

// copyRuns stores src's elements (zeros when src is nil) into dst in
// row-major order, one run of the dimensions dense in both at a time.
// The caller has checked that the shapes match.
func copyRuns(dst, src *Matrix) {
	if dst.Count() == 0 {
		return
	}
	nd := len(dst.dims)
	k := dst.denseSuffix()
	if src != nil {
		if dst.SharesStorage(src) {
			k = 0 // possibly overlapping: keep forward element order
		} else if ks := src.denseSuffix(); ks < k {
			k = ks
		}
	}
	run := 1
	for _, d := range dst.dims[nd-k:] {
		run *= d
	}
	outer := dst.dims[:nd-k]
	var buf [4]int
	idx := buf[:]
	if len(outer) > len(buf) {
		idx = make([]int, len(outer))
	}
	idx = idx[:len(outer)]
	for {
		do := dst.offset
		for d, i := range idx {
			do += i * dst.strides[d]
		}
		if src == nil {
			clear(dst.data[do : do+run])
		} else {
			so := src.offset
			for d, i := range idx {
				so += i * src.strides[d]
			}
			copy(dst.data[do:do+run], src.data[so:so+run])
		}
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < outer[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports exact element-wise equality of same-shaped matrices.
func (m *Matrix) Equal(o *Matrix) bool { return m.MaxAbsDiff(o) == 0 }

// AlmostEqual reports element-wise equality within tol. This is the
// comparison the automated consistency checker (§3.5 of the paper) uses
// for iterative algorithms that do not produce exact answers.
func (m *Matrix) AlmostEqual(o *Matrix, tol float64) bool {
	return m.MaxAbsDiff(o) <= tol
}

// MaxAbsDiff returns the max over elements of |m-o|; +Inf if shapes differ.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if !shapeEqual(m.dims, o.dims) {
		return math.Inf(1)
	}
	worst := 0.0
	m.Walk(func(idx []int, v float64) {
		d := math.Abs(v - o.Get(idx...))
		if d > worst {
			worst = d
		}
	})
	return worst
}

// String renders small matrices for debugging; large ones are elided.
func (m *Matrix) String() string {
	const maxElems = 64
	if m.Count() > maxElems {
		return fmt.Sprintf("Matrix%v{...%d elems}", m.dims, m.Count())
	}
	switch len(m.dims) {
	case 0:
		return fmt.Sprintf("%g", m.data[m.offset])
	case 1:
		parts := make([]string, m.dims[0])
		for i := 0; i < m.dims[0]; i++ {
			parts[i] = fmt.Sprintf("%g", m.At1(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	case 2:
		rows := make([]string, m.dims[0])
		for r := 0; r < m.dims[0]; r++ {
			cols := make([]string, m.dims[1])
			for c := 0; c < m.dims[1]; c++ {
				cols[c] = fmt.Sprintf("%g", m.At(r, c))
			}
			rows[r] = "[" + strings.Join(cols, " ") + "]"
		}
		return "[" + strings.Join(rows, "\n ") + "]"
	default:
		return fmt.Sprintf("Matrix%v{%d elems}", m.dims, m.Count())
	}
}

// Scalar returns the single element of a 0-D matrix.
func (m *Matrix) Scalar() float64 {
	if len(m.dims) != 0 {
		panic("matrix: Scalar on non-scalar matrix")
	}
	return m.data[m.offset]
}

// SetScalar stores the single element of a 0-D matrix.
func (m *Matrix) SetScalar(v float64) {
	if len(m.dims) != 0 {
		panic("matrix: SetScalar on non-scalar matrix")
	}
	m.data[m.offset] = v
}
