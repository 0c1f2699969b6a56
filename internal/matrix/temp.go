package matrix

import (
	"fmt"
	"math/bits"
	"sync"
)

// Temporaries. A recursive PetaBricks program produces matrices that
// live for one expression — the halves handed to Merge, the products
// handed to MatrixAdd — hundreds of times per run. NewTemp and Recycle
// keep their storage, header included, on a free list so that steady
// state allocates nothing for them.
//
// The list is one sync.Pool per size class (buffer capacities are
// powers of two, so a recycled buffer serves any request of its class),
// which makes it per-P, lock-free and clearable by the garbage
// collector: an idle process holds no temporaries after two cycles.

// maxTempClass bounds what the free list keeps: buffers above
// 2^maxTempClass elements (128 MiB) are allocated and collected as
// ordinary matrices.
const maxTempClass = 24

var tempPools [maxTempClass + 1]sync.Pool

// tempClass is the size class serving n elements: the smallest c with
// 1<<c >= n.
func tempClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// NewTemp is New for a matrix whose owner will Recycle it: zero-filled,
// contiguous, and drawn from the free list when the list has storage of
// the right class. A temporary that is never recycled is simply
// collected.
func NewTemp(dims ...int) *Matrix {
	n := 1
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("matrix: negative dimension %d", d))
		}
		n *= d
	}
	c := tempClass(n)
	if c > maxTempClass {
		return New(dims...)
	}
	m, _ := tempPools[c].Get().(*Matrix)
	if m == nil {
		m = &Matrix{data: make([]float64, n, 1<<c)}
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.dims = append(m.dims[:0], dims...)
	m.strides = append(m.strides[:0], dims...)
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		m.strides[i] = stride
		stride *= dims[i]
	}
	m.offset, m.contig, m.temp = 0, true, true
	return m
}

// Recycle returns a matrix obtained from NewTemp to the free list. The
// caller must hold the only live reference: neither m nor any view of
// it may be used afterwards. On any other matrix — one made by New, a
// view, a temporary already recycled — it does nothing.
func (m *Matrix) Recycle() {
	if !m.temp {
		return
	}
	m.temp = false
	tempPools[tempClass(cap(m.data))].Put(m)
}
