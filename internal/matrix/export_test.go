package matrix

import "math"

// RMS returns the root-mean-square of all elements.
func (m *Matrix) RMS() float64 {
	n := m.Count()
	if n == 0 {
		return 0
	}
	sum := 0.0
	m.Walk(func(_ []int, v float64) { sum += v * v })
	return math.Sqrt(sum / float64(n))
}

// CollapseUnitDims drops unit-extent dimensions in place while more
// than one dimension remains, so a 1×w row view becomes a 1-D vector —
// the same collapsing Slice performs, without allocating a new view.
// When every dimension is unit-extent, the last one is kept.
func (m *Matrix) CollapseUnitDims() {
	w := 0
	for d := 0; d < len(m.dims); d++ {
		if m.dims[d] == 1 && (len(m.dims)-d > 1 || w > 0) {
			continue
		}
		m.dims[w] = m.dims[d]
		m.strides[w] = m.strides[d]
		w++
	}
	m.dims = m.dims[:w]
	m.strides = m.strides[:w]
	m.contig = m.computeContig()
}
