package jit

import (
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/parser"
)

// benchPointwiseSrc is the benchmark's Pointwise program: a declaration,
// a branch and arithmetic per cell.
const benchPointwiseSrc = `
transform Pointwise
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) {
    double t = 2 * a + 1;
    if (t > 500) { t = t - 500; } else { t = -t; }
    b = t * t + 0.5 * a - 3;
  }
}
`

// BenchmarkRunBox reports the vm's time per cell (ns/cell) for Heat1D's
// stencil rule (t = 1..4 over the interior) and the Pointwise rule at
// n = 4096, two ways: box runs RunBox once per whole row, as the
// interpreter's box walker does; cell runs RunCell at each center, as
// the benchmark's jit.cell_ns_* probes do.
func BenchmarkRunBox(b *testing.B) {
	const n = 4096
	var heat [][][2]int64
	for t := int64(1); t <= 4; t++ {
		heat = append(heat, [][2]int64{{1, n - 1}, {t, t + 1}})
	}
	for _, c := range []struct {
		name string
		src  string
		rule int
		rows [][][2]int64 // boxes moving along dimension 0 only
	}{
		{"stencil", parser.Heat1DSrc, 1, heat},
		{"pointwise", benchPointwiseSrc, 0, [][][2]int64{{{0, n}}}},
	} {
		sizes := map[string]int64{"n": n}
		p, res, err := lowerRule(b, c.src, c.rule, sizes)
		if err != nil {
			b.Fatal(err)
		}
		f := p.NewFrame()
		mats := corpusMatrices(b, res, sizes)
		for i, r := range p.Refs {
			f.BindMatrix(i, mats[r.Matrix])
		}
		order := make([]analysis.LexDim, p.NCenter)
		for d := range order {
			order[d] = analysis.LexDim{Dim: d, Dir: 1}
		}
		center := make([]int64, p.NCenter)
		cells := int64(0)
		for _, r := range c.rows {
			cells += r[0][1] - r[0][0]
		}
		nsPerCell := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells*int64(b.N)), "ns/cell")
		}
		b.Run(c.name+"/box", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range c.rows {
					if err := f.RunBox(center, r, order); err != nil {
						b.Fatal(err)
					}
				}
			}
			nsPerCell(b)
		})
		b.Run(c.name+"/cell", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range c.rows {
					for d := range r {
						center[d] = r[d][0]
					}
					for ; center[0] < r[0][1]; center[0]++ {
						if err := f.RunCell(center); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			nsPerCell(b)
		})
	}
}
