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

// benchMatrixAddSrc is the corpus's MatrixAdd: two loads, an add and a
// store per cell.
const benchMatrixAddSrc = `
transform MatrixAdd
from X[w, h], Y[w, h]
to Z[w, h]
{
  to (Z.cell(x, y) z) from (X.cell(x, y) a, Y.cell(x, y) b) {
    z = a + b;
  }
}
`

// BenchmarkRunBox reports the vm's time per cell (ns/cell), two ways:
// box runs RunBox once per box, as the interpreter's box walker does;
// cell runs RunCell at each center, as the benchmark's jit.cell_ns_*
// probes do. The cases are Heat1D's stencil rule at n = 4096 (t = 1..4
// over the interior) in whole rows and in 4-cell rows, the size of a
// tile at pbc.parGrain=4; the Pointwise rule at n = 4096; MatrixAdd
// over a 64×64 box; and MatrixMultiply's base rule, a dot of length 64
// per cell, over a 64×64 box.
func BenchmarkRunBox(b *testing.B) {
	const n = 4096
	var heat, heat4 [][][2]int64
	for t := int64(1); t <= 4; t++ {
		heat = append(heat, [][2]int64{{1, n - 1}, {t, t + 1}})
		for x := int64(1); x+4 <= n-1; x += 4 {
			heat4 = append(heat4, [][2]int64{{x, x + 4}, {t, t + 1}})
		}
	}
	for _, c := range []struct {
		name  string
		src   string
		rule  int
		sizes map[string]int64
		boxes [][][2]int64
	}{
		{"stencil", parser.Heat1DSrc, 1, map[string]int64{"n": n}, heat},
		{"stencil4", parser.Heat1DSrc, 1, map[string]int64{"n": n}, heat4},
		{"pointwise", benchPointwiseSrc, 0, map[string]int64{"n": n}, [][][2]int64{{{0, n}}}},
		{"matrixadd", benchMatrixAddSrc, 0, map[string]int64{"w": 64, "h": 64}, [][][2]int64{{{0, 64}, {0, 64}}}},
		{"matmul", parser.MatrixMultiplySrc, 0, map[string]int64{"w": 64, "c": 64, "h": 64}, [][][2]int64{{{0, 64}, {0, 64}}}},
	} {
		p, res, err := lowerRule(b, c.src, c.rule, c.sizes)
		if err != nil {
			b.Fatal(err)
		}
		f := p.NewFrame()
		mats := corpusMatrices(b, res, c.sizes)
		for i, r := range p.Refs {
			f.BindMatrix(i, mats[r.Matrix])
		}
		order := make([]analysis.LexDim, p.NCenter)
		for d := range order {
			order[d] = analysis.LexDim{Dim: d, Dir: 1}
		}
		center := make([]int64, p.NCenter)
		cells := int64(0)
		for _, r := range c.boxes {
			v := int64(1)
			for _, iv := range r {
				v *= iv[1] - iv[0]
			}
			cells += v
		}
		nsPerCell := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells*int64(b.N)), "ns/cell")
		}
		b.Run(c.name+"/box", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range c.boxes {
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
				for _, r := range c.boxes {
					for d := range r {
						center[d] = r[d][0]
					}
					// Dimension 0 fastest, as the box walks.
					for d := 0; d < len(r); {
						if err := f.RunCell(center); err != nil {
							b.Fatal(err)
						}
						for d = 0; d < len(r); d++ {
							if center[d]++; center[d] < r[d][1] {
								break
							}
							center[d] = r[d][0]
						}
					}
				}
			}
			nsPerCell(b)
		})
	}
}
