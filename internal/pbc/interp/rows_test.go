package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

// Programs whose walks cut rows at the seams of the row walker. Each
// body divides by a - 13, so an input cell holding 13 makes the run fail
// mid-row in every tier.
const (
	// rowsPointwiseSrc is a rank-2 pointwise rule: at pbc.parGrain=3 on
	// a 5-wide region, a plan's tiles hold partial rows.
	rowsPointwiseSrc = `
transform P2
from A[w, h]
to B[w, h]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = 2 * a + x - y + 1 / (a - 13);
  }
}
`
	// rowsRevAreaSrc is SummedArea mirrored: the interior is a lex
	// wavefront descending in both dimensions, the two edges are cyclic
	// steps with a descending axis over rank-2 slices.
	rowsRevAreaSrc = `
transform RevArea
from A[w, h]
to B[w, h]
{
  primary to (B.cell(x, y) b)
  from (A.cell(x, y) a, B.cell(x+1, y) r, B.cell(x, y+1) u, B.cell(x+1, y+1) d) {
    b = a + r + u - d + 1 / (a - 13);
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x+1, y) r) where y == h-1 {
    b = a + r + 1 / (a - 13);
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x, y+1) u) where x == w-1 {
    b = a + u + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
	// rowsRevScanSrc is a suffix scan: one 1-D cyclic step with a
	// descending axis, which a sequential run walks as one row.
	rowsRevScanSrc = `
transform RevScan
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i+1) r) {
    b = a + r + 1 / (a - 13);
  }
  priority(2) to (B.cell(i) b) from (A.cell(i) a) {
    b = a;
  }
}
`
	// rowsRevWave3Src is a descending cyclic step along z over rank-2
	// slices, which a sequential run walks as one rank-3 box.
	rowsRevWave3Src = `
transform RevWave3
from A[w, h, d]
to B[w, h, d]
{
  to (B.cell(x, y, z) b) from (A.cell(x, y, z) a, B.cell(x, y, z+1) r) {
    b = a + 0.5 * r + x - y + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y, z) b) from (A.cell(x, y, z) a) {
    b = a;
  }
}
`
	// rowsScalarSrc is a cell rule over a zero-rank region: one cell,
	// no row to walk.
	rowsScalarSrc = `
transform Scalar
from A[n]
to B
{
  to (B.cell() b) from (A.cell(1) a) {
    b = 2 * a + 1 / (a - 13);
  }
}
`
)

// TestRowSeamsMatchInterpreter runs programs whose cell loops are cut
// into rows at tile and wavefront seams — plan tiles that end mid-row,
// a descending lex wavefront, descending cyclic axes over rank-1, -2 and
// -3 boxes — and a zero-rank region, on the bytecode tier, sequentially,
// on a pool with plans, and on a pool with plans declined (the serial
// step loop). Each must reproduce the AST interpreter: the same output
// bit for bit, or, with a 13 in the input, the same division error.
func TestRowSeamsMatchInterpreter(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	cases := []struct {
		src, name string
		dims      []int // row-major
		bad       []int // row-major index of the cell set to 13
	}{
		// Grain 3 cuts the 5-wide rows into tiles 4 and 1 cells wide.
		{rowsPointwiseSrc, "P2", []int{3, 5}, []int{1, 2}},
		{rowsRevAreaSrc, "RevArea", []int{4, 5}, []int{1, 2}},
		{rowsRevAreaSrc, "RevArea", []int{4, 5}, []int{3, 1}}, // on the y == h-1 edge
		{rowsRevScanSrc, "RevScan", []int{9}, []int{4}},
		{rowsRevWave3Src, "RevWave3", []int{3, 4, 5}, []int{1, 2, 3}},
		{rowsScalarSrc, "Scalar", []int{3}, []int{1}},
	}
	for _, tc := range cases {
		e := engine(t, tc.src)
		for _, failing := range []bool{false, true} {
			in := matrix.New(tc.dims...)
			for i := range in.Backing() {
				in.Backing()[i] = float64(i) + 0.5
			}
			if failing {
				in.Set(13, tc.bad...)
			}
			run := func(mode int64, pooled, decline bool) (map[string]*matrix.Matrix, error) {
				cfg := choice.NewConfig()
				cfg.SetInt(EngineKey, mode)
				cfg.SetInt(ParGrainKey, 3)
				v := e.WithConfig(cfg)
				if decline {
					// Plans are memoized per engine: only a fresh one
					// takes the step loop.
					v = engine(t, tc.src).WithConfig(cfg)
				}
				v.Pool = nil
				if pooled {
					v.Pool = pool
				}
				DeclinePlans(decline)
				defer DeclinePlans(false)
				return v.Run(tc.name, map[string]*matrix.Matrix{"A": in})
			}
			ref, refErr := run(EngineInterp, false, false)
			if failing != (refErr != nil) {
				t.Fatalf("%s failing=%v: interpreter error %v", tc.name, failing, refErr)
			}
			const mode = EngineJIT
			for _, ax := range []struct{ pooled, decline bool }{{false, false}, {true, false}, {true, true}} {
				label := fmt.Sprintf("%s bad=%v failing=%v engine=%d pool=%v declined=%v",
					tc.name, tc.bad, failing, mode, ax.pooled, ax.decline)
				got, err := run(mode, ax.pooled, ax.decline)
				if failing {
					if err == nil || !strings.Contains(err.Error(), "division by zero") {
						t.Errorf("%s: error %v, interpreter %v", label, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for name, m := range ref {
					a, b := m.Copy().Data(), got[name].Copy().Data()
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("%s: %s flat %d = %v, interpreter %v", label, name, i, b[i], a[i])
						}
					}
				}
			}
		}
	}
}
