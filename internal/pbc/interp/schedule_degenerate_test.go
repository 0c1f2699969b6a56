package interp

import (
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// degenerateStencilSrc is a versioned 3-point stencil whose choice grid
// has symbolically disjoint boundary regions [0,1) and [n-1,n). Its
// analysis only orders those boundaries under n >= 2; at n = 1 runtime
// clamping collapses them onto the same concrete cells, so the parallel
// schedule's dependency edges no longer serialize the steps that touch
// them. Found by pbfuzz (gen seed 1, the template family): two cyclic
// wavefront steps raced on the shared cells. The engine must fall back
// to the sequential schedule for sizes below Result.MinInputSize.
const degenerateStencilSrc = `
transform DegStencil
template <T>
from A[n]
to B<0..T>[n]
{
  to (B.cell(i, 0) b) from (A.cell(i) a) {
    b = a;
  }

  priority(1) to (B.cell(i, t) b)
  from (B.cell((i - 1), (t - 1)) l, B.cell(i, (t - 1)) c, B.cell((i + 1), (t - 1)) r)
  where t >= 1 {
    b = ((l + c) + r);
  }

  priority(2) to (B.cell(i, t) b) from (B.cell(i, (t - 1)) c) where t >= 1 {
    b = c;
  }
}
`

// TestDegenerateSizeRunsSequentially is the race regression: run the
// stencil with a pool at sizes below and at the analysis assumption,
// many times, under every execution mode. Before the fallback this
// raced (and failed under -race) within a few hundred iterations.
func TestDegenerateSizeRunsSequentially(t *testing.T) {
	prog, err := parser.Parse(degenerateStencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewPool(4)
	defer pool.Shutdown()
	for n := 1; n <= 3; n++ {
		for _, tier := range []int64{EngineInterp, EngineJIT} {
			cfg := choice.NewConfig()
			cfg.SetInt(EngineKey, tier)
			cfg.SetInt(ParGrainKey, 1)
			view := eng.WithConfig(cfg)
			view.Pool = pool
			var want *matrix.Matrix
			for iter := 0; iter < 200; iter++ {
				in := matrix.New(n)
				for i := 0; i < n; i++ {
					in.SetAt1(i, float64(i%5-2))
				}
				out, err := view.RunTemplate("DegStencil", []int64{3}, map[string]*matrix.Matrix{"A": in})
				if err != nil {
					t.Fatalf("n=%d engine=%d: %v", n, tier, err)
				}
				b := out["B"]
				if want == nil {
					want = b
				} else if !want.Equal(b) {
					t.Fatalf("n=%d engine=%d iter=%d: outputs differ across runs", n, tier, iter)
				}
			}
			want = nil
		}
	}
}

// TestSizesMeetAssumption pins the fallback predicate itself: the
// stencil's analysis must record a MinInputSize above 1, sizes below it
// must be routed to the sequential schedule, and sizes at or above it
// must keep the parallel path.
func TestSizesMeetAssumption(t *testing.T) {
	prog, err := parser.Parse(degenerateStencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := eng.instantiate("DegStencil", []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := eng.Analysis(inst)
	if !ok {
		t.Fatalf("no cached analysis for %s", inst)
	}
	if res.MinInputSize < 2 {
		t.Fatalf("MinInputSize = %d, want >= 2 (3-point stencil boundaries need n >= 2 to order)", res.MinInputSize)
	}
	for _, tc := range []struct {
		n    int64
		want bool
	}{
		{1, false},
		{res.MinInputSize - 1, false},
		{res.MinInputSize, true},
		{res.MinInputSize + 5, true},
	} {
		ex := &exec{engine: eng, res: res, sizeVals: []int64{tc.n}}
		if got := ex.sizesMeetAssumption(); got != tc.want {
			t.Errorf("sizesMeetAssumption(n=%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
