package interp

import (
	"fmt"
	"math"
	"testing"

	"petabricks/internal/matrix"
	"petabricks/internal/obs"
	"petabricks/internal/runtime"
)

// Programs whose cyclic steps interleave two nodes per wavefront slice:
// B reads C one index back and C copies B, so the analysis merges them
// into one cyclic step, which a plan keeps as a step-granular task.
const (
	// multiWaveSrc is the analysis tests' Wave: 1-D, one cell per slice.
	multiWaveSrc = `
transform Wave
from A[n]
to B[n]
through C[n]
{
  to (B.cell(i) b) from (A.cell(i) a, C.cell(i-1) c) { b = a + 0.5 * c; }
  to (C.cell(i) c) from (B.cell(i) b) { c = b; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
  secondary to (C.cell(i) c) from (A.cell(i) a) { c = a; }
}
`
	// multiWave2Src is Wave over rank-2 matrices stepping along y, so
	// each slice is a whole row of independent cells.
	multiWave2Src = `
transform Wave2
from A[w, h]
to B[w, h]
through C[w, h]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a, C.cell(x, y-1) c) { b = a + 0.5 * c + x; }
  to (C.cell(x, y) c) from (B.cell(x, y) b) { c = b; }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a; }
  secondary to (C.cell(x, y) c) from (A.cell(x, y) a) { c = a; }
}
`
)

// TestMultiNodeCyclicSteps runs the two-node wavefronts on the AST tier
// and the vm, sequentially and on a 2-worker pool, at pbc.parGrain 2 and
// the default. The slices are wider than twice either grain. The
// sequential AST run must match a hand-written recurrence, every other
// run must reproduce it bit for bit, and each pooled run must go through
// its plan and run the cyclic step as a step-granular task.
func TestMultiNodeCyclicSteps(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	counter := func(name, label, value string) float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name && s.Labels[label] == value {
				return s.Value
			}
		}
		return 0
	}
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	cases := []struct {
		src, name string
		w, h      int // Wave's n is w
	}{
		{multiWaveSrc, "Wave", 600, 1},
		{multiWave2Src, "Wave2", 520, 6},
	}
	for _, tc := range cases {
		e := engine(t, tc.src)
		in := matrix.New(tc.w)
		if tc.name == "Wave2" {
			in = matrix.New(tc.h, tc.w)
		}
		a := in.Backing()
		for i := range a {
			a[i] = float64(i%17) + 0.25
		}
		// The hand oracle: B holds A on the first slice, and
		// a + 0.5·(B one slice back) (+ x for Wave2) after it.
		want := make([]float64, len(a))
		for i := range a {
			switch {
			case tc.name == "Wave" && i > 0:
				want[i] = a[i] + float64(0.5*want[i-1])
			case tc.name == "Wave2" && i >= tc.w:
				want[i] = a[i] + float64(0.5*want[i-tc.w]) + float64(i%tc.w)
			default:
				want[i] = a[i]
			}
		}
		ref, err := tileRun(e, tc.name, in, EngineInterp, DefaultParGrain, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, v := range ref["B"].Copy().Data() {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%s: B flat %d = %v, want %v", tc.name, i, v, want[i])
			}
		}
		for _, grain := range []int64{2, DefaultParGrain} {
			for _, mode := range []int64{EngineInterp, EngineJIT} {
				for _, p := range []*runtime.Pool{nil, pool} {
					label := fmt.Sprintf("%s grain=%d engine=%d pooled=%v", tc.name, grain, mode, p != nil)
					cyclic := counter("pb_interp_steps_total", "kind", "cyclic")
					parallel := counter("pb_interp_schedules_total", "shape", "parallel")
					got, err := tileRun(e, tc.name, in, mode, grain, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameOutputs(t, label, ref, got)
					if p == nil {
						continue
					}
					if counter("pb_interp_schedules_total", "shape", "parallel") == parallel {
						t.Errorf("%s: the run did not go through a plan", label)
					}
					if counter("pb_interp_steps_total", "kind", "cyclic") == cyclic {
						t.Errorf("%s: no step-granular cyclic task ran", label)
					}
				}
			}
		}
	}
}
