package interp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// tierConfigs returns one config per execution tier, in oracle-first
// order: AST, jit.
func tierConfigs() []*choice.Config {
	ast, jit := choice.NewConfig(), choice.NewConfig()
	ast.SetInt(EngineKey, EngineInterp)
	jit.SetInt(EngineKey, EngineJIT)
	return []*choice.Config{ast, jit}
}

const regionShapeSrc = `
transform Half from A[n] to B[n/2] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }
transform Wrap from A[n] to B[n] { to (B b) from (A a) { b = Half(a); } }
transform Grid from A[w, h] to B[w, h] { to (B b) from (A.region(0, 0, w/2, h) a) { b = copy(a); } }
transform View from A[n] to B[n] { to (B b) from (A.region(0, n/2) a) { b = a; } }
transform Outer from A[n] to B[n] {
  to (B.region(0, n/2) b1, B.region(n/2, n) b2) from (A a) { b1 = Half(a); b2 = Wrap(a); }
}
`

// TestRegionShapeError: assigning a value of the wrong shape to a region
// binding used to panic the process (matrix: CopyFrom shape mismatch),
// with a text that depended on the scheduler. It is one typed error,
// byte-identical across tiers and across sequential and pool
// execution, raised after the callee has run — and the engine and pool
// work afterwards.
func TestRegionShapeError(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	for _, tc := range []struct {
		transform string
		in        *matrix.Matrix
		want      RegionShapeError
		text      string
	}{
		{"Wrap", matrix.New(8), RegionShapeError{"rule 0", "b", []int{8}, []int{4}},
			"interp: rule 0 binding b: cannot assign a value of shape [4] to a region of shape [8]"},
		{"Wrap", matrix.New(1), RegionShapeError{"rule 0", "b", []int{1}, []int{0}},
			"interp: rule 0 binding b: cannot assign a value of shape [0] to a region of shape [1]"},
		{"Grid", matrix.New(3, 4), RegionShapeError{"rule 0", "b", []int{4, 3}, []int{2, 3}},
			"interp: rule 0 binding b: cannot assign a value of shape [2 3] to a region of shape [4 3]"},
		{"View", matrix.New(6), RegionShapeError{"rule 0", "b", []int{6}, []int{3}},
			"interp: rule 0 binding b: cannot assign a value of shape [3] to a region of shape [6]"},
		// b1 = Half(a) fits (n=4: [2] into [2]); the nested Wrap fails first
		// with its own error, which passes through unchanged.
		{"Outer", matrix.New(4), RegionShapeError{"rule 0", "b", []int{4}, []int{2}},
			"interp: rule 0 binding b: cannot assign a value of shape [2] to a region of shape [4]"},
	} {
		for _, cfg := range tierConfigs() {
			for _, sched := range []struct {
				name string
				pool *runtime.Pool
			}{{"seq", nil}, {"pool", pool}} {
				label := fmt.Sprintf("%s%v/engine=%d/%s", tc.transform, tc.in.Shape(), cfg.Int(EngineKey, -1), sched.name)
				e := engine(t, regionShapeSrc)
				e.Cfg, e.Pool = cfg, sched.pool
				_, err := e.Run1(tc.transform, tc.in)
				var se *RegionShapeError
				if !errors.As(err, &se) {
					t.Fatalf("%s: err = %v, want a *RegionShapeError", label, err)
				}
				if !reflect.DeepEqual(*se, tc.want) || err.Error() != tc.text {
					t.Errorf("%s: err = %q (%+v)\nwant  %q", label, err, *se, tc.text)
				}
				// Same engine, same pool: a call that fits still works.
				out, err := e.Run1("Half", vec(5, 6, 7, 8))
				if err != nil || out.Size(0) != 2 || out.At1(1) != 6 {
					t.Errorf("%s: engine not reusable after the error: %v %v", label, out, err)
				}
			}
		}
	}
}

// TestDegenerateRegionAssign: a one-cell vector still takes a one-cell
// value of another rank (a 1×1 result into a length-1 vector), as it did
// before shapes were checked.
func TestDegenerateRegionAssign(t *testing.T) {
	const src = `
transform Total from A[n] to S[1, 1] { to (S.cell(0, 0) s) from (A a) { s = sum(a); } }
transform One from A[n] to B[1] { to (B b) from (A a) { b = Total(a); } }
`
	for _, cfg := range tierConfigs() {
		e := engine(t, src)
		e.Cfg = cfg
		out, err := e.Run1("One", vec(1, 2, 3.5))
		if err != nil || out.At1(0) != 6.5 {
			t.Errorf("engine=%d: One = %v, %v; want [6.5]", cfg.Int(EngineKey, -1), out, err)
		}
	}
}

const callPathsSrc = `
transform Inc from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a + 1; } }
transform Twice from A[n] to B[2*n] {
  to (B.region(0, n) b1, B.region(n, 2*n) b2) from (A a) {
    b1 = Inc(a);
    b1 = Inc(b1);
    b2 = Inc(b1);
    b2 = Inc(Inc(b2));
  }
}
`

// TestCallResultPaths: pb_interp_call_results_total says which `b =
// T(…)` results the callee wrote into b and which had to be copied. A
// destination sharing its matrix with an argument is copied — the same
// region or a disjoint one, the check is on the buffer — and a nested
// call in between breaks the sharing. The AST tier is not counted.
func TestCallResultPaths(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	paths := func() (inplace, copied float64) {
		for _, s := range reg.Snapshot() {
			if s.Name == "pb_interp_call_results_total" {
				switch s.Labels["path"] {
				case "inplace":
					inplace += s.Value
				case "copied":
					copied += s.Value
				}
			}
		}
		return
	}
	want := vec(3, 4, 6, 7) // a+2, then (a+2)+1+2
	for i, cfg := range tierConfigs() {
		e := engine(t, callPathsSrc)
		e.Cfg = cfg
		in0, cp0 := paths()
		out, err := e.Run1("Twice", vec(1, 2))
		if err != nil || !out.Equal(want) {
			t.Fatalf("engine=%d: Twice = %v, %v; want %v", cfg.Int(EngineKey, -1), out, err, want)
		}
		in1, cp1 := paths()
		wantIn, wantCp := 2.0, 2.0 // b1 = Inc(a), b2 = Inc(Inc(b2)); b1 = Inc(b1), b2 = Inc(b1)
		if i == 0 {
			wantIn, wantCp = 0, 0
		}
		if in1-in0 != wantIn || cp1-cp0 != wantCp {
			t.Errorf("engine=%d: %v in place, %v copied; want %v, %v", cfg.Int(EngineKey, -1), in1-in0, cp1-cp0, wantIn, wantCp)
		}
	}

	// The macro workloads never copy: every result lands in the caller's
	// region (n=64 is 3 Merge + 4 SelectionSort assignments).
	ms := engine(t, parser.MergeSortSrc)
	ms.Cfg = macroMergeSortCfg()
	in0, cp0 := paths()
	if _, err := ms.Run1("MergeSortDSL", benchVec(64, 3)); err != nil {
		t.Fatal(err)
	}
	in1, cp1 := paths()
	if in1-in0 != 7 || cp1 != cp0 {
		t.Errorf("MergeSortDSL n=64: %v in place, %v copied; want 7, 0", in1-in0, cp1-cp0)
	}
	mm := engine(t, parser.MatrixMultiplySrc)
	mm.Cfg = macroMatMulCfg()
	if _, err := mm.Run("MatrixMultiply", macroMatMulInputs(32)); err != nil {
		t.Fatal(err)
	}
	if in2, cp2 := paths(); in2 == in1 || cp2 != cp1 {
		t.Errorf("MatrixMultiply n=32: %v in place, %v copied; want > 0, 0", in2-in1, cp2-cp1)
	}
}

// TestTopLevelOutputsNeverRecycled: what Engine.Run returns belongs to
// the caller. A later run — which recycles every temporary the first
// one used — neither changes an earlier result nor is changed through
// one.
func TestTopLevelOutputsNeverRecycled(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	e := engine(t, parser.MergeSortSrc)
	e.Cfg, e.Pool = macroMergeSortCfg(), pool
	sorted := func(m *matrix.Matrix) []float64 {
		s := append([]float64{}, m.Data()...)
		sort.Float64s(s)
		return s
	}
	inA, inB := benchVec(256, 1), benchVec(256, 2)
	outA, err := e.Run1("MergeSortDSL", inA)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := e.Run1("MergeSortDSL", inB)
	if err != nil {
		t.Fatal(err)
	}
	if outA.SharesStorage(outB) || outA.SharesStorage(inA) {
		t.Fatal("two top-level results share a buffer")
	}
	if !reflect.DeepEqual(outA.Data(), sorted(inA)) {
		t.Error("the second run changed the first run's result")
	}
	outA.Fill(math.NaN())
	outA.Recycle() // not a temporary: must not reach the free list
	for i := 0; i < 3; i++ {
		outC, err := e.Run1("MergeSortDSL", inB)
		if err != nil {
			t.Fatal(err)
		}
		if outC.SharesStorage(outA) || !reflect.DeepEqual(outC.Data(), sorted(inB)) {
			t.Fatal("a run after the first result was overwritten is wrong")
		}
	}
	if !reflect.DeepEqual(outB.Data(), sorted(inB)) {
		t.Error("later runs changed the second run's result")
	}
}

// TestReleasedExecDropsInvocation: an invocation returned to the pool
// keeps nothing — no matrix, engine, worker, compiled holder, key or
// size map of the request it served — in the style of
// TestReleasedFrameDropsInvocation.
func TestReleasedExecDropsInvocation(t *testing.T) {
	e := engine(t, parser.MatrixMultiplySrc)
	e.Cfg = macroMatMulCfg()
	ti, _ := e.transform("MatrixMultiply")
	ex, err := e.run(ti, ti.positional(macroMatMulInputs(16)), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.comp == nil || ex.key == "" || ex.sizes() == nil || len(ex.outputs()) != 1 {
		t.Fatal("the run left nothing to drop; the test is vacuous")
	}
	ex.release()
	if !reflect.ValueOf(ex).Elem().IsZero() {
		t.Errorf("released exec is not zero: %+v", ex)
	}
}
