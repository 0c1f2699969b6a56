package interp

import (
	"errors"
	"testing"

	"petabricks/internal/matrix"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// TestReentryAllocCeilings fails when per-call work creeps back into
// transform re-entry (an output allocated per nested call, an exec
// struct, a map or a rendered cache key per invocation, a frame built
// per macro call): the ceilings sit about 25% above the steady-state
// counts of the two macro workloads. Those were 15011 and 12189 objects
// per run before re-entry was compiled per transform, 2945 and 1980
// before nested calls wrote into the caller's regions (the multiply then
// still made 136); what is left is the top-level invocation (outputs,
// key, result map, pool entry).
func TestReentryAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	mergeSort, matMul := macroEngines(t, pool)
	for _, tc := range []struct {
		name    string
		run     func() error
		ceiling float64
	}{
		{"MergeSortDSL n=1024 (32:0 inf:1)", mergeSort, 20},       // measured 16
		{"MatrixMultiply n=32 (8:0 16:1 24:2 inf:3)", matMul, 20}, // measured 16
	} {
		for i := 0; i < 3; i++ { // compile, plan, fill the frame pools
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(20, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/run (ceiling %.0f)", tc.name, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/run, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestReentryEntersPoolOnce: one recursive MatrixMultiply run (437/2
// nested calls, 60 of them joining a one-task plan) enters the pool
// once and joins everything beneath inline, so the scheduler sees O(1)
// tasks, parks and wakes — not one of each per nested join.
func TestReentryEntersPoolOnce(t *testing.T) {
	reg := obs.NewRegistry()
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	pool.Instrument(reg)
	sum := func(name string) (n float64) {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				n += s.Value
			}
		}
		return n
	}
	_, matMul := macroEngines(t, pool)
	for i := 0; i < 3; i++ {
		if err := matMul(); err != nil {
			t.Fatal(err)
		}
	}
	tasks, parks, wakes := pool.Executed(), sum("pb_pool_worker_parks_total"), sum("pb_pool_worker_wakes_total")
	if err := matMul(); err != nil {
		t.Fatal(err)
	}
	if d := pool.Executed() - tasks; d > 10 {
		t.Errorf("one run executed %d pool tasks, want <= 10", d)
	}
	if d := sum("pb_pool_worker_parks_total") - parks; d > 4 {
		t.Errorf("one run parked workers %v times, want <= 4", d)
	}
	if d := sum("pb_pool_worker_wakes_total") - wakes; d > 4 {
		t.Errorf("one run woke workers %v times, want <= 4", d)
	}
}

// TestClosedPoolTypedError: a shut-down pool yields the same typed
// error, without panicking, whether the invocation enters it at the
// macro level (MergeSortDSL) or through a cell-rule plan (Heat1D), and
// the engine works again once given a live pool.
func TestClosedPoolTypedError(t *testing.T) {
	dead := runtime.NewPool(2)
	dead.Shutdown()
	ms := engine(t, parser.MergeSortSrc)
	ms.Cfg = macroMergeSortCfg()
	heat := engine(t, parser.Heat1DSrc)
	for _, tc := range []struct {
		e    *Engine
		name string
		in   *matrix.Matrix
	}{
		{ms, "MergeSortDSL", benchVec(100, 1)},
		{heat, "Heat1D", benchVec(64, 2)},
	} {
		tc.e.Pool = dead
		if _, err := tc.e.Run1(tc.name, tc.in); !errors.Is(err, runtime.ErrPoolClosed) {
			t.Errorf("%s on a closed pool: err = %v, want runtime.ErrPoolClosed", tc.name, err)
		}
		live := runtime.NewPool(2)
		tc.e.Pool = live
		if _, err := tc.e.Run1(tc.name, tc.in); err != nil {
			t.Errorf("%s after replacing the pool: %v", tc.name, err)
		}
		live.Shutdown()
	}
}

// TestReleasedFrameDropsInvocation: a frame returned to its pool keeps
// nothing of the invocation it served — a pooled vm frame would
// otherwise pin a request's inputs, its exec (and with it the worker)
// and nested-call results.
func TestReleasedFrameDropsInvocation(t *testing.T) {
	e := engine(t, parser.MergeSortSrc)
	e.Cfg = macroMergeSortCfg()
	ex := execFor(t, e, "MergeSortDSL", 64)
	for _, ri := range ex.res.Rules {
		r := ex.vmRule(ri)
		if r == nil || len(r.prog.Calls) == 0 {
			t.Fatalf("%s did not lower to the vm with its calls", ri.Rule.Name())
		}
		f := r.acquireFrame(ex)
		if err := f.RunCell(nil); err != nil {
			t.Fatal(err)
		}
		r.releaseFrame(f)
		var view matrix.Matrix
		for i, ref := range r.prog.Refs {
			if f.View(int32(i), &view).Backing() != nil {
				t.Errorf("%s: released frame ref %s keeps a matrix", r.rule, ref.Binding)
			}
		}
		c := f.Caller().(*callFrame)
		if c.ex != nil {
			t.Errorf("%s: released frame keeps its exec", r.rule)
		}
		for i := range c.views {
			if c.views[i].Backing() != nil {
				t.Errorf("%s: released frame view %d keeps a matrix", r.rule, i)
			}
		}
		for _, args := range c.args {
			for i, v := range args {
				if v.m != nil || v.ref != nil {
					t.Errorf("%s: released frame argument scratch %d keeps a matrix", r.rule, i)
				}
			}
		}
	}
}

// TestMacroScheduleShape: an invocation whose macro rules produced
// every output is pure selector dispatch and counts under
// shape="macro", not "parallel" or "sequential".
func TestMacroScheduleShape(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	shapes := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range reg.Snapshot() {
			if s.Name == "pb_interp_schedules_total" {
				out[s.Labels["shape"]] += s.Value
			}
		}
		return out
	}
	e := engine(t, parser.MergeSortSrc)
	e.Cfg = macroMergeSortCfg()
	// n=64 splits twice (64 and 32 are not below the cutoff) into four
	// SelectionSort leaves: 7 MergeSortDSL calls, 3 Merge, 4 SelectionSort,
	// and every one of them is a macro rule producing its whole output.
	if _, err := e.Run1("MergeSortDSL", benchVec(64, 3)); err != nil {
		t.Fatal(err)
	}
	if got := shapes(); got["macro"] != 14 || got["sequential"] != 0 {
		t.Errorf("sequential run: shapes = %v, want 14 macro", got)
	}
	e.Pool = runtime.NewPool(2)
	defer e.Pool.Shutdown()
	if _, err := e.Run1("MergeSortDSL", benchVec(64, 3)); err != nil {
		t.Fatal(err)
	}
	if got := shapes(); got["macro"] != 28 || got["parallel"] != 0 {
		t.Errorf("pool run: shapes = %v, want 28 macro", got)
	}
}
