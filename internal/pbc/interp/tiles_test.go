package interp

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/runtime"
)

// Programs whose plans cut their steps into tiles of every shape. As in
// rows_test.go, each body divides by a - 13, so an input cell holding 13
// makes every tier fail at the same cell.
const (
	// tilesAscAreaSrc is SummedArea with the division: a lex wavefront
	// ascending in both dimensions, tiled into blocks walked in lex order.
	tilesAscAreaSrc = `
transform AscArea
from A[w, h]
to B[w, h]
{
  primary to (B.cell(x, y) b)
  from (A.cell(x, y) a, B.cell(x-1, y) l, B.cell(x, y-1) u, B.cell(x-1, y-1) d) {
    b = a + l + u - d + 1 / (a - 13);
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x-1, y) l) where y == 0 {
    b = a + l + 1 / (a - 13);
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x, y-1) u) where x == 0 {
    b = a + u + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
	// tilesWaveSrc is a single-axis wavefront along x over rank-2 slices:
	// a cyclic step, tiled into axis-extent-1 slabs.
	tilesWaveSrc = `
transform Wave
from A[w, h]
to B[w, h]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x-1, y) l) {
    b = a + 0.5 * l + y + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
	// tilesRevWaveSrc is Wave descending along x.
	tilesRevWaveSrc = `
transform RevWave
from A[w, h]
to B[w, h]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x+1, y) r) {
    b = a + 0.5 * r - y + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
	// tilesSkewSrc reads the cell up-left-ahead, B[x-1, y+1]: only the
	// lex order x outermost, then y, computes it first, so a tile walked
	// in any other order reads a cell not yet written.
	tilesSkewSrc = `
transform Skew
from A[w, h]
to B[w, h]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x-1, y+1) d, B.cell(x, y-1) u) {
    b = a + 0.5 * d + 0.25 * u + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
	// tilesCallSrc tiles a wavefront whose cell rule calls a transform:
	// each cell's call runs a plan of its own and joins it on the worker
	// running the tile, and with two workers that join can steal the next
	// tile of the outer run, released onto the other worker's deque.
	tilesCallSrc = `
transform Twice
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) {
    b = 2 * a + 1 / (a - 13);
  }
}

transform Outer
from A[w, h]
to B[w, h]
{
  to (B.cell(x, y) b) from (A.row(y) r, A.cell(x, y) a, B.cell(x-1, y) l) {
    b = a + 0.5 * l + sum(Twice(r)) + 1 / (a - 13);
  }
  priority(2) to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a;
  }
}
`
)

// tileRun runs name on A under one tier, grain and pool (nil: sequential).
func tileRun(e *Engine, name string, in *matrix.Matrix, mode, grain int64, pool *runtime.Pool) (map[string]*matrix.Matrix, error) {
	cfg := choice.NewConfig()
	cfg.SetInt(EngineKey, mode)
	cfg.SetInt(ParGrainKey, grain)
	v := e.WithConfig(cfg)
	v.Pool = pool
	return v.Run(name, map[string]*matrix.Matrix{"A": in})
}

// sameOutputs fails unless got holds ref's matrices bit for bit.
func sameOutputs(t *testing.T, label string, ref, got map[string]*matrix.Matrix) {
	t.Helper()
	for name, m := range ref {
		a, b := m.Copy().Data(), got[name].Copy().Data()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s flat %d = %v, interpreter %v", label, name, i, b[i], a[i])
			}
		}
	}
}

// TestTilesMatchInterpreter runs flat, lex (both directions, and one
// whose order is forced) and cyclic tiles at pbc.parGrain 1 to 5 on 7×5,
// 5×3 and 3×5 regions, on the bytecode tier, on 1- and 2-worker pools,
// and with plans declined (the serial step loop). Each run must
// reproduce the AST interpreter bit for bit, or, with a 13 in the
// input, fail with the same division error.
func TestTilesMatchInterpreter(t *testing.T) {
	pools := []*runtime.Pool{runtime.NewPool(1), runtime.NewPool(2)}
	defer func() {
		for _, p := range pools {
			p.Shutdown()
		}
	}()
	progs := []struct{ src, name string }{
		{rowsPointwiseSrc, "P2"},
		{tilesAscAreaSrc, "AscArea"},
		{rowsRevAreaSrc, "RevArea"},
		{tilesWaveSrc, "Wave"},
		{tilesRevWaveSrc, "RevWave"},
		{tilesSkewSrc, "Skew"},
	}
	for _, pg := range progs {
		e := engine(t, pg.src)
		for _, dims := range [][]int{{5, 7}, {3, 5}, {5, 3}} { // row-major: 7×5, 5×3 and 3×5 regions
			for _, failing := range []bool{false, true} {
				in := matrix.New(dims...)
				for i := range in.Backing() {
					in.Backing()[i] = float64(i) + 0.5
				}
				if failing {
					in.Set(13, 1, 1) // x = y = 1: interior to every rule of every program
				}
				ref, refErr := tileRun(e, pg.name, in, EngineInterp, 1, nil)
				if failing != (refErr != nil) {
					t.Fatalf("%s %v failing=%v: interpreter error %v", pg.name, dims, failing, refErr)
				}
				for grain := int64(1); grain <= 5; grain++ {
					const mode = EngineJIT
					for _, pd := range []struct {
						pool    *runtime.Pool
						decline bool
					}{{pools[0], false}, {pools[1], false}, {pools[1], true}} {
						label := fmt.Sprintf("%s %v failing=%v grain=%d engine=%d workers=%d declined=%v",
							pg.name, dims, failing, grain, mode, pd.pool.NumWorkers(), pd.decline)
						ev := e
						if pd.decline {
							// Plans are memoized per engine: only a fresh
							// one takes the step loop.
							ev = engine(t, pg.src)
						}
						DeclinePlans(pd.decline)
						got, err := tileRun(ev, pg.name, in, mode, grain, pd.pool)
						DeclinePlans(false)
						if failing {
							if err == nil || !strings.Contains(err.Error(), "division by zero") {
								t.Fatalf("%s: error %v, interpreter %v", label, err, refErr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameOutputs(t, label, ref, got)
					}
				}
			}
		}
	}
}

// TestTileCallsTransform tiles a cell rule that calls a transform, so a
// tile's nested join can run the next tile of the same plan run on the
// same worker while the first tile's frame is busy. Every run must match
// the AST interpreter.
func TestTileCallsTransform(t *testing.T) {
	e := engine(t, tilesCallSrc)
	for _, workers := range []int{1, 2} {
		pool := runtime.NewPool(workers)
		for _, failing := range []bool{false, true} {
			in := matrix.New(5, 7)
			for i := range in.Backing() {
				in.Backing()[i] = float64(i%11) + 0.25
			}
			if failing {
				in.Set(13, 3, 4)
			}
			ref, refErr := tileRun(e, "Outer", in, EngineInterp, 1, nil)
			if failing != (refErr != nil) {
				t.Fatalf("failing=%v: interpreter error %v", failing, refErr)
			}
			for grain := int64(1); grain <= 3; grain++ {
				const mode = EngineJIT
				for rep := 0; rep < 5; rep++ {
					label := fmt.Sprintf("failing=%v grain=%d engine=%d workers=%d", failing, grain, mode, workers)
					got, err := tileRun(e, "Outer", in, mode, grain, pool)
					if failing {
						if err == nil || !strings.Contains(err.Error(), "division by zero") {
							t.Fatalf("%s: error %v, interpreter %v", label, err, refErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameOutputs(t, label, ref, got)
				}
			}
		}
		pool.Shutdown()
	}
}

// TestTileLexOrder checks Skew, whose only valid walk is x outermost,
// against a hand-written loop in that order. The AST tier walks tiles
// through the same order code as the compiled tiers, so only an oracle
// outside the engine catches a tile walked in the wrong order.
func TestTileLexOrder(t *testing.T) {
	pools := []*runtime.Pool{runtime.NewPool(1), runtime.NewPool(2)}
	defer func() {
		for _, p := range pools {
			p.Shutdown()
		}
	}()
	const w, h = 7, 5
	in := matrix.New(h, w)
	for i := range in.Backing() {
		in.Backing()[i] = float64(i%9) + 0.5
	}
	want := make([][]float64, w) // want[x][y]
	for x := range want {
		want[x] = make([]float64, h)
		for y := range want[x] {
			a := in.Get(y, x)
			want[x][y] = a
			if x >= 1 && y >= 1 && y <= h-2 {
				want[x][y] = a + 0.5*want[x-1][y+1] + 0.25*want[x][y-1] + 1/(a-13)
			}
		}
	}
	e := engine(t, tilesSkewSrc)
	for grain := int64(1); grain <= 5; grain++ {
		for _, mode := range []int64{EngineInterp, EngineJIT} {
			for _, pool := range append([]*runtime.Pool{nil}, pools...) {
				out, err := tileRun(e, "Skew", in, mode, grain, pool)
				if err != nil {
					t.Fatal(err)
				}
				b := out["B"]
				for x := 0; x < w; x++ {
					for y := 0; y < h; y++ {
						if got := b.Get(y, x); math.Abs(got-want[x][y]) > 1e-9*math.Abs(want[x][y]) {
							t.Fatalf("grain=%d engine=%d pool=%v: B[%d,%d] = %v, want %v", grain, mode, pool != nil, x, y, got, want[x][y])
						}
					}
				}
			}
		}
	}
}

// tiledExec binds a P2 invocation on a pooled jit engine at grain 2 and
// returns it with its plan, which tiles the 7×5 region.
func tiledExec(t *testing.T, pool *runtime.Pool, in *matrix.Matrix) (*exec, *plan) {
	t.Helper()
	e := engine(t, rowsPointwiseSrc)
	cfg := choice.NewConfig()
	cfg.SetInt(ParGrainKey, 2)
	e.Cfg = cfg
	e.Pool = pool
	ti, _ := e.transform("P2")
	ex, err := e.newExec(ti, []*matrix.Matrix{in}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ex.planFor()
	if p == nil || len(p.tasks) < 4 {
		t.Fatalf("P2 did not tile: %+v", p)
	}
	return ex, p
}

// TestTileFrameReentry: a tile that finds its worker's frame busy runs
// on a frame of its own, with the same result, and leaves the busy frame
// bound and busy for the tile that holds it.
func TestTileFrameReentry(t *testing.T) {
	pool := runtime.NewPool(1)
	defer pool.Shutdown()
	in := matrix.New(5, 7)
	for i := range in.Backing() {
		in.Backing()[i] = float64(i) + 0.5
	}
	ex, p := tiledExec(t, pool, in)
	var tf tileFrame
	if err := ex.runTile(&p.tasks[0], &tf, nil); err != nil {
		t.Fatal(err)
	}
	held := tf.f
	if held == nil || tf.busy {
		t.Fatalf("after one tile: frame %p busy %v, want a bound idle frame", held, tf.busy)
	}
	tf.busy = true // as if task 0 were still on this worker's stack
	for i := 1; i < len(p.tasks); i++ {
		if err := ex.runTile(&p.tasks[i], &tf, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tf.f != held || !tf.busy {
		t.Fatalf("re-entrant tiles replaced the busy frame (%p → %p) or cleared busy (%v)", held, tf.f, tf.busy)
	}
	ex.releaseTileFrames([]tileFrame{tf})
	want, err := tileRun(engine(t, rowsPointwiseSrc), "P2", in, EngineInterp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "re-entrant tiles", want, map[string]*matrix.Matrix{"B": ex.outputs()[0]})
}

// TestTileFramesReleasedAfterError: when a plan run fails mid-tile, the
// frame each worker kept for the run is back in its pool and unbound —
// nothing pins the failed request's matrices. GOMAXPROCS 1 keeps every
// Put and Get on one P, so draining the pool sees every frame returned.
func TestTileFramesReleasedAfterError(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	in := matrix.New(5, 7)
	for i := range in.Backing() {
		in.Backing()[i] = float64(i) + 0.5
	}
	in.Set(13, 2, 3)
	ex, _ := tiledExec(t, pool, in)
	r := ex.vmRule(ex.res.Rules[0])
	for r.frames.Get() != nil { // count only this run's frames
	}
	if err := ex.runSchedule(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("run error %v, want a division by zero", err)
	}
	returned := 0
	for v := r.frames.Get(); v != nil; v = r.frames.Get() {
		returned++
		if f := v.(*jit.Frame); frameBound(f) {
			t.Errorf("pooled frame %p still bound to its invocation's matrices", f)
		}
	}
	if returned == 0 {
		t.Fatal("the failed run returned no frame to the pool")
	}
}

// frameBound reports whether any ref of a jit frame still holds a
// matrix's backing slice, reading the frame's unexported state: the jit
// package offers no accessor, and the pool must not pin a request.
func frameBound(f *jit.Frame) bool {
	refs := reflect.ValueOf(f).Elem().FieldByName("refs")
	for i := 0; i < refs.Len(); i++ {
		if !refs.Index(i).FieldByName("data").IsNil() {
			return true
		}
	}
	return false
}
