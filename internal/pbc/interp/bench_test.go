package interp

import (
	"math/rand"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// The BenchmarkJIT* family runs the paper corpus's cell rules on the
// flat-bytecode vm, the default tier. Run with
//
//	go test ./internal/pbc/interp -run='^$' -bench='^BenchmarkJIT' -benchmem
//
// These are developer tools; the gated numbers come from
// `bash benchmark/run.sh` (interp.tier_*_ms, jit.cell_ns_*).

func benchEngine(b *testing.B, src string) *Engine {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(prog)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchVec(n int, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(rng.Intn(1000))
	}
	return matrix.FromSlice(data)
}

// benchPointwiseSrc is a pointwise family member with a body meaty
// enough (decl, branch, arithmetic, mod) that per-node dispatch cost
// dominates the cell loop.
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

// --- workloads -------------------------------------------------------------

// benchRollingSumScan is the Θ(n) scan rule: two cell reads and one
// cell write per cell, so it measures pure per-cell overhead.
func benchRollingSumScan(b *testing.B) {
	e := benchEngine(b, parser.RollingSumSrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("RollingSum"), choice.NewSelector(1))
	e.Cfg = cfg
	in := benchVec(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run1("RollingSum", in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHeat1D is the version-dimension stencil wavefront (three
// constant-offset cell reads per cell).
func benchHeat1D(b *testing.B) {
	e := benchEngine(b, parser.Heat1DSrc)
	in := benchVec(512, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run1("Heat1D", in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSummedArea is the lexicographic-wavefront path (constant-offset
// cell refs per cell, four rules splitting the domain).
func benchSummedArea(b *testing.B) {
	e := benchEngine(b, parser.SummedAreaSrc)
	rng := rand.New(rand.NewSource(4))
	const w, h = 64, 64
	a := matrix.New(h, w)
	a.Each(func([]int, float64) float64 { return float64(rng.Intn(9)) })
	in := map[string]*matrix.Matrix{"A": a}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("SummedArea", in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPointwise is the pointwise family: branchy scalar arithmetic,
// one read and one write per cell.
func benchPointwise(b *testing.B) {
	e := benchEngine(b, benchPointwiseSrc)
	in := benchVec(1024, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run1("Pointwise", in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJITRollingSumScanInstrumented is the scan benchmark with
// obs instrumentation enabled; comparing it against the plain variant
// bounds the metrics overhead on the interpreter hot path (the per-cell
// loop itself is untouched — instrumentation is per invocation).
func BenchmarkJITRollingSumScanInstrumented(b *testing.B) {
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	benchRollingSumScan(b)
}

// benchRollingSumDirect is the Θ(n²) direct rule: per cell a
// center-dependent region view is bound and reduced with sum(). The
// bytecode tier lowers the view binding and the reduction to a single
// strided loop (OpSumV).
func benchRollingSumDirect(b *testing.B) {
	e := benchEngine(b, parser.RollingSumSrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("RollingSum"), choice.NewSelector(0))
	e.Cfg = cfg
	in := benchVec(256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run1("RollingSum", in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatrixMultiplyBase runs the base cell rule (dot of a row view
// and a column view) over a 32³ multiply.
func benchMatrixMultiplyBase(b *testing.B) {
	e := benchEngine(b, parser.MatrixMultiplySrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MatrixMultiply"), choice.NewSelector(0))
	e.Cfg = cfg
	rng := rand.New(rand.NewSource(3))
	const n = 32
	a := matrix.New(n, n)
	bm := matrix.New(n, n)
	a.Each(func([]int, float64) float64 { return rng.Float64() })
	bm.Each(func([]int, float64) float64 { return rng.Float64() })
	in := map[string]*matrix.Matrix{"A": a, "B": bm}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("MatrixMultiply", in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDotSrc is a pure per-row dot-product reduction: two contiguous
// row views and one dot() per cell, nothing else. It isolates the
// vm's stride-1 dot loop.
const benchDotSrc = `
transform DotRows
from A[w, h], B[w, h]
to C[h]
{
  to (C.cell(y) c) from (A.row(y) ra, B.row(y) rb) {
    c = dot(ra, rb);
  }
}
`

func benchDotRows(b *testing.B) {
	e := benchEngine(b, benchDotSrc)
	rng := rand.New(rand.NewSource(8))
	const w, h = 256, 64
	a := matrix.New(h, w)
	bm := matrix.New(h, w)
	a.Each(func([]int, float64) float64 { return rng.Float64() })
	bm.Each(func([]int, float64) float64 { return rng.Float64() })
	in := map[string]*matrix.Matrix{"A": a, "B": bm}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("DotRows", in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJITRollingSumScan(b *testing.B) { benchRollingSumScan(b) }

func BenchmarkJITSummedArea(b *testing.B) { benchSummedArea(b) }

func BenchmarkJITHeat1D(b *testing.B) { benchHeat1D(b) }

func BenchmarkJITPointwise(b *testing.B) { benchPointwise(b) }

// The BenchmarkJITReduce* family is the reduction workloads on the
// bytecode tier: bounded views and reduction loops.

func BenchmarkJITReduceRollingSumDirect(b *testing.B) { benchRollingSumDirect(b) }

func BenchmarkJITReduceMatrixMultiplyBase(b *testing.B) { benchMatrixMultiplyBase(b) }

func BenchmarkJITReduceDotRows(b *testing.B) { benchDotRows(b) }

// benchPool provides the shared pool for the repeat-execution family and
// shuts it down with the benchmark.
func benchPool(b *testing.B) *runtime.Pool {
	b.Helper()
	p := runtime.NewPool(0)
	b.Cleanup(p.Shutdown)
	return p
}

// The BenchmarkInterpRepeat* family measures the steady-state cost of
// executing the SAME (transform, sizes, config) over and over with the
// pool enabled — the pbserve traffic shape. This is what the execution
// plan cache exists for: all per-run schedule lowering (step lookup
// tables, task allocation, dependency wiring) should happen once and be
// re-armed in O(tasks) on every later run. Default tier.

// BenchmarkInterpRepeatRollingSumScanPool repeats the Θ(n) scan (a
// single cyclic wavefront step) on the pool.
func BenchmarkInterpRepeatRollingSumScanPool(b *testing.B) {
	e := benchEngine(b, parser.RollingSumSrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("RollingSum"), choice.NewSelector(1))
	e.Cfg = cfg
	e.Pool = benchPool(b)
	in := benchVec(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run1("RollingSum", in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpRepeatMatrixMultiplyPool repeats the base cell rule
// over a 32³ multiply on the pool (independent-region steps).
func BenchmarkInterpRepeatMatrixMultiplyPool(b *testing.B) {
	e := benchEngine(b, parser.MatrixMultiplySrc)
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MatrixMultiply"), choice.NewSelector(0))
	e.Cfg = cfg
	e.Pool = benchPool(b)
	rng := rand.New(rand.NewSource(3))
	const n = 32
	a := matrix.New(n, n)
	bm := matrix.New(n, n)
	a.Each(func([]int, float64) float64 { return rng.Float64() })
	bm.Each(func([]int, float64) float64 { return rng.Float64() })
	in := map[string]*matrix.Matrix{"A": a, "B": bm}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("MatrixMultiply", in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpRepeatHeat1DPool repeats the 2-D stencil wavefront on
// the pool: without tiling the cyclic step serializes into one task.
func BenchmarkInterpRepeatHeat1DPool(b *testing.B) {
	e := benchEngine(b, parser.Heat1DSrc)
	e.Pool = benchPool(b)
	in := benchVec(512, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run1("Heat1D", in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpWavefrontSummedAreaPool repeats the lexicographic
// wavefront on the pool. A step-granular task would run the whole lex
// step serially; plan tiling splits it into a block grid whose
// anti-diagonals execute concurrently, so on multi-core hosts this
// benchmark is the tiled-wavefront speedup witness.
func BenchmarkInterpWavefrontSummedAreaPool(b *testing.B) {
	e := benchEngine(b, parser.SummedAreaSrc)
	e.Pool = benchPool(b)
	rng := rand.New(rand.NewSource(4))
	const w, h = 64, 64
	a := matrix.New(h, w)
	a.Each(func([]int, float64) float64 { return float64(rng.Intn(9)) })
	in := map[string]*matrix.Matrix{"A": a}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("SummedArea", in); err != nil {
			b.Fatal(err)
		}
	}
}

// The BenchmarkMacro*Pool family measures transform re-entry: tuned
// multi-level selectors in which every level re-enters the engine
// through a macro rule, so the per-call cost (shape binding, frames,
// cache keys, nested joins) is paid hundreds of times per run. Default
// engine tier, 2-worker pool.

// macroMergeSortCfg is "SelectionSort below 32, recursive Merge above".
func macroMergeSortCfg() *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MergeSortDSL"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 32, Choice: 0}, {Cutoff: choice.Inf, Choice: 1},
	}})
	return cfg
}

// macroMatMulCfg is "base rule below 8, then one decomposition rule per
// level: c below 16, w below 24, h from 24".
func macroMatMulCfg() *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetSelector(SelectorName("MatrixMultiply"), choice.Selector{Levels: []choice.Level{
		{Cutoff: 8, Choice: 0}, {Cutoff: 16, Choice: 1}, {Cutoff: 24, Choice: 2}, {Cutoff: choice.Inf, Choice: 3},
	}})
	return cfg
}

// macroMatMulInputs builds the n×n operands of the recursive multiply.
func macroMatMulInputs(n int) map[string]*matrix.Matrix {
	rng := rand.New(rand.NewSource(3))
	a := matrix.New(n, n)
	bm := matrix.New(n, n)
	a.Each(func([]int, float64) float64 { return float64(rng.Intn(100)) })
	bm.Each(func([]int, float64) float64 { return float64(rng.Intn(100)) })
	return map[string]*matrix.Matrix{"A": a, "B": bm}
}

// macroEngines builds the two re-entry workloads on pool and returns a
// closure running each once.
func macroEngines(t testing.TB, pool *runtime.Pool) (mergeSort, matMul func() error) {
	t.Helper()
	engineFor := func(src string, cfg *choice.Config) *Engine {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(prog)
		if err != nil {
			t.Fatal(err)
		}
		e.Cfg, e.Pool = cfg, pool
		return e
	}
	ms := engineFor(parser.MergeSortSrc, macroMergeSortCfg())
	msIn := benchVec(1024, 7)
	mm := engineFor(parser.MatrixMultiplySrc, macroMatMulCfg())
	mmIn := macroMatMulInputs(32)
	return func() error { _, err := ms.Run1("MergeSortDSL", msIn); return err },
		func() error { _, err := mm.Run("MatrixMultiply", mmIn); return err }
}

// benchMacro repeats one of the two workloads on a fresh 2-worker pool.
func benchMacro(b *testing.B, matMul bool) {
	pool := runtime.NewPool(2)
	b.Cleanup(pool.Shutdown)
	run, runMatMul := macroEngines(b, pool)
	if matMul {
		run = runMatMul
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMacroMergeSortPool(b *testing.B) { benchMacro(b, false) }

func BenchmarkMacroMatMulRecPool(b *testing.B) { benchMacro(b, true) }
