package interp

import (
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// tierCfg returns a config pinning the execution tier.
func tierCfg(mode int64) *choice.Config {
	cfg := choice.NewConfig()
	cfg.SetInt(EngineKey, mode)
	return cfg
}

// TestThreeTierAgreement runs every corpus transform on the AST tier
// and on the default one — cell rules on the bytecode vm, macro rules
// on closures — sequentially and on a worker pool, and requires the
// compiled tiers to reproduce the AST interpreter's output bit for bit.
// The tiers may only ever change performance, not results.
func TestThreeTierAgreement(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	const size = 17
	for _, src := range []string{
		parser.RollingSumSrc,
		parser.MatrixMultiplySrc,
		parser.MergeSortSrc,
		parser.Heat1DSrc,
		parser.SummedAreaSrc,
	} {
		e := engine(t, src)
		for _, tr := range e.Prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			inputs, err := e.GenerateInputs(tr.Name, size, 11)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := e.WithConfig(tierCfg(EngineInterp)).Run(tr.Name, inputs)
			if err != nil {
				t.Fatalf("%s interp: %v", tr.Name, err)
			}
			for _, par := range []bool{false, true} {
				v := e.WithConfig(tierCfg(EngineJIT))
				if par {
					v.Pool = pool
				} else {
					v.Pool = nil
				}
				got, err := v.Run(tr.Name, inputs)
				if err != nil {
					t.Fatalf("%s jit par=%v: %v", tr.Name, par, err)
				}
				for name, m := range ref {
					if !m.AlmostEqual(got[name], 0) {
						t.Errorf("%s output %s: jit tier (par=%v) diverges from interpreter", tr.Name, name, par)
					}
				}
			}
		}
	}
}

// TestJITCacheConcurrentEngines races engine views pinned to different
// EngineKey values through the shared compiled-program cache. Run under
// -race: the bytecode tier's programs and pooled frames must be safe to
// share across goroutines, and each compiling config must occupy its
// own cache entry (the config fingerprint covers EngineKey). Value 1,
// the retired closure tier's, resolves to the vm like any unknown one.
func TestJITCacheConcurrentEngines(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	const n = 64
	in := benchVec(n, 3)
	want := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += in.At1(i)
		want[i] = acc
	}
	cfgs := []*choice.Config{tierCfg(EngineInterp), tierCfg(1), tierCfg(EngineJIT)}
	views := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		views[i] = e.WithConfig(cfg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := views[g%len(views)]
			for it := 0; it < 20; it++ {
				out, err := v.Run1("RollingSum", in)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for i := 0; i < n; i++ {
					if out.At1(i) != want[i] {
						t.Errorf("goroutine %d: element %d = %g, want %g", g, i, out.At1(i), want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The two jit views must occupy distinct cache entries; the
	// interpreter tier compiles nothing and must occupy none.
	sizes := map[string]int64{"n": n}
	if artifact.ConfigFingerprint(cfgs[1]) == artifact.ConfigFingerprint(cfgs[2]) {
		t.Fatal("distinct configs share a fingerprint")
	}
	if mode := views[1].engineMode(); mode != EngineJIT {
		t.Errorf("pbc.engine=1 resolves to tier %d, want EngineJIT", mode)
	}
	progs := e.Artifacts().Mem(artifact.KindProgram)
	for _, v := range views[1:] {
		if !progs.Contains(invocationKeyFor(v, "RollingSum", sizes)) {
			t.Errorf("no cache entry for key %s", invocationKeyFor(v, "RollingSum", sizes))
		}
	}
	if progs.Contains(invocationKeyFor(views[0], "RollingSum", sizes)) {
		t.Error("interpreter-tier view populated the compiled-program cache")
	}
	if progs.Len() != 2 {
		t.Errorf("program cache holds %d entries, want 2", progs.Len())
	}
}

// TestEngineStatsFallbackReasons checks that jit lowering failures are
// recorded with their typed construct token and surfaced through
// EngineStatsSnapshot, instead of the blanket skip they used to be.
func TestEngineStatsFallbackReasons(t *testing.T) {
	resetTierStats()
	defer resetTierStats()
	// One rule the bytecode tier handles (including the sum reduction
	// over a view, which lowers to OpSumV), one it must reject: a view
	// read as a scalar succeeds only when the view holds one element — a
	// dynamic property the register vm cannot express.
	src := `
transform Mixed
from A[n]
to B[n], C[n]
{
  to (B.cell(i) b) from (A.region(0, n) r) { b = sum(r); }
  to (C.cell(i) c) from (A.region(i, (i + 1)) r) { c = 2 * r; }
}
`
	e := engine(t, src)
	in := vec(1, 2, 3, 4)
	out, err := e.Run("Mixed", map[string]*matrix.Matrix{"A": in})
	if err != nil {
		t.Fatal(err)
	}
	if out["B"].At1(2) != 10 || out["C"].At1(1) != 4 {
		t.Fatalf("B[2]=%g C[1]=%g, want 10 and 4", out["B"].At1(2), out["C"].At1(1))
	}

	stats := EngineStatsSnapshot()
	if stats.Compiled["jit"] == 0 {
		t.Error("no rule recorded as jit-compiled")
	}
	found := false
	for _, r := range stats.Fallbacks {
		if r.Tier == "jit" && r.Transform == "Mixed" {
			if r.Construct != "view-scalar" {
				t.Errorf("fallback construct = %q, want view-scalar (%+v)", r.Construct, r)
				continue
			}
			found = true
			if r.Rule == "" || r.Count < 1 {
				t.Errorf("fallback entry incomplete: %+v", r)
			}
		}
	}
	if !found {
		t.Errorf("no jit view-scalar fallback recorded; stats = %+v", stats)
	}
}
