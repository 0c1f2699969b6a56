package interp

import (
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/pbc/parser"
)

// execFor builds an exec the way Engine.run does — bind sizes from
// generated inputs, allocate outputs — but without running the
// schedule, so tests can inspect compiled rules against interpreter
// internals.
func execFor(t *testing.T, e *Engine, name string, size int64) *exec {
	t.Helper()
	ti, ok := e.transform(name)
	if !ok {
		t.Fatalf("unknown transform %q", name)
	}
	inputs, err := e.GenerateInputs(name, size, 7)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.newExec(ti, ti.positional(inputs), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestCompiledBoundsMatchRefBounds differentially checks the compiler's
// affine base+stride bounds against refBounds — the symbolic evaluator
// the AST interpreter uses — for every rule of every corpus transform,
// at a grid of sampled centers (including out-of-range ones; both
// paths compute bounds before range checking).
func TestCompiledBoundsMatchRefBounds(t *testing.T) {
	const size = 13
	centerSamples := []int64{-1, 0, 1, 2, 5, size - 1}
	compiled := 0
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
			ex := execFor(t, e, tr.Name, size)
			for _, ri := range ex.res.Rules {
				cr := ex.compiledRule(ri)
				if cr == nil {
					t.Errorf("%s %s: rule did not compile", tr.Name, ri.Rule.Name())
					continue
				}
				compiled++
				// Every tuple of sampled center values, odometer-style.
				nc := len(ri.CenterVars)
				idx := make([]int, nc)
				for {
					center := make([]int64, nc)
					centerMap := map[string]int64{}
					for d := 0; d < nc; d++ {
						center[d] = centerSamples[idx[d]]
						if v := ri.CenterVars[d]; v != "" {
							centerMap[v] = center[d]
						}
					}
					for _, cref := range cr.refs {
						want, err := ex.refBounds(cref.ref, centerMap)
						if err != nil {
							t.Fatalf("%s %s refBounds(%s): %v", tr.Name, ri.Rule.Name(), cref.ref.Matrix, err)
						}
						if len(want) != cref.nd {
							t.Fatalf("%s %s ref %s: rank %d, refBounds rank %d",
								tr.Name, ri.Rule.Name(), cref.ref.Matrix, cref.nd, len(want))
						}
						for d := 0; d < cref.nd; d++ {
							lo, hi := cref.lo[d].at(center), cref.hi[d].at(center)
							if lo != want[d][0] || hi != want[d][1] {
								t.Errorf("%s %s ref %s center=%v dim %d: compiled [%d,%d), refBounds [%d,%d)",
									tr.Name, ri.Rule.Name(), cref.ref.Matrix, center, d, lo, hi, want[d][0], want[d][1])
							}
						}
					}
					// Advance the odometer.
					d := 0
					for ; d < nc; d++ {
						idx[d]++
						if idx[d] < len(centerSamples) {
							break
						}
						idx[d] = 0
					}
					if d == nc {
						break
					}
				}
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no corpus rule compiled; differential test exercised nothing")
	}
}

// TestCompiledAndInterpretedAgree runs every corpus transform on the
// default tier and on the AST tier (pbc.engine=0) and requires identical
// outputs, so the compiled path can only ever change performance, not
// results.
func TestCompiledAndInterpretedAgree(t *testing.T) {
	const size = 17
	for _, src := range []string{
		parser.RollingSumSrc,
		parser.MatrixMultiplySrc,
		parser.MergeSortSrc,
		parser.Heat1DSrc,
		parser.SummedAreaSrc,
	} {
		e := engine(t, src)
		off := choice.NewConfig()
		off.SetInt(EngineKey, EngineInterp)
		for _, tr := range e.Prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			inputs, err := e.GenerateInputs(tr.Name, size, 11)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Run(tr.Name, inputs)
			if err != nil {
				t.Fatalf("%s compiled: %v", tr.Name, err)
			}
			want, err := e.WithConfig(off).Run(tr.Name, inputs)
			if err != nil {
				t.Fatalf("%s interpreted: %v", tr.Name, err)
			}
			for name, m := range want {
				if !m.AlmostEqual(got[name], 0) {
					t.Errorf("%s output %s: compiled and interpreted disagree", tr.Name, name)
				}
			}
		}
	}
}

// TestCompiledCacheConcurrentConfigs races engine views with different
// configurations — two selector choices plus one view on the AST tier
// — through the shared compiled-program cache. Run under
// -race; correctness here plus the per-key check below establishes no
// view ever observes a program compiled under another configuration.
func TestCompiledCacheConcurrentConfigs(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	const n = 64
	in := benchVec(n, 3)
	want := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += in.At1(i)
		want[i] = acc
	}
	cfg0 := choice.NewConfig()
	cfg0.SetSelector(SelectorName("RollingSum"), choice.NewSelector(0))
	cfg1 := choice.NewConfig()
	cfg1.SetSelector(SelectorName("RollingSum"), choice.NewSelector(1))
	cfgOff := choice.NewConfig()
	cfgOff.SetSelector(SelectorName("RollingSum"), choice.NewSelector(1))
	cfgOff.SetInt(EngineKey, EngineInterp)
	views := []*Engine{e.WithConfig(cfg0), e.WithConfig(cfg1), e.WithConfig(cfgOff)}

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

	// The two compiling configurations must occupy distinct cache
	// entries, and the AST-tier one must occupy none.
	sizes := map[string]int64{"n": n}
	if artifact.ConfigFingerprint(cfg0) == artifact.ConfigFingerprint(cfg1) {
		t.Fatal("distinct configs share a fingerprint")
	}
	progs := e.Artifacts().Mem(artifact.KindProgram)
	for _, v := range views[:2] {
		if !progs.Contains(invocationKeyFor(v, "RollingSum", sizes)) {
			t.Errorf("no cache entry for key %s", invocationKeyFor(v, "RollingSum", sizes))
		}
	}
	if progs.Len() != 2 {
		t.Errorf("program cache holds %d entries, want 2", progs.Len())
	}
}

// invocationKeyFor rebuilds the canonical artifact key one engine view
// uses for a (transform, sizes) invocation.
func invocationKeyFor(e *Engine, transform string, sizes map[string]int64) string {
	return artifact.Key{
		Prog:      e.progFP,
		Transform: transform,
		Sizes:     artifact.SizesKey(sizes),
		ConfigFP:  artifact.ConfigFingerprint(e.Cfg),
		Engine:    e.engineMode(),
	}.String()
}
