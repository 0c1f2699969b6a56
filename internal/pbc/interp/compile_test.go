package interp

import (
	"sort"
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/pbc/parser"
)

// execFor builds an exec the way Engine.run does — bind sizes from
// generated inputs, allocate outputs — but without running the
// schedule, so tests can inspect compiled rules against interpreter
// internals.
func execFor(t testing.TB, e *Engine, name string, size int64) *exec {
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

// TestCompiledBoundsMatchRefBounds differentially checks the bounds
// the lowering folds — a cell rule's affine base+stride ref forms, a
// macro rule's constant windows, the call rules' too — against refBounds,
// the symbolic evaluator the AST interpreter uses, for every rule of
// every corpus transform, at a grid of sampled centers (including
// out-of-range ones; both paths compute bounds before range checking).
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
				var bound []*ast.RegionRef
				for _, ref := range append(append([]*ast.RegionRef{}, ri.Rule.To...), ri.Rule.From...) {
					if ref.Binding != "" {
						bound = append(bound, ref)
					}
				}
				check := func(ref *ast.RegionRef, center []int64, got [][2]int64) {
					t.Helper()
					centerMap := map[string]int64{}
					for d, v := range ri.CenterVars {
						if v != "" {
							centerMap[v] = center[d]
						}
					}
					want, err := ex.refBounds(ref, centerMap)
					if err != nil {
						t.Fatalf("%s %s refBounds(%s): %v", tr.Name, ri.Rule.Name(), ref.Matrix, err)
					}
					if len(want) != len(got) {
						t.Fatalf("%s %s ref %s: rank %d, refBounds rank %d", tr.Name, ri.Rule.Name(), ref.Matrix, len(got), len(want))
					}
					for d := range want {
						if got[d] != want[d] {
							t.Errorf("%s %s ref %s center=%v dim %d: compiled [%d,%d), refBounds [%d,%d)",
								tr.Name, ri.Rule.Name(), ref.Matrix, center, d, got[d][0], got[d][1], want[d][0], want[d][1])
						}
					}
				}
				cr := ex.comp.rule(ri, nil)
				if cr == astRule {
					t.Errorf("%s %s: rule did not compile", tr.Name, ri.Rule.Name())
					continue
				}
				p := cr.prog
				if len(p.Refs) != len(bound) {
					t.Fatalf("%s %s: %d vm refs for %d bindings", tr.Name, ri.Rule.Name(), len(p.Refs), len(bound))
				}
				// Every tuple of sampled center values, odometer-style.
				nc := p.NCenter
				idx := make([]int, nc)
				center := make([]int64, nc)
				for {
					for d := range center {
						center[d] = centerSamples[idx[d]]
					}
					for i, r := range p.Refs {
						at := func(base, coeff []int64, d int) int64 {
							v := base[d]
							for k := 0; coeff != nil && k < nc; k++ {
								v += coeff[d*nc+k] * center[k]
							}
							return v
						}
						got := make([][2]int64, r.ND)
						for d := range got {
							lo := at(r.Base, r.Coeff, d)
							got[d] = [2]int64{lo, lo + 1}
							if r.Kind == jit.RefView {
								got[d][1] = at(r.HiBase, r.HiCoeff, d)
							}
						}
						check(bound[i], center, got)
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
				compiled++
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
// — through the shared invocation cache. Run under
// -race; correctness here plus the per-key check below establishes no
// view ever observes a program compiled under another configuration.
func TestCompiledCacheConcurrentConfigs(t *testing.T) {
	e := engine(t, parser.RollingSumSrc)
	holders := countHolders(t)
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
	progs := e.Artifacts().Mem()
	for _, v := range views[:2] {
		if !progs.Contains(invocationKeyFor(v, "RollingSum", sizes)) {
			t.Errorf("no cache entry for key %s", invocationKeyFor(v, "RollingSum", sizes))
		}
	}
	if n := holders(); n != 2 {
		t.Errorf("invocation cache holds %d entries, want 2", n)
	}
}

// countHolders installs instrumentation for the rest of the test and
// returns a function reporting how many invocation cache entries were
// created since: each creation is one invocation cache miss, and
// with fewer than DefaultMemEntries of them none is evicted.
func countHolders(t *testing.T) func() int64 {
	Instrument(obs.NewRegistry())
	t.Cleanup(func() { Instrument(nil) })
	return im.Load().cacheMiss.Value
}

// invocationKeyFor rebuilds the canonical artifact key one engine view
// uses for a (transform, sizes) invocation.
func invocationKeyFor(e *Engine, transform string, sizes map[string]int64) string {
	names := make([]string, 0, len(sizes))
	for name := range sizes {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, name := range names {
		vals[i] = sizes[name]
	}
	return artifact.Key{
		Prog:      e.progFP,
		Transform: transform,
		Sizes:     artifact.SizesKeySorted(names, vals),
		ConfigFP:  artifact.ConfigFingerprint(e.Cfg),
		Engine:    e.engineMode(),
	}.String()
}

// TestWarmJITRejectsForeignRuleIndex persists a valid jit program set
// that names a rule the transform does not have. Its first load installs
// every program of the set into the rule table, so that set must be
// rejected whole — counted corrupt — and every rule lowered afresh, with
// outputs unchanged.
func TestWarmJITRejectsForeignRuleIndex(t *testing.T) {
	const n = 33
	dir := t.TempDir()
	store1, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine(t, parser.Heat1DSrc)
	e1.UseArtifacts(store1)
	want := runHeat1D(t, e1, n)

	key := execFor(t, e1, "Heat1D", n).artifactKey()
	var progs map[int]*jit.Program
	if !store1.Load(artifact.KindJIT, key, func(payload []byte) (err error) {
		progs, err = jit.DecodePrograms(payload)
		return err
	}) || len(progs) == 0 {
		t.Fatal("cold run persisted no jit programs for Heat1D")
	}
	for _, prog := range progs {
		progs[1000] = prog // Heat1D has three rules
		break
	}
	payload, err := jit.EncodePrograms(progs)
	if err != nil {
		t.Fatal(err)
	}
	pend := store1.Pending()
	pend.Add(artifact.KindJIT, key, func() ([]byte, error) { return payload, nil })
	if err := pend.Commit(); err != nil {
		t.Fatal(err)
	}

	store2, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine(t, parser.Heat1DSrc)
	e2.UseArtifacts(store2)
	before := EngineStatsSnapshot().Compiled
	got := runHeat1D(t, e2, n)
	after := EngineStatsSnapshot().Compiled
	for name, m := range want {
		if !m.Equal(got[name]) {
			t.Errorf("output %s differs after the rejected program set", name)
		}
	}
	if store2.CorruptCount() == 0 {
		t.Error("program set naming a foreign rule was not counted corrupt")
	}
	if warm := after["jit-warm"] - before["jit-warm"]; warm != 0 {
		t.Errorf("%d programs of the rejected set were installed", warm)
	}
	if fresh := after["jit"] - before["jit"]; fresh == 0 {
		t.Error("no rule was lowered afresh after the rejection")
	}
}
