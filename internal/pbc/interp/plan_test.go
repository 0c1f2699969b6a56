package interp

import (
	"fmt"
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// TestPlanCacheBound fills the plan tier of the artifact store past its
// bound and checks the FIFO eviction: the size never exceeds the bound,
// the oldest keys are gone, and a re-lookup of a live key returns the
// same entry. (The generic eviction mechanics live in
// internal/artifact's own tests; this pins the interp wiring.)
func TestPlanCacheBound(t *testing.T) {
	pc := artifact.NewMemOnly().Mem(artifact.KindPlan)
	const bound = artifact.DefaultMemPerKind
	const extra = 10
	mint := func(key string) *planEntry {
		v, _ := pc.GetOrCreate(key, func() any { return &planEntry{} })
		return v.(*planEntry)
	}
	entries := make([]*planEntry, bound+extra)
	for i := range entries {
		entries[i] = mint(fmt.Sprintf("k%d", i))
	}
	if n := pc.Len(); n != bound {
		t.Fatalf("cache holds %d entries, want %d", n, bound)
	}
	// The newest key must still hit its original entry.
	last := fmt.Sprintf("k%d", bound+extra-1)
	if mint(last) != entries[bound+extra-1] {
		t.Fatalf("live key %s did not hit its entry", last)
	}
	// The oldest keys were evicted: looking one up mints a fresh entry.
	if mint("k0") == entries[0] {
		t.Fatal("k0 should have been evicted but hit its old entry")
	}
	if n := pc.Len(); n != bound {
		t.Fatalf("cache holds %d entries after re-insert, want %d", n, bound)
	}
}

// TestPlanCacheSharedAcrossViews checks that WithConfig views share one
// plan cache and that a repeated (transform, sizes, config) run reuses
// the memoized plan instead of building a second one.
func TestPlanCacheSharedAcrossViews(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	e := engine(t, parser.RollingSumSrc)
	inputs, err := e.GenerateInputs("RollingSum", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]map[string]*matrix.Matrix
	for i := 0; i < 2; i++ {
		view := e.WithConfig(choice.NewConfig())
		view.Pool = pool
		out, err := view.Run("RollingSum", inputs)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	if n := e.Artifacts().Mem(artifact.KindPlan).Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after two identical runs, want 1", n)
	}
	if !outs[0]["B"].Equal(outs[1]["B"]) {
		t.Fatal("plan replay changed the output")
	}
}

// planCase is one corpus point of the plan differential test.
type planCase struct {
	name string
	src  string
	main string
	size int64
	cfg  func() *choice.Config
}

func planCases() []planCase {
	sel := func(name string, rule int, grain int64) func() *choice.Config {
		return func() *choice.Config {
			c := choice.NewConfig()
			c.SetSelector(SelectorName(name), choice.NewSelector(rule))
			if grain > 0 {
				c.SetInt(ParGrainKey, grain)
			}
			return c
		}
	}
	return []planCase{
		// Small parGrain values force tiling of the wavefront steps, so
		// the tiled executor (not just the memoized step tasks) is the
		// thing being differentially checked.
		{"RollingSum/recursive", parser.RollingSumSrc, "RollingSum", 64, sel("RollingSum", 0, 4)},
		{"RollingSum/scan", parser.RollingSumSrc, "RollingSum", 64, sel("RollingSum", 1, 4)},
		{"MatrixMultiply", parser.MatrixMultiplySrc, "MatrixMultiply", 24, sel("MatrixMultiply", 0, 8)},
		{"Heat1D", parser.Heat1DSrc, "Heat1D", 48, func() *choice.Config {
			c := choice.NewConfig()
			c.SetInt(ParGrainKey, 4)
			return c
		}},
		{"SummedArea", parser.SummedAreaSrc, "SummedArea", 32, func() *choice.Config {
			c := choice.NewConfig()
			c.SetInt(ParGrainKey, 8)
			return c
		}},
		{"SummedArea/defaultGrain", parser.SummedAreaSrc, "SummedArea", 32, choice.NewConfig},
	}
}

// TestPlanDifferential runs corpus transforms on the parallel scheduler
// with plans enabled and with pbc.plan=0, plus the sequential reference,
// and requires bit-identical outputs. Repeated twice so the second
// plan-enabled run replays the memoized plan.
func TestPlanDifferential(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	for _, tc := range planCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := engine(t, tc.src)
			inputs, err := e.GenerateInputs(tc.main, tc.size, 11)
			if err != nil {
				t.Fatal(err)
			}
			seq := e.WithConfig(tc.cfg())
			ref, err := seq.Run(tc.main, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for _, plan := range []bool{true, false} {
				for rep := 0; rep < 2; rep++ {
					cfg := tc.cfg()
					if !plan {
						cfg.SetInt(PlanKey, 0)
					}
					view := e.WithConfig(cfg)
					view.Pool = pool
					out, err := view.Run(tc.main, inputs)
					if err != nil {
						t.Fatalf("plan=%v rep %d: %v", plan, rep, err)
					}
					for name, m := range ref {
						if !m.Equal(out[name]) {
							t.Fatalf("plan=%v rep %d: output %s differs from sequential reference (max |Δ| %g)",
								plan, rep, name, m.MaxAbsDiff(out[name]))
						}
					}
				}
			}
		})
	}
}

// TestPlanConcurrent hammers one engine from many goroutines with two
// configs that map to two distinct plans, under -race: concurrent
// first-build (sync.Once), concurrent cache lookups, and concurrent
// executions of a shared immutable plan.
func TestPlanConcurrent(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	e := engine(t, parser.SummedAreaSrc)
	inputs, err := e.GenerateInputs("SummedArea", 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run("SummedArea", inputs)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []*choice.Config{choice.NewConfig(), choice.NewConfig()}
	cfgs[1].SetInt(ParGrainKey, 8)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				view := e.WithConfig(cfgs[(g+i)%len(cfgs)])
				view.Pool = pool
				out, err := view.Run("SummedArea", inputs)
				if err != nil {
					errCh <- err
					return
				}
				if !ref["B"].Equal(out["B"]) {
					errCh <- fmt.Errorf("goroutine %d iter %d: output differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPlanWavefrontTiling builds the SummedArea plan directly and
// checks the structural claim behind the tiled-wavefront benchmark:
// the lexicographic interior step is split into many tiles, and the
// dependency graph admits real parallelism — some Kahn level contains
// two or more tiles of that wavefront (the step-granular scheduler ran
// it as one serial task).
func TestPlanWavefrontTiling(t *testing.T) {
	e := engine(t, parser.SummedAreaSrc)
	cfg := choice.NewConfig()
	cfg.SetInt(ParGrainKey, 32)
	e.Cfg = cfg
	ex := execFor(t, e, "SummedArea", 32)
	p := ex.buildPlan()
	if p == nil {
		t.Fatal("buildPlan declined the SummedArea schedule")
	}
	if p.graph.Len() != len(p.tasks) {
		t.Fatalf("graph has %d tasks, plan has %d", p.graph.Len(), len(p.tasks))
	}
	lexTiles := 0
	for i := range p.tasks {
		if p.tasks[i].node != nil && p.tasks[i].lex != nil {
			lexTiles++
		}
	}
	if lexTiles < 4 {
		t.Fatalf("interior wavefront lowered to %d lex tiles, want >= 4", lexTiles)
	}
	// Kahn levels over the CSR graph: the widest level of lex tiles is
	// the available wavefront parallelism.
	deps := make([]int32, p.graph.Len())
	copy(deps, p.graph.InitDeps)
	frontier := []int{}
	for i, d := range deps {
		if d == 0 {
			frontier = append(frontier, i)
		}
	}
	maxWidth, visited := 0, 0
	for len(frontier) > 0 {
		width := 0
		var next []int
		for _, i := range frontier {
			visited++
			if p.tasks[i].node != nil && p.tasks[i].lex != nil {
				width++
			}
			for _, s := range p.graph.Succs[p.graph.SuccOff[i]:p.graph.SuccOff[i+1]] {
				deps[s]--
				if deps[s] == 0 {
					next = append(next, int(s))
				}
			}
		}
		if width > maxWidth {
			maxWidth = width
		}
		frontier = next
	}
	if visited != p.graph.Len() {
		t.Fatalf("level walk visited %d of %d tasks (cycle?)", visited, p.graph.Len())
	}
	if maxWidth < 2 {
		t.Fatalf("wavefront max level width %d, want >= 2 (no parallelism exposed)", maxWidth)
	}
}

// TestPlanDisabledByConfig checks the pbc.plan=0 escape hatch: no plan
// is built or cached.
func TestPlanDisabledByConfig(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	e := engine(t, parser.RollingSumSrc)
	cfg := choice.NewConfig()
	cfg.SetInt(PlanKey, 0)
	view := e.WithConfig(cfg)
	view.Pool = pool
	out, err := view.Run1("RollingSum", vec(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.At1(3) != 10 {
		t.Fatalf("B[3] = %g, want 10", out.At1(3))
	}
	if n := e.Artifacts().Mem(artifact.KindPlan).Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries with pbc.plan=0, want 0", n)
	}
}
