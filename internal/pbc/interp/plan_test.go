package interp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// TestPlanCacheBound fills the artifact store's memory tier past its
// bound and checks the FIFO eviction: the size never exceeds the bound,
// the oldest keys are gone, and a re-lookup of a live key returns the
// same entry. (The generic eviction mechanics live in
// internal/artifact's own tests; this pins the interp wiring.)
func TestPlanCacheBound(t *testing.T) {
	pc := artifact.NewMemOnly().Mem()
	const bound = artifact.DefaultMemEntries
	const extra = 10
	mint := func(key string) *compiledTransform {
		v, _ := pc.GetOrCreate(key, func() any { return &compiledTransform{} })
		return v.(*compiledTransform)
	}
	entries := make([]*compiledTransform, bound+extra)
	for i := range entries {
		entries[i] = mint(fmt.Sprintf("k%d", i))
	}
	// live checks that of k1..k(bound+extra-1) exactly those from k<from>
	// on are cached.
	live := func(from int) {
		t.Helper()
		for i := 1; i < bound+extra; i++ {
			if k := fmt.Sprintf("k%d", i); pc.Contains(k) != (i >= from) {
				t.Fatalf("%s cached = %v; want k%d..k%d cached and no older key", k, pc.Contains(k), from, bound+extra-1)
			}
		}
	}
	// The cache holds exactly the newest bound keys (k0 is checked below).
	live(extra)
	// The newest key must still hit its original entry.
	last := fmt.Sprintf("k%d", bound+extra-1)
	if mint(last) != entries[bound+extra-1] {
		t.Fatalf("live key %s did not hit its entry", last)
	}
	// The oldest keys were evicted: looking one up mints a fresh entry.
	if mint("k0") == entries[0] {
		t.Fatal("k0 should have been evicted but hit its old entry")
	}
	// Re-inserting k0 evicted the then-oldest key.
	if !pc.Contains("k0") {
		t.Fatal("re-inserted k0 is not cached")
	}
	live(extra + 1)
}

// TestInvocationCacheOneEntry pins the memory tier's one entry per
// invocation key: the compiled rules and the execution plan are found
// by one lookup, an unpooled AST-tier run makes none, and the FIFO
// bound evicts the plan together with the rules.
func TestInvocationCacheOneEntry(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	counts := func() [4]int64 {
		return [4]int64{
			reg.Counter("pb_interp_cache_misses_total", "").Value(),
			reg.Counter("pb_interp_cache_hits_total", "").Value(),
			reg.Counter("pb_interp_plan_cache_misses_total", "").Value(),
			reg.Counter("pb_interp_plan_cache_hits_total", "").Value(),
		}
	}
	pool := runtime.NewPool(2)
	defer pool.Close()
	e := engine(t, parser.RollingSumSrc)
	pooled := e.WithConfig(choice.NewConfig())
	pooled.Pool = pool
	run := func(v *Engine, n int) {
		t.Helper()
		if _, err := v.Run1("RollingSum", benchVec(n, 3)); err != nil {
			t.Fatal(err)
		}
	}

	// N pooled runs of one key: one entry created and N-1 found, one plan
	// materialized and N-1 reused.
	const runs = 5
	for i := 0; i < runs; i++ {
		run(pooled, 64)
	}
	if got, want := counts(), [4]int64{1, runs - 1, 1, runs - 1}; got != want {
		t.Errorf("%d pooled runs: (cache misses, hits, plan misses, hits) = %v, want %v", runs, got, want)
	}

	// An AST-tier run without a pool looks nothing up.
	cfg := choice.NewConfig()
	cfg.SetInt(EngineKey, EngineInterp)
	before := counts()
	run(e.WithConfig(cfg), 64)
	if got := counts(); got != before {
		t.Errorf("an unpooled AST-tier run moved the cache series from %v to %v", before, got)
	}

	// Filling the cache with other keys from unpooled runs evicts the
	// first key's entry, so its next pooled run rebuilds both its plan
	// and its rules.
	for n := 65; n < 65+artifact.DefaultMemEntries; n++ {
		run(e, n)
	}
	builds, compiled := PlanStats().Builds, EngineStatsSnapshot().Compiled["jit"]
	run(pooled, 64)
	if PlanStats().Builds == builds {
		t.Error("the evicted key's pooled rerun reused its old plan")
	}
	if EngineStatsSnapshot().Compiled["jit"] == compiled {
		t.Error("the evicted key's pooled rerun reused its old rules")
	}
}

// TestPlanCacheSharedAcrossViews checks that WithConfig views share one
// invocation cache and that a repeated (transform, sizes, config) run reuses
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
	builds := PlanStats().Builds
	for i := 0; i < 2; i++ {
		view := e.WithConfig(choice.NewConfig())
		view.Pool = pool
		out, err := view.Run("RollingSum", inputs)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	if n := PlanStats().Builds - builds; n != 1 {
		t.Fatalf("two identical runs built %d plans, want 1", n)
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

// TestPlanDifferential runs corpus transforms on the pool and requires
// outputs bit-identical to the sequential reference. Repeated twice so
// the second pooled run replays the memoized plan.
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
			for rep := 0; rep < 2; rep++ {
				view := e.WithConfig(tc.cfg())
				view.Pool = pool
				out, err := view.Run(tc.main, inputs)
				if err != nil {
					t.Fatalf("pool rep %d: %v", rep, err)
				}
				for name, m := range ref {
					if !m.Equal(out[name]) {
						t.Fatalf("pool rep %d: output %s differs from sequential reference (max |Δ| %g)",
							rep, name, m.MaxAbsDiff(out[name]))
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
// two or more tiles of that wavefront (a step-granular task would run
// it serially).
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

// TestPlanDeclinedRunsStepLoop forces the builder to decline every plan
// and checks that pooled runs then take the step loop: outputs
// bit-identical to the sequential run on every corpus case, the
// invocation counted as degenerate_sequential and not as a build, and
// the pool still usable for a planned run afterwards.
func TestPlanDeclinedRunsStepLoop(t *testing.T) {
	pool := runtime.NewPool(4)
	defer pool.Close()
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	shape := func(label string) int64 {
		return reg.Counter("pb_interp_schedules_total", "", obs.L("shape", label)).Value()
	}
	builds := func() (int64, int64) {
		return PlanStats().Builds, reg.Counter("pb_plan_builds_total", "").Value()
	}

	DeclinePlans(true)
	defer DeclinePlans(false)
	for _, tc := range planCases() {
		e := engine(t, tc.src)
		inputs, err := e.GenerateInputs(tc.main, tc.size, 11)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := e.WithConfig(tc.cfg()).Run(tc.main, inputs)
		if err != nil {
			t.Fatal(err)
		}
		par, deg := shape("parallel"), shape("degenerate_sequential")
		stat, ctr := builds()
		view := e.WithConfig(tc.cfg())
		view.Pool = pool
		out, err := view.Run(tc.main, inputs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for name, m := range ref {
			if !reflect.DeepEqual(m.Data(), out[name].Data()) {
				t.Errorf("%s: output %s differs from the sequential run", tc.name, name)
			}
		}
		if got := shape("degenerate_sequential") - deg; got != 1 {
			t.Errorf("%s: degenerate_sequential advanced by %d, want 1", tc.name, got)
		}
		if got := shape("parallel") - par; got != 0 {
			t.Errorf("%s: parallel advanced by %d, want 0", tc.name, got)
		}
		if s, c := builds(); s != stat || c != ctr {
			t.Errorf("%s: a declined plan counted as a build (PlanStats %d -> %d, pb_plan_builds_total %d -> %d)",
				tc.name, stat, s, ctr, c)
		}
	}

	DeclinePlans(false)
	e := engine(t, parser.RollingSumSrc)
	e.Pool = pool
	par := shape("parallel")
	stat, ctr := builds()
	out, err := e.Run1("RollingSum", vec(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.At1(3) != 10 {
		t.Fatalf("B[3] = %g, want 10", out.At1(3))
	}
	if got := shape("parallel") - par; got != 1 {
		t.Errorf("planned run: parallel advanced by %d, want 1", got)
	}
	if s, c := builds(); s != stat+1 || c != ctr+1 {
		t.Errorf("planned run: builds %d -> %d, pb_plan_builds_total %d -> %d, want +1 each", stat, s, ctr, c)
	}
}
