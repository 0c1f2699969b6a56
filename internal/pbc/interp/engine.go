package interp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/pbc/symbolic"
	"petabricks/internal/runtime"
)

// Engine executes the transforms of one program. It is safe for
// concurrent use once constructed.
type Engine struct {
	Prog *ast.Program
	Cfg  *choice.Config
	Pool *runtime.Pool // nil: sequential execution

	mu sync.Mutex // guards arts
	// transforms is shared by pointer across WithConfig views.
	transforms *transformTable
	// arts is the tiered artifact store holding one entry per invocation
	// key, its compiled rules and execution plan (memory tier), and, when
	// persistent, jit bytecode and execution plans (disk tier). Shared
	// by pointer across WithConfig views — and, via UseArtifacts, across
	// engines.
	arts *artifact.Store
	// progFP fingerprints the program's printed text, so engines serving
	// same-named transforms from different programs never collide in a
	// shared store (and a restarted process recomputes the same value,
	// which is what makes the disk tier reusable across runs).
	progFP uint64
}

// transformTable holds each transform's analysis result and call
// descriptor (see binder.go), template instances once instantiated.
// Entries are immutable, and an instance analyzed through one view
// serves every view.
type transformTable struct {
	mu sync.Mutex
	m  map[string]*transformInfo
}

func (tt *transformTable) get(name string) (*transformInfo, bool) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	ti, ok := tt.m[name]
	return ti, ok
}

func (tt *transformTable) put(name string, ti *transformInfo) {
	tt.mu.Lock()
	tt.m[name] = ti
	tt.mu.Unlock()
}

// New analyzes every transform in the program eagerly so compile errors
// surface before execution.
func New(prog *ast.Program) (*Engine, error) {
	e := &Engine{
		Prog:       prog,
		Cfg:        choice.NewConfig(),
		transforms: &transformTable{m: map[string]*transformInfo{}},
		arts:       artifact.NewMemOnly(),
		progFP:     artifact.HashString(ast.Print(prog)),
	}
	for _, t := range prog.Transforms {
		if len(t.Templates) > 0 {
			// Template transforms are analyzed per instance, when
			// RunTemplate binds their parameters.
			continue
		}
		res, err := analysis.Analyze(prog, t)
		if err != nil {
			return nil, err
		}
		e.transforms.m[t.Name] = newTransformInfo(res)
	}
	return e, nil
}

// WithConfig returns an engine view sharing this engine's program and
// analysis results but carrying its own configuration (and the same
// pool), so concurrent executions — e.g. server requests racing a
// background tuner — can each run under a different Config without
// mutating the shared Cfg field.
func (e *Engine) WithConfig(cfg *choice.Config) *Engine {
	if cfg == nil {
		cfg = choice.NewConfig()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Engine{Prog: e.Prog, Cfg: cfg, Pool: e.Pool, transforms: e.transforms, arts: e.arts, progFP: e.progFP}
}

// UseArtifacts replaces the engine's default memory-only artifact store
// (with a store on a directory, in the repository benchmark's boot_cold
// workload and pbfuzz's cold/warm axis). Call it before running;
// WithConfig views created afterwards share the new store, existing
// views keep the old one.
func (e *Engine) UseArtifacts(s *artifact.Store) {
	if s == nil {
		return
	}
	e.mu.Lock()
	e.arts = s
	e.mu.Unlock()
}

// Analysis returns the analysis result for a transform.
func (e *Engine) Analysis(name string) (*analysis.Result, bool) {
	if ti, ok := e.transform(name); ok {
		return ti.res, true
	}
	return nil, false
}

func (e *Engine) transform(name string) (*transformInfo, bool) { return e.transforms.get(name) }

// SelectorName returns the config key holding the rule selector for a
// transform (DSL transforms live under the "pbc." prefix).
func SelectorName(transform string) string { return "pbc." + transform }

// MaxDepth bounds transform-call recursion; configurations whose
// selectors lack a base-case level would otherwise recurse forever.
const MaxDepth = 256

// ParGrainKey is the config key of the parallel-iteration grain: the
// target number of cells per plan tile. It is part of every DSL
// transform's search space, so the autotuner can trade scheduling
// overhead against load balance like any other cutoff.
const ParGrainKey = "pbc.parGrain"

// DefaultParGrain is the grain used when a configuration doesn't tune it.
const DefaultParGrain = 256

// Run executes the named transform on the inputs (keyed by declared
// matrix name) and returns its outputs.
func (e *Engine) Run(name string, inputs map[string]*matrix.Matrix) (map[string]*matrix.Matrix, error) {
	if m := im.Load(); m != nil {
		defer m.runHist(name).ObserveSince(time.Now())
	}
	ti, ok := e.transform(name)
	if !ok {
		return nil, fmt.Errorf("interp: unknown transform %q", name)
	}
	ex, err := e.newExec(ti, ti.positional(inputs), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	// The artifacts this run and every call beneath it created go to
	// disk as one pack, on success and on error alike, before Run
	// returns.
	err = ex.runSchedule()
	_ = ex.pend.Commit() // a failed commit is counted and logged by the store; the artifacts stay in memory
	if err != nil {
		return nil, err
	}
	out := make(map[string]*matrix.Matrix, ti.nOut)
	for i, m := range ex.outputs() {
		out[ti.decls[ti.nIn+i].Name] = m
	}
	ex.release()
	return out, nil
}

// run executes one nested invocation of ti on positional inputs (From
// order) and returns it with its outputs computed; the caller takes
// them and releases it. parent is the calling invocation; dest, when
// non-nil, is the caller's region the output is about to be assigned
// to (see newExec); w is the scheduler thread the caller runs on.
func (e *Engine) run(ti *transformInfo, ins []*matrix.Matrix, parent *exec, dest *matrix.Matrix, w *runtime.Worker) (*exec, error) {
	ex, err := e.newExec(ti, ins, parent, dest, w)
	if err != nil {
		return nil, err
	}
	if err := ex.runSchedule(); err != nil {
		return nil, err
	}
	return ex, nil
}

// execPool recycles invocations (see exec.release): a tuned program
// re-enters the engine hundreds of times per run.
var execPool = sync.Pool{New: func() any { return new(exec) }}

// newExec sets up an invocation: size variables bound from the input
// shapes, outputs and intermediates allocated, compiled rules located.
//
// A top-level invocation allocates its outputs: the caller keeps them.
// A nested one writes straight into dest when that region has exactly
// the output's shape and shares its buffer with none of the inputs
// (buffer identity: disjoint regions of one matrix count as aliased);
// dest is zeroed first, as a callee may read cells it never writes.
// Otherwise, and for intermediates, nested invocations on the compiled
// tiers draw temporaries from matrix's free list, recycled by whoever
// consumes them. The AST tier always allocates — the oracle stays
// independent of all this.
func (e *Engine) newExec(ti *transformInfo, ins []*matrix.Matrix, parent *exec, dest *matrix.Matrix, w *runtime.Worker) (*exec, error) {
	ex := execPool.Get().(*exec)
	ex.engine, ex.ti, ex.res, ex.worker = e, ti, ti.res, w
	if parent != nil {
		// Same engine view, and a config cannot change inside one Run.
		ex.depth, ex.cfgFP, ex.mode, ex.pend = parent.depth+1, parent.cfgFP, parent.mode, parent.pend
	} else {
		ex.cfgFP, ex.mode, ex.pend = artifact.ConfigFingerprint(e.Cfg), e.engineMode(), e.arts.Pending()
	}
	if ex.depth > MaxDepth {
		return nil, fmt.Errorf("interp: recursion limit exceeded in %s; the configuration has no base-case level", ti.res.Transform.Name)
	}
	if n := len(ti.sizeVars); n <= len(ex.sizeBuf) {
		ex.sizeVals = ex.sizeBuf[:n]
	} else {
		ex.sizeVals = make([]int64, n)
	}
	if err := ti.bind(ins, ex.sizeVals); err != nil {
		return nil, err
	}
	ex.mats = append(ex.matBuf[:0], ins...)
	temps := parent != nil && ex.mode != EngineInterp
	for i := ti.nIn; i < len(ti.decls); i++ {
		var buf [4]int
		dims, err := ex.outShape(i, buf[:0])
		if err != nil {
			return nil, err
		}
		var m *matrix.Matrix
		switch {
		case dest != nil && i == ti.nIn && dest.HasShape(dims) && !dest.SharesStorage(ins...):
			dest.Zero()
			m = dest
		case temps:
			m = matrix.NewTemp(dims...)
		default:
			m = matrix.New(dims...)
		}
		ex.mats = append(ex.mats, m)
	}
	if parent != nil && parent.comp != nil {
		parent.comp.calleeKey(ex)
	}
	if ex.mode != EngineInterp {
		ex.entry()
	}
	return ex, nil
}

// release returns a finished invocation to the pool. Call it only on
// success, after the outputs have been taken: the schedule has joined
// every frame and task by then, so nothing else holds ex. Intermediates
// die here; the size map is dropped, not reused — a compiled holder may
// have captured it.
func (ex *exec) release() {
	for _, m := range ex.mats[ex.ti.nIn+ex.ti.nOut:] {
		recycle(m)
	}
	*ex = exec{}
	execPool.Put(ex)
}

// poisonRecycled is a test hook (export_test.go): recycled matrices are
// filled with NaN first, so a read through a stale view changes an
// output instead of going unnoticed.
var poisonRecycled bool

// recycle returns a dead temporary's storage to matrix's free list (a
// no-op on anything that is not a live temporary).
func recycle(m *matrix.Matrix) {
	if poisonRecycled {
		m.Fill(math.NaN())
	}
	m.Recycle()
}

// Run1 runs a transform with a single input and single output.
func (e *Engine) Run1(name string, in *matrix.Matrix) (*matrix.Matrix, error) {
	res, ok := e.Analysis(name)
	if !ok {
		return nil, fmt.Errorf("interp: unknown transform %q", name)
	}
	if len(res.Transform.From) != 1 || len(res.Transform.To) != 1 {
		return nil, fmt.Errorf("interp: %s is not single-input single-output", name)
	}
	outs, err := e.Run(name, map[string]*matrix.Matrix{res.Transform.From[0].Name: in})
	if err != nil {
		return nil, err
	}
	return outs[res.Transform.To[0].Name], nil
}

// exec is one transform invocation.
type exec struct {
	engine *Engine
	ti     *transformInfo
	res    *analysis.Result
	depth  int
	// worker is the scheduler thread this invocation entered on (nil for
	// calls from outside the pool); nested joins help through it instead
	// of blocking, which is what makes recursive parallel transforms
	// deadlock-free.
	worker *runtime.Worker
	// cfgFP and mode are the engine view's config fingerprint and
	// resolved tier, computed by the top-level invocation and inherited
	// by every call beneath it.
	cfgFP uint64
	mode  int
	// pend collects the artifacts the top-level run and every call
	// beneath it create, for Run to commit as one pack when it ends;
	// nil on a memory-only store.
	pend *artifact.Pending
	// sizeVals binds ti.sizeVars; mats holds the invocation's matrices
	// in ti.decls order. Both live in the inline buffers for the usual
	// small counts.
	sizeVals []int64
	mats     []*matrix.Matrix
	sizeBuf  [4]int64
	matBuf   [4]*matrix.Matrix
	// sizeMap is sizeVals by name, built on first use by sizes(): only
	// symbolic consumers (plan building, rule compilation, step-granular
	// region evaluation, the AST tier) need it.
	sizeOnce sync.Once
	sizeMap  map[string]int64
	// comp holds the invocation's memory-tier entry, fetched by entry
	// (nil until then; an unpooled AST-tier run never fetches it).
	comp *compiledTransform
	// key is the invocation cache key: rendered on first use by
	// invocationKey, or taken from the parent's holder for a nested call.
	key string
	// done is a bitset over decls indices: the matrices the selected
	// macro rules produced, whose nodes the schedule skips. It stays nil
	// (empty) unless a macro ran, and lives in doneBuf for transforms of
	// up to 64 matrices.
	done    []uint64
	doneBuf [1]uint64
}

// markDone records that a macro rule produced node's matrix.
func (ex *exec) markDone(node *analysis.Node) {
	if ex.done == nil {
		ex.done = ex.doneBuf[:]
		if n := (len(ex.ti.decls) + 63) >> 6; n > len(ex.doneBuf) {
			ex.done = make([]uint64, n)
		}
	}
	i := ex.ti.nodeMat[node.ID]
	ex.done[i>>6] |= 1 << (uint(i) & 63)
}

// skips reports whether the schedule has nothing to compute for node:
// it is an input, or a macro rule already produced its matrix.
func (ex *exec) skips(node *analysis.Node) bool {
	i := ex.ti.nodeMat[node.ID]
	return node.Input || i>>6 < len(ex.done) && ex.done[i>>6]>>(uint(i)&63)&1 != 0
}

// sizes returns the size-variable bindings by name. The map is shared
// and must not be mutated.
func (ex *exec) sizes() map[string]int64 {
	ex.sizeOnce.Do(func() {
		ex.sizeMap = make(map[string]int64, len(ex.sizeVals))
		for i, v := range ex.ti.sizeVars {
			ex.sizeMap[v] = ex.sizeVals[i]
		}
	})
	return ex.sizeMap
}

// mat returns the invocation's matrix declared under name.
func (ex *exec) mat(name string) *matrix.Matrix {
	if i, ok := ex.ti.matIndex[name]; ok {
		return ex.mats[i]
	}
	return nil
}

// outputs returns the To matrices in declaration order.
func (ex *exec) outputs() []*matrix.Matrix {
	return ex.mats[ex.ti.nIn : ex.ti.nIn+ex.ti.nOut]
}

// dslDims returns the matrix's extents in DSL (x, y, …) order.
func dslDims(m *matrix.Matrix) []int {
	nd := m.Dims()
	out := make([]int, nd)
	for i := 0; i < nd; i++ {
		out[i] = m.Size(nd - 1 - i)
	}
	return out
}

// evalRegion evaluates a symbolic region (DSL coordinates) to concrete
// bounds given extra center-variable bindings.
func (ex *exec) evalRegion(reg symbolic.Region, extra map[string]int64) ([][2]int64, error) {
	envv := ex.sizes()
	if len(extra) > 0 {
		envv = make(map[string]int64, len(envv)+len(extra))
		for k, v := range ex.sizes() {
			envv[k] = v
		}
		for k, v := range extra {
			envv[k] = v
		}
	}
	out := make([][2]int64, len(reg))
	for d, iv := range reg {
		lo, hi, err := iv.Eval(envv)
		if err != nil {
			return nil, err
		}
		out[d] = [2]int64{lo, hi}
	}
	return out, nil
}

// evalNodeRegion evaluates a grid-node region and clamps it to the
// matrix's concrete domain. Inputs smaller than the analysis's size
// assumption (Result.MinInputSize) would otherwise produce cells outside
// the matrix; clamping keeps execution in bounds (boundary cells may
// then be covered by more than one grid cell, which is harmless because
// the §3.5 consistency property makes overlapping rules agree).
func (ex *exec) evalNodeRegion(matName string, reg symbolic.Region) ([][2]int64, error) {
	b, err := ex.evalRegion(reg, nil)
	if err != nil {
		return nil, err
	}
	dims := dslDims(ex.mat(matName))
	for d := range b {
		ext := int64(dims[d])
		if b[d][0] < 0 {
			b[d][0] = 0
		}
		if b[d][0] > ext {
			b[d][0] = ext
		}
		if b[d][1] < b[d][0] {
			b[d][1] = b[d][0]
		}
		if b[d][1] > ext {
			b[d][1] = ext
		}
	}
	return b, nil
}

// runSchedule runs the macro rules the configuration selects, then the
// static schedule for whatever they left uncomputed.
func (ex *exec) runSchedule() error {
	if pool := ex.engine.Pool; pool != nil && ex.worker == nil && ex.selectsMacro() {
		// One pool entry per request: a macro body re-enters the engine
		// for every level beneath it, and each of those joins would
		// otherwise wake a worker and park the caller. Entered once here,
		// the whole recursion runs on a scheduler thread and its joins
		// help instead of blocking.
		var err error
		if perr := pool.TryRun(func(w *runtime.Worker) {
			ex.worker = w
			err = ex.runScheduleOnThread()
		}); perr != nil {
			return perr
		}
		return err
	}
	return ex.runScheduleOnThread()
}

// selectsMacro reports whether the configuration picks a macro rule for
// any computed matrix of this invocation.
func (ex *exec) selectsMacro() bool {
	for _, step := range ex.res.Schedule {
		for _, node := range step.Nodes {
			if !node.Input && ex.chooseMacro(ex.res.Grids[node.Matrix]) != nil {
				return true
			}
		}
	}
	return false
}

// runScheduleOnThread is runSchedule on the calling thread.
func (ex *exec) runScheduleOnThread() error {
	// Macro-path check: if the config selects a macro rule for an output
	// matrix, run it once instead of the per-cell schedule for that
	// matrix.
	covered := true // every computed matrix came from a macro rule
	for _, step := range ex.res.Schedule {
		for _, node := range step.Nodes {
			if ex.skips(node) {
				continue
			}
			ri := ex.chooseMacro(ex.res.Grids[node.Matrix])
			if ri == nil {
				covered = false
				continue
			}
			if err := ex.runMacro(ri); err != nil {
				return err
			}
			ex.markDone(node)
		}
	}
	// A pooled invocation runs its memoized plan. No plan — a degenerate
	// size, or a region the builder could not evaluate — takes the step
	// loop below, which raises that same error from the step that hits it.
	var p *plan
	if ex.engine.Pool != nil && ex.sizesMeetAssumption() {
		p = ex.planFor()
	}
	if m := im.Load(); m != nil {
		switch {
		case covered:
			m.schedMacro.Inc()
		case p != nil:
			m.schedParallel.Inc()
		case ex.engine.Pool != nil:
			m.schedDegenerate.Inc()
		default:
			m.schedSequential.Inc()
		}
	}
	if p != nil {
		return ex.runPlan(p)
	}
	for _, step := range ex.res.Schedule {
		if err := ex.runStep(step, ex.worker); err != nil {
			return err
		}
	}
	return nil
}

// sizesMeetAssumption reports whether every size variable is at least
// the analysis's ordering assumption (Result.MinInputSize). Below it,
// evalNodeRegion's clamping can collapse symbolically disjoint grid
// regions onto the same concrete cells (e.g. [0,1) and [n-1,n) at n=1),
// and the choice graph's edges then no longer order every conflicting
// pair of schedule steps — running them concurrently is a data race.
// Such degenerate sizes take the sequential schedule, where overlap is
// harmless (§3.5 consistency: overlapping rules agree).
func (ex *exec) sizesMeetAssumption() bool {
	for _, v := range ex.sizeVals {
		if v < ex.res.MinInputSize {
			return false
		}
	}
	return true
}

// chooseMacro consults the configuration: if the selector for this
// transform picks a macro rule (by rule index) for the current size, it
// returns that rule.
func (ex *exec) chooseMacro(grid *analysis.ChoiceGrid) *analysis.RuleInfo {
	if len(grid.Macro) == 0 {
		return nil
	}
	size := ex.problemSize()
	sel := ex.engine.Cfg.Selector(ex.ti.selName, ex.defaultRule(grid))
	want := sel.Choose(size).Choice
	for _, ri := range grid.Macro {
		if ri.Rule.Index == want {
			return ri
		}
	}
	return nil
}

// defaultRule picks the fallback rule index when no configuration
// exists: the first cell rule if any cell has one, else the first macro.
func (ex *exec) defaultRule(grid *analysis.ChoiceGrid) int {
	for _, gc := range grid.Cells {
		if len(gc.Rules) > 0 {
			return gc.Rules[0].Rule.Index
		}
	}
	if len(grid.Macro) > 0 {
		return grid.Macro[0].Rule.Index
	}
	return 0
}

// problemSize is the size metric the rule selector is indexed by: the
// smallest extent over every matrix of the invocation. Recursive macro
// rules (e.g. MatrixMultiply's decompositions) always shrink some
// dimension, so this metric decreases toward the selector's base-case
// levels; a max-extent metric would not.
func (ex *exec) problemSize() int64 {
	size := int64(1 << 62)
	for _, m := range ex.mats {
		for d := 0; d < m.Dims(); d++ {
			if int64(m.Size(d)) < size {
				size = int64(m.Size(d))
			}
		}
	}
	if size == 1<<62 {
		return 0
	}
	return size
}

func (ex *exec) runStep(step *analysis.Step, w *runtime.Worker) error {
	m := im.Load()
	if step.Lex != nil {
		if m != nil {
			m.stepsLex.Inc()
		}
		return ex.runLex(step, w)
	}
	if step.Cyclic {
		if m != nil {
			m.stepsCyclic.Inc()
		}
		return ex.runCyclic(step, w)
	}
	if m != nil {
		m.stepsPlain.Inc()
	}
	for _, node := range step.Nodes {
		if ex.skips(node) {
			continue
		}
		if err := ex.runNode(node, w); err != nil {
			return err
		}
	}
	return nil
}

// runNode executes the chosen cell rule over a node's region.
func (ex *exec) runNode(node *analysis.Node, w *runtime.Worker) error {
	ri, err := ex.cellRule(node)
	if ri == nil {
		return err
	}
	b, err := ex.evalNodeRegion(node.Matrix, node.Cell.Region)
	if err != nil {
		return err
	}
	return ex.runCells(ri, b, nil, w)
}

// cellRule returns the cell rule the configuration selects for node.
// Nil with a nil error means nothing to run: no grid cell, or an empty
// region that only macro rules compute.
func (ex *exec) cellRule(node *analysis.Node) (*analysis.RuleInfo, error) {
	gc := node.Cell
	if gc == nil {
		return nil, nil
	}
	if len(gc.Rules) == 0 {
		if empty, _ := ex.regionEmpty(gc.Region); empty {
			return nil, nil
		}
		return nil, fmt.Errorf("interp: region %s of %s requires a macro rule; configure the selector to use one", gc.Region, node.Matrix)
	}
	return ex.chooseCellRule(gc), nil
}

func (ex *exec) regionEmpty(reg symbolic.Region) (bool, error) {
	b, err := ex.evalRegion(reg, nil)
	if err != nil {
		return false, err
	}
	for _, iv := range b {
		if iv[1] <= iv[0] {
			return true, nil
		}
	}
	return false, nil
}

// chooseCellRule picks among a grid cell's rules using the configured
// selector; falls back to the first applicable rule.
func (ex *exec) chooseCellRule(gc *analysis.GridCell) *analysis.RuleInfo {
	size := ex.problemSize()
	sel := ex.engine.Cfg.Selector(ex.ti.selName, gc.Rules[0].Rule.Index)
	want := sel.Choose(size).Choice
	for _, ri := range gc.Rules {
		if ri.Rule.Index == want {
			return ri
		}
	}
	return gc.Rules[0]
}

// runCyclic iterates the step's axis in the scheduled direction,
// executing each node's slice at every index (wavefront order). All
// slice-invariant state — node regions, the configured rule choice,
// bytecode rules and their frames — is derived once before the
// wavefront loop: fine wavefronts visit one slice per cell, so anything
// done per index here is effectively per-cell cost.
func (ex *exec) runCyclic(step *analysis.Step, w *runtime.Worker) error {
	d := step.IterDim
	lo, hi := int64(1<<62), int64(-1<<62)
	for _, node := range step.Nodes {
		if ex.skips(node) {
			continue
		}
		b, err := ex.evalNodeRegion(node.Matrix, node.Region)
		if err != nil {
			return err
		}
		if d >= len(b) {
			return fmt.Errorf("interp: iteration dim %d out of range", d)
		}
		if b[d][0] < lo {
			lo = b[d][0]
		}
		if b[d][1] > hi {
			hi = b[d][1]
		}
	}
	if lo >= hi {
		return nil
	}
	type cyclicRun struct {
		ri *analysis.RuleInfo
		r  *vmRule
		fr *jit.Frame // pre-acquired frame of r; nil on the AST tier
		b  [][2]int64 // full node bounds
		bs [][2]int64 // scratch: b with the slice constraint applied
	}
	var runs []*cyclicRun
	defer func() {
		for _, cn := range runs {
			if cn.fr != nil {
				cn.r.releaseFrame(cn.fr)
			}
		}
	}()
	for _, node := range step.Nodes {
		if ex.skips(node) {
			continue
		}
		ri, err := ex.cellRule(node)
		if err != nil {
			return err
		}
		if ri == nil {
			continue
		}
		b, err := ex.evalNodeRegion(node.Matrix, node.Cell.Region)
		if err != nil {
			return err
		}
		cn := &cyclicRun{ri: ri, b: b, bs: make([][2]int64, len(b))}
		if cn.r = ex.vmRule(ri); cn.r != nil {
			cn.fr = cn.r.acquireFrame(ex)
		}
		runs = append(runs, cn)
	}
	// A lone node runs its axis as one box, walked like a plan's
	// single-task cyclic step: the same cells in the same slice order as
	// the per-slice loop below, without its per-slice dispatch.
	if len(runs) == 1 {
		cn := runs[0]
		copy(cn.bs, cn.b)
		cn.bs[d] = [2]int64{max(cn.b[d][0], lo), min(cn.b[d][1], hi)}
		return ex.runCellsWith(cn.ri, cn.fr, cn.bs, cyclicLex(len(cn.b), d, step.IterDir), w)
	}
	slice := func(idx int64) error {
		for _, cn := range runs {
			if idx < cn.b[d][0] || idx >= cn.b[d][1] {
				continue
			}
			copy(cn.bs, cn.b)
			cn.bs[d] = [2]int64{idx, idx + 1}
			if err := ex.runCellsWith(cn.ri, cn.fr, cn.bs, nil, w); err != nil {
				return err
			}
		}
		return nil
	}
	if step.IterDir >= 0 {
		for i := lo; i < hi; i++ {
			if err := slice(i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := hi - 1; i >= lo; i-- {
		if err := slice(i); err != nil {
			return err
		}
	}
	return nil
}

// cyclicLex is the lex order that walks a cyclic step's rank-nd box in
// one pass: the iteration axis outermost, in the scheduled direction.
// The remaining dimensions are independent within a slice, so any fixed
// order works; they go outermost-first from the highest, which leaves
// dimension 0, the contiguous one, innermost, as in the flat walk.
func cyclicLex(nd, axis, dir int) []analysis.LexDim {
	lex := make([]analysis.LexDim, 0, nd)
	lex = append(lex, analysis.LexDim{Dim: axis, Dir: dir})
	for d := nd - 1; d >= 0; d-- {
		if d != axis {
			lex = append(lex, analysis.LexDim{Dim: d, Dir: 1})
		}
	}
	return lex
}

// runBox runs ri's cells over the box b, walked in order (innermost
// dimension first, each with its direction; see jit.Frame.RunBox). It is
// the one cell loop under every tile and wavefront walker. A
// bytecode frame f hands the whole box to the vm, which checks the box's
// bindings once and steps each address by a constant; the AST tier (f
// nil) runs it cell by cell.
func (ex *exec) runBox(ri *analysis.RuleInfo, f *jit.Frame, center []int64, b [][2]int64, order []analysis.LexDim, w *runtime.Worker) error {
	if f != nil {
		return f.RunBox(center, b, order)
	}
	for _, iv := range b {
		if iv[1] <= iv[0] {
			return nil
		}
	}
	for _, o := range order {
		center[o.Dim] = o.First(b)
	}
	for {
		if err := ex.runCellAST(ri, center, w); err != nil {
			return err
		}
		j := 0
		for j < len(order) && center[order[j].Dim] == order[j].Last(b) {
			j++
		}
		if j == len(order) {
			return nil
		}
		for _, o := range order[:j] {
			center[o.Dim] = o.First(b)
		}
		if order[j].Dir < 0 {
			center[order[j].Dim]--
		} else {
			center[order[j].Dim]++
		}
	}
}

// runCellAST runs ri's body for one cell on the AST tier, the fallback
// for cell rules the vm does not take.
func (ex *exec) runCellAST(ri *analysis.RuleInfo, center []int64, w *runtime.Worker) error {
	binding := map[string]int64{}
	for d, v := range ri.CenterVars {
		if v != "" {
			binding[v] = center[d]
		}
	}
	return ex.runRuleBody(ri, binding, w)
}

// runLex executes a lexicographic-wavefront step: the cells of the
// (single) node are visited in the scheduled dimension order and
// directions, under which every internal dependency reads
// already-computed cells (e.g. 2-D recurrences iterated row-major).
func (ex *exec) runLex(step *analysis.Step, w *runtime.Worker) error {
	for _, node := range step.Nodes {
		if ex.skips(node) {
			continue
		}
		gc := node.Cell
		if gc == nil || len(gc.Rules) == 0 {
			continue
		}
		ri := ex.chooseCellRule(gc)
		b, err := ex.evalNodeRegion(node.Matrix, gc.Region)
		if err != nil {
			return err
		}
		if err := ex.runCells(ri, b, step.Lex, w); err != nil {
			return err
		}
	}
	return nil
}

// RunTemplate instantiates a template transform with the given integer
// template arguments, analyzes the instance (cached under its mangled
// name, e.g. "Smooth<3>"), and runs it. Each instance has its own
// selector key, so "each template instance is autotuned separately".
func (e *Engine) RunTemplate(name string, targs []int64, inputs map[string]*matrix.Matrix) (map[string]*matrix.Matrix, error) {
	inst, err := e.instantiate(name, targs)
	if err != nil {
		return nil, err
	}
	return e.Run(inst, inputs)
}

// instantiate specializes and caches a template instance, returning the
// instance's transform name.
func (e *Engine) instantiate(name string, targs []int64) (string, error) {
	t, ok := e.Prog.Find(name)
	if !ok {
		return "", fmt.Errorf("interp: unknown transform %q", name)
	}
	if len(t.Templates) == 0 {
		return "", fmt.Errorf("interp: transform %q is not a template", name)
	}
	inst, err := ast.Instantiate(t, targs)
	if err != nil {
		return "", err
	}
	if _, cached := e.transforms.get(inst.Name); cached {
		return inst.Name, nil
	}
	res, err := analysis.Analyze(e.Prog, inst)
	if err != nil {
		return "", fmt.Errorf("interp: instantiating %s: %w", inst.Name, err)
	}
	e.transforms.put(inst.Name, newTransformInfo(res))
	return inst.Name, nil
}
