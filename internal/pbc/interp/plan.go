package interp

import (
	"sync"
	"time"

	"petabricks/internal/artifact"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/runtime"
)

// This file is the execution-plan layer, the one parallel executor
// (§3.2: "dependency edges between tasks are detected at compile time
// and encoded in the tasks as they are created"). For pbserve-shaped
// traffic — the same (transform, sizes, config) executed over and over
// — the task DAG is invariant, so Result.Schedule and the choice graph
// are lowered once into a plan: a flat runtime.TaskGraph whose tasks
// carry pre-resolved rules and concrete bounds, re-armed in O(tasks)
// with no allocation by the runtime's Run arena.
//
// On top of memoization, the plan tiles large schedule steps at build
// time. A step whose iteration space exceeds the parallel grain becomes
// a grid of region tiles with tile-to-tile dependency edges derived
// from the rule's constant affine offsets, so wavefront steps (cyclic
// stencil sweeps, lexicographic recurrences) expose parallelism that
// a step-granular task executes serially. Any shape the tiler cannot
// prove safe stays one step-granular task that runs the step loop's own
// runStep — the plan changes performance, never results.
//
// Plans also survive restarts: plan_serialize.go flattens a built plan
// into a pure-data PlanDescriptor persisted under artifact.KindPlan,
// and the first pooled run of a fresh entry rehydrates the descriptor
// (after full validation) instead of re-running construction.
//
// A plan lives on its invocation's memory-tier entry beside the
// compiled rules (compiledTransform, compile.go): one lookup finds both,
// and the cache's FIFO bound drops both together.

const (
	// planMaxTilesPerStep caps tiling fan-out: beyond it the tiler
	// coarsens blocks, and if even single blocks per dimension exceed it
	// the step stays step-granular.
	planMaxTilesPerStep = 1024
	// planMaxEdges bounds the whole plan's dependency-edge count; past
	// it cross-step wiring degrades to fences.
	planMaxEdges = 1 << 17
	// planMaxEdgesPerPair bounds the footprint-mapped edges of one
	// producer/consumer step pair before degrading to a fence.
	planMaxEdgesPerPair = 1 << 14
)

// plan is one memoized lowering of a schedule: an immutable task graph
// plus the per-task work descriptions. It is shared across concurrent
// executions; all fields are read-only after build.
type plan struct {
	graph *runtime.TaskGraph
	tasks []planTask
}

// planTask is one task of a plan, in one of three shapes:
//   - step != nil: run the whole schedule step via runStep (fallback
//     granularity, used when tiling is unsafe or unprofitable);
//   - node != nil: run the pre-chosen rule over the concrete bounds
//     (a tile); lex, when non-nil, orders the walk so intra-tile
//     wavefront dependencies are respected;
//   - neither: a fence — an empty barrier joining a tiled step to a
//     consumer that needs all of it.
type planTask struct {
	step   *analysis.Step
	node   *analysis.Node
	ri     *analysis.RuleInfo
	bounds [][2]int64
	lex    []analysis.LexDim
}

// planFor returns the invocation's execution plan, materialized once on
// its cache entry — outside the cache's lock, so a slow build or disk
// load never blocks unrelated lookups. A nil plan (the builder
// declined) sends the caller to the sequential step loop.
func (ex *exec) planFor() *plan {
	ct := ex.entry()
	built := false
	ct.planOnce.Do(func() { ct.plan, built = ex.loadOrBuildPlan(), true })
	if m := im.Load(); m != nil {
		if built {
			m.planMiss.Inc()
		} else {
			m.planHit.Inc()
		}
	}
	return ct.plan
}

// loadOrBuildPlan materializes an entry's plan: rehydrate a persisted
// descriptor when the disk tier has one for this invocation key (the
// jit warm-start pattern), otherwise construct the plan and record it
// on the run's pending pack, which describes, encodes and writes it
// when the top-level run ends. On a memory-only store there is no
// pending pack and the plan stays in memory.
func (ex *exec) loadOrBuildPlan() *plan {
	e := ex.engine
	m := im.Load()
	if e.arts.Persistent() {
		var warm *plan
		e.arts.Load(artifact.KindPlan, ex.artifactKey(), func(payload []byte) error {
			d, err := DecodePlan(payload)
			if err != nil {
				return err
			}
			p, err := d.rehydrate(ex.res)
			if err != nil {
				return err
			}
			warm = p
			return nil
		})
		if warm != nil {
			planCtr.warmLoads.Add(1)
			return warm
		}
	}
	start := time.Now()
	p := ex.buildPlan()
	if p == nil {
		return nil // declined: not a build
	}
	planCtr.buildNanos.Add(time.Since(start).Nanoseconds())
	planCtr.builds.Add(1)
	if m != nil {
		m.planBuild.Inc()
	}
	if ex.pend != nil {
		res := ex.res
		ex.pend.Add(artifact.KindPlan, ex.artifactKey(), func() ([]byte, error) {
			d, ok := describePlan(res, p)
			if !ok {
				return nil, nil
			}
			return EncodePlan(d)
		})
	}
	return p
}

// runPlan executes a memoized plan on the pool via the Run arena. Two
// shapes never reach the scheduler: a plan with no tasks (macro rules
// produced every output) has nothing to join, and a lone task joined
// from a scheduler thread runs on that thread — arming, queueing and
// waking for it would cost more than a nested call's whole body.
//
// For the length of a run each worker keeps one bound frame per tile
// rule (see runTile), indexed by worker and rule index, and every one is
// unbound and released when the run ends, on success or error.
func (ex *exec) runPlan(p *plan) error {
	switch {
	case len(p.tasks) == 0:
		return nil
	case len(p.tasks) == 1 && ex.worker != nil:
		return ex.runPlanTask(&p.tasks[0], ex.worker)
	}
	pool := ex.engine.Pool
	nr := len(ex.res.Transform.Rules)
	frames := make([]tileFrame, pool.NumWorkers()*nr)
	defer ex.releaseTileFrames(frames)
	var mu sync.Mutex
	var firstErr error
	r := pool.NewRun(p.graph, func(w *runtime.Worker, i int) {
		t := &p.tasks[i]
		var err error
		if t.node != nil {
			err = ex.runTile(t, &frames[w.ID()*nr+t.ri.Rule.Index], w)
		} else {
			err = ex.runPlanTask(t, w)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	if err := r.SubmitAll(ex.worker); err != nil {
		r.Release()
		return err
	}
	if ex.worker != nil {
		r.WaitWorker(ex.worker)
	} else {
		r.Wait()
	}
	r.Release()
	return firstErr
}

func (ex *exec) runPlanTask(t *planTask, w *runtime.Worker) error {
	switch {
	case t.step != nil:
		return ex.runStep(t.step, w)
	case t.node != nil:
		return ex.runCells(t.ri, t.bounds, t.lex, w)
	default:
		return nil // fence
	}
}

// tileFrame is one worker's frame for one tile rule during a plan run.
// busy marks it in use by a tile on that worker's stack.
type tileFrame struct {
	f    *jit.Frame
	busy bool
}

// releaseTileFrames returns a finished run's frames to their rules'
// pools, unbound, and clears the slots. frames is indexed by worker and
// rule index (see runPlan), so slot i holds a frame of rule i mod nr.
func (ex *exec) releaseTileFrames(frames []tileFrame) {
	nr := len(ex.res.Transform.Rules)
	for i := range frames {
		if f := frames[i].f; f != nil {
			ex.comp.rules[i%nr].Load().releaseFrame(f)
		}
		frames[i] = tileFrame{}
	}
}

// runTile runs one tile of a plan run on worker w, whose frame for the
// tile's rule is tf: bound on the worker's first tile of that rule and
// reused by the rest. Only w touches tf. A tile that finds it busy — a
// tile body called a transform, and that call's join is running another
// tile of the same run on w — takes a frame of its own.
func (ex *exec) runTile(t *planTask, tf *tileFrame, w *runtime.Worker) error {
	if tf.f == nil || tf.busy {
		r := ex.vmRule(t.ri)
		if r == nil {
			return ex.runCellsWith(t.ri, nil, t.bounds, t.lex, w)
		}
		if tf.busy {
			f := r.acquireFrame(ex)
			defer r.releaseFrame(f)
			return ex.runCellsWith(t.ri, f, t.bounds, t.lex, w)
		}
		tf.f = r.acquireFrame(ex)
	}
	tf.busy = true
	err := ex.runCellsWith(t.ri, tf.f, t.bounds, t.lex, w)
	tf.busy = false
	return err
}

// runCells executes the rule's cells over concrete bounds — a plan tile,
// or a whole node of the serial step loop — with a single (pooled)
// frame for all of them.
func (ex *exec) runCells(ri *analysis.RuleInfo, b [][2]int64, lex []analysis.LexDim, w *runtime.Worker) error {
	for _, iv := range b {
		if iv[1] <= iv[0] {
			return nil
		}
	}
	var f *jit.Frame
	if r := ex.vmRule(ri); r != nil {
		f = r.acquireFrame(ex)
		defer r.releaseFrame(f)
	}
	return ex.runCellsWith(ri, f, b, lex, w)
}

// runCellsWith runs the cells of b on frame f (nil: the AST tier) as
// one box. A nil lex walks the flat order (independent cells, dimension
// 0 innermost); otherwise the box is walked in the lex order, so
// wavefront dependencies inside it read already-computed cells.
func (ex *exec) runCellsWith(ri *analysis.RuleInfo, f *jit.Frame, b [][2]int64, lex []analysis.LexDim, w *runtime.Worker) error {
	var cbuf [4]int64
	var obuf [4]analysis.LexDim
	center, order := cbuf[:0], obuf[:0]
	if len(b) > len(cbuf) {
		center, order = make([]int64, 0, len(b)), make([]analysis.LexDim, 0, len(b))
	}
	center = center[:len(b)]
	if lex == nil {
		for d := range b {
			order = append(order, analysis.LexDim{Dim: d, Dir: 1})
		}
	} else {
		for i := len(lex) - 1; i >= 0; i-- {
			order = append(order, lex[i])
		}
	}
	return ex.runBox(ri, f, center, b, order, w)
}

// --- Plan building --------------------------------------------------------

// builtStep records how one schedule step was lowered, with the grid
// geometry the cross-step wiring needs.
type builtStep struct {
	absent bool // nothing to run (macro-computed or empty regions)
	task   int  // single task id; -1 when the step is a tile grid
	isStep bool // task is step-granular (no bounds/rule information)

	node   *analysis.Node
	ri     *analysis.RuleInfo
	bounds [][2]int64

	// Grid tiling (task == -1): tiles occupy task ids
	// [tileBase, tileBase+ntiles) in flat dim-0-fastest block order.
	tileBase int
	ntiles   int
	blk      []int64
	nblk     []int64

	fence int // lazily created fence task (-1: none yet)
}

// declinePlans makes buildPlan decline every schedule. Only tests set
// it: a real program declines through a region that fails to evaluate,
// and then the run fails too.
var declinePlans bool

// planBuilder accumulates tasks and edges while lowering a schedule.
type planBuilder struct {
	ex    *exec
	grain int64
	tasks []planTask
	edges [][2]int
}

// buildPlan lowers the schedule into a plan, or returns nil when a
// region fails to evaluate (the caller then runs the step loop;
// correctness never depends on a plan existing). The macro
// ex.done set, the chosen rules, and the concrete bounds baked in here
// are all pure functions of (transform, sizes, config) — the cache key
// — so replaying the plan on later invocations is sound.
func (ex *exec) buildPlan() *plan {
	if declinePlans {
		return nil
	}
	grain := ex.engine.Cfg.Int(ParGrainKey, DefaultParGrain)
	if grain < 1 {
		grain = 1
	}
	pb := &planBuilder{ex: ex, grain: grain}
	steps := make([]builtStep, len(ex.res.Schedule))
	for si, st := range ex.res.Schedule {
		bs, ok := pb.lowerStep(st)
		if !ok {
			return nil
		}
		steps[si] = bs
	}
	for _, se := range ex.res.StepEdges {
		pb.wireCross(&steps[se[0]], &steps[se[1]])
	}
	gb := runtime.NewGraphBuilder(len(pb.tasks))
	for _, e := range pb.edges {
		gb.Edge(e[0], e[1])
	}
	g, err := gb.Build()
	if err != nil {
		// A cycle here would be a tiler bug; decline the plan rather
		// than fail the run.
		return nil
	}
	if m := im.Load(); m != nil {
		m.planTiles.Observe(float64(len(pb.tasks)))
	}
	return &plan{graph: g, tasks: pb.tasks}
}

func (pb *planBuilder) addTask(t planTask) int {
	pb.tasks = append(pb.tasks, t)
	return len(pb.tasks) - 1
}

// stepFallback lowers a step as one step-granular task.
func (pb *planBuilder) stepFallback(st *analysis.Step) builtStep {
	return builtStep{task: pb.addTask(planTask{step: st}), isStep: true, fence: -1}
}

// lowerStep lowers one schedule step. ok=false declines the whole plan
// (region evaluation failed; the step loop will surface the error).
func (pb *planBuilder) lowerStep(st *analysis.Step) (builtStep, bool) {
	ex := pb.ex
	var active []*analysis.Node
	for _, n := range st.Nodes {
		if ex.skips(n) {
			continue
		}
		active = append(active, n)
	}
	if len(active) == 0 {
		return builtStep{absent: true, task: -1, fence: -1}, true
	}
	if len(active) > 1 {
		// Multi-node SCCs interleave nodes per wavefront slice; keep the
		// step's own executor.
		return pb.stepFallback(st), true
	}
	node := active[0]
	gc := node.Cell
	if gc == nil || len(gc.Rules) == 0 {
		// Macro-only region: empty regions have nothing to do; non-empty
		// ones must keep runNode's "requires a macro rule" error.
		if gc != nil {
			if empty, err := ex.regionEmpty(gc.Region); err == nil && empty {
				return builtStep{absent: true, task: -1, fence: -1}, true
			}
		}
		return pb.stepFallback(st), true
	}
	ri := ex.chooseCellRule(gc)
	b, err := ex.evalNodeRegion(node.Matrix, gc.Region)
	if err != nil {
		return builtStep{}, false
	}
	count := int64(1)
	for _, iv := range b {
		count *= iv[1] - iv[0]
		if count <= 0 {
			return builtStep{absent: true, task: -1, fence: -1}, true
		}
	}
	bs := builtStep{node: node, ri: ri, bounds: b, task: -1, fence: -1}
	single := func(lex []analysis.LexDim) builtStep {
		bs.task = pb.addTask(planTask{node: node, ri: ri, bounds: b, lex: lex})
		return bs
	}
	switch {
	case st.Lex != nil:
		if offs, ok := pb.selfOffsets(node, ri, len(b)); ok && lexBackward(offs, st.Lex) && count >= 2*pb.grain {
			pb.tileLex(&bs, st.Lex)
			return bs, true
		}
		// Serial lex walk with one frame — runLex semantics, memoized.
		return single(st.Lex), true
	case st.Cyclic:
		axis := st.IterDim
		if axis >= len(b) {
			return pb.stepFallback(st), true
		}
		serialLex := cyclicLex(len(b), axis, st.IterDir)
		offs, ok := pb.selfOffsets(node, ri, len(b))
		if !ok || len(b) == 1 {
			return single(serialLex), true
		}
		if !pb.tileCyclic(&bs, axis, st.IterDir, offs) {
			return single(serialLex), true
		}
		return bs, true
	default:
		if count >= 2*pb.grain {
			pb.tileGrid(&bs, nil, pb.grain, planMaxTilesPerStep)
			return bs, true
		}
		return single(nil), true
	}
}

// selfOffsets folds every self-edge annotation of the chosen rule into
// constant offset vectors. ok=false means some internal dependency is
// not an exact constant offset under these sizes, so tile-to-tile edges
// cannot be derived.
func (pb *planBuilder) selfOffsets(node *analysis.Node, ri *analysis.RuleInfo, nd int) ([][]int64, bool) {
	var out [][]int64
	for _, e := range pb.ex.res.Graph.Edges {
		if e.From != node || e.To != node {
			continue
		}
		for _, a := range e.Annots {
			if a.Rule != ri {
				continue
			}
			off, ok := a.ConstOffsets(nd, pb.ex.sizes())
			if !ok {
				return nil, false
			}
			out = append(out, off)
		}
	}
	return out, true
}

// lexBackward reports whether every offset vector is component-wise
// backward under the lex order (off[d]*dir[d] <= 0 for every dim). Then
// any dependency of a block lands in the cone of component-wise earlier
// blocks, which adjacent-predecessor edges generate transitively — no
// halo constraint on the block size is needed.
func lexBackward(offs [][]int64, lex []analysis.LexDim) bool {
	for _, off := range offs {
		for _, ld := range lex {
			if off[ld.Dim]*int64(ld.Dir) > 0 {
				return false
			}
		}
	}
	return true
}

// tileLex splits a lexicographic-wavefront step into a block grid. Each
// tile walks its cells in the step's lex order; tile(X) depends on the
// adjacent earlier block along every dimension.
func (pb *planBuilder) tileLex(bs *builtStep, lex []analysis.LexDim) {
	pb.tileGrid(bs, nil, pb.grain, planMaxTilesPerStep)
	for i := range pb.tasks[bs.tileBase : bs.tileBase+bs.ntiles] {
		pb.tasks[bs.tileBase+i].lex = lex
	}
	idx := make([]int64, len(bs.nblk))
	for flat := 0; flat < bs.ntiles; flat++ {
		gridIndex(int64(flat), bs.nblk, idx)
		for _, ld := range lex {
			p := idx[ld.Dim] - int64(ld.Dir)
			if p < 0 || p >= bs.nblk[ld.Dim] {
				continue
			}
			idx[ld.Dim] = p
			pb.edges = append(pb.edges, [2]int{bs.tileBase + int(gridFlat(idx, bs.nblk)), bs.tileBase + flat})
			idx[ld.Dim] += int64(ld.Dir)
		}
	}
}

// tileCyclic splits a single-axis wavefront step into axis-extent-1
// tiles × blocks over the remaining dimensions. Block sizes are clamped
// to the maximum constant offset per dimension, so every dependency of
// tile (a, X) lies in tiles (a-1, X+δ) with δ ∈ {-1,0,1} per dimension
// (deeper axis offsets are covered transitively through the a-1 layer).
// Returns false when the geometry degenerates (single block per slice —
// a pure chain — or too many tiles).
func (pb *planBuilder) tileCyclic(bs *builtStep, axis, dir int, offs [][]int64) bool {
	nd := len(bs.bounds)
	minBlk := make([]int64, nd)
	for _, off := range offs {
		for d := 0; d < nd; d++ {
			v := off[d]
			if v < 0 {
				v = -v
			}
			if v > minBlk[d] {
				minBlk[d] = v
			}
		}
	}
	axisLen := bs.bounds[axis][1] - bs.bounds[axis][0]
	if axisLen > planMaxTilesPerStep {
		return false
	}
	minBlk[axis] = 1 // frozen at extent 1 by tileGrid's frozen dim
	pb.tileGrid(bs, &axis, pb.grain, planMaxTilesPerStep)
	nonAxisBlocks := int64(1)
	for d, n := range bs.nblk {
		if d != axis {
			nonAxisBlocks *= n
		}
	}
	// Re-tile with offset clamps if the first pass chose smaller blocks.
	for d := 0; d < nd; d++ {
		if d != axis && bs.blk[d] < minBlk[d] {
			pb.retileMinBlock(bs, &axis, minBlk)
			nonAxisBlocks = 1
			for dd, n := range bs.nblk {
				if dd != axis {
					nonAxisBlocks *= n
				}
			}
			break
		}
	}
	if nonAxisBlocks <= 1 {
		// A chain of slices has no parallelism; undo the tiles.
		pb.tasks = pb.tasks[:bs.tileBase]
		bs.ntiles = 0
		return false
	}
	idx := make([]int64, nd)
	pidx := make([]int64, nd)
	for flat := 0; flat < bs.ntiles; flat++ {
		gridIndex(int64(flat), bs.nblk, idx)
		pa := idx[axis] - int64(dir) // earlier slice in walk order
		if pa < 0 || pa >= bs.nblk[axis] {
			continue
		}
		copy(pidx, idx)
		pidx[axis] = pa
		pb.neighborEdges(bs, pidx, axis, 0, flat)
	}
	return true
}

// neighborEdges appends edges from every {-1,0,1} non-axis displacement
// of pidx to consumer tile flat (recursing over dimensions from d).
func (pb *planBuilder) neighborEdges(bs *builtStep, pidx []int64, axis, d, flat int) {
	if d == len(pidx) {
		pb.edges = append(pb.edges, [2]int{bs.tileBase + int(gridFlat(pidx, bs.nblk)), bs.tileBase + flat})
		return
	}
	if d == axis {
		pb.neighborEdges(bs, pidx, axis, d+1, flat)
		return
	}
	orig := pidx[d]
	for _, delta := range [3]int64{0, -1, 1} {
		p := orig + delta
		if p < 0 || p >= bs.nblk[d] {
			continue
		}
		pidx[d] = p
		pb.neighborEdges(bs, pidx, axis, d+1, flat)
	}
	pidx[d] = orig
}

// retileMinBlock rebuilds a grid with per-dimension minimum block sizes
// (discarding the tiles of the previous attempt).
func (pb *planBuilder) retileMinBlock(bs *builtStep, frozen *int, minBlk []int64) {
	pb.tasks = pb.tasks[:bs.tileBase]
	blk, nblk := gridBlocks(bs.bounds, minBlk, frozen, pb.grain, planMaxTilesPerStep)
	pb.emitGrid(bs, blk, nblk)
}

// tileGrid splits the step's bounds into a block grid of independent
// tiles (no intra-step edges; callers add them for wavefront shapes).
func (pb *planBuilder) tileGrid(bs *builtStep, frozen *int, targetVol, maxTiles int64) {
	blk, nblk := gridBlocks(bs.bounds, nil, frozen, targetVol, maxTiles)
	pb.emitGrid(bs, blk, nblk)
}

func (pb *planBuilder) emitGrid(bs *builtStep, blk, nblk []int64) {
	bs.blk, bs.nblk = blk, nblk
	bs.task = -1
	bs.tileBase = len(pb.tasks)
	n := int64(1)
	for _, v := range nblk {
		n *= v
	}
	bs.ntiles = int(n)
	idx := make([]int64, len(nblk))
	for flat := int64(0); flat < n; flat++ {
		gridIndex(flat, nblk, idx)
		tb := make([][2]int64, len(blk))
		for d := range blk {
			lo := bs.bounds[d][0] + idx[d]*blk[d]
			hi := lo + blk[d]
			if hi > bs.bounds[d][1] {
				hi = bs.bounds[d][1]
			}
			tb[d] = [2]int64{lo, hi}
		}
		pb.addTask(planTask{node: bs.node, ri: bs.ri, bounds: tb})
	}
}

// gridBlocks picks per-dimension block sizes: at least minBlk, grown
// (largest-block-count dimension first) until a full tile holds
// targetVol cells and the grid fits in maxTiles. A frozen dimension
// stays at block size 1 (the wavefront axis).
func gridBlocks(b [][2]int64, minBlk []int64, frozen *int, targetVol, maxTiles int64) (blk, nblk []int64) {
	nd := len(b)
	blk = make([]int64, nd)
	nblk = make([]int64, nd)
	ext := make([]int64, nd)
	for d := 0; d < nd; d++ {
		ext[d] = b[d][1] - b[d][0]
		blk[d] = 1
		if minBlk != nil && minBlk[d] > 1 {
			blk[d] = minBlk[d]
		}
		if frozen != nil && d == *frozen {
			blk[d] = 1
		}
		if blk[d] > ext[d] {
			blk[d] = ext[d]
		}
	}
	recount := func() (vol, tiles int64) {
		vol, tiles = 1, 1
		for d := 0; d < nd; d++ {
			nblk[d] = (ext[d] + blk[d] - 1) / blk[d]
			vol *= blk[d]
			tiles *= nblk[d]
		}
		return
	}
	vol, tiles := recount()
	for vol < targetVol || tiles > maxTiles {
		grow := -1
		for d := 0; d < nd; d++ {
			if frozen != nil && d == *frozen {
				continue
			}
			if blk[d] >= ext[d] {
				continue
			}
			if grow < 0 || nblk[d] > nblk[grow] {
				grow = d
			}
		}
		if grow < 0 {
			break
		}
		blk[grow] *= 2
		if blk[grow] > ext[grow] {
			blk[grow] = ext[grow]
		}
		vol, tiles = recount()
	}
	return blk, nblk
}

// gridIndex converts a flat tile index to per-dimension block indices
// (dimension 0 fastest).
func gridIndex(flat int64, nblk, out []int64) {
	for d := 0; d < len(nblk); d++ {
		out[d] = flat % nblk[d]
		flat /= nblk[d]
	}
}

// gridFlat is the inverse of gridIndex.
func gridFlat(idx, nblk []int64) int64 {
	flat, stride := int64(0), int64(1)
	for d := 0; d < len(nblk); d++ {
		flat += idx[d] * stride
		stride *= nblk[d]
	}
	return flat
}

// --- Cross-step wiring ----------------------------------------------------

// wireCross adds dependency edges for one StepEdges pair. Preference
// order: exact footprint mapping (consumer tiles depend only on the
// producer tiles their reads touch, letting wavefronts overlap across
// steps), then a fence barrier, then direct task-to-task edges for
// untiled steps.
func (pb *planBuilder) wireCross(ps, cs *builtStep) {
	if ps.absent || cs.absent {
		return
	}
	// Untiled producer: one edge per consumer task.
	if ps.task >= 0 {
		for _, ct := range pb.stepTaskIDs(cs) {
			pb.edges = append(pb.edges, [2]int{ps.task, ct})
		}
		return
	}
	// Tiled producer. Consumers with known bounds and exact constant
	// read offsets get footprint-mapped edges.
	if cs.node != nil {
		if lohi, ok := pb.crossOffsets(ps, cs); ok && pb.footprintEdges(ps, cs, lohi) {
			return
		}
	}
	// Fence: all producer tiles → fence → every consumer task.
	if ps.fence < 0 {
		ps.fence = pb.addTask(planTask{})
		for i := 0; i < ps.ntiles; i++ {
			pb.edges = append(pb.edges, [2]int{ps.tileBase + i, ps.fence})
		}
	}
	for _, ct := range pb.stepTaskIDs(cs) {
		pb.edges = append(pb.edges, [2]int{ps.fence, ct})
	}
}

// stepTaskIDs lists every runnable task id of a step.
func (pb *planBuilder) stepTaskIDs(bs *builtStep) []int {
	if bs.task >= 0 {
		return []int{bs.task}
	}
	out := make([]int, bs.ntiles)
	for i := range out {
		out[i] = bs.tileBase + i
	}
	return out
}

// crossOffsets folds the consumer rule's reads of the producer node
// into per-dimension [min,max] offset ranges. ok=false means some read
// is not an exact constant offset (or ranks differ), so the footprint
// cannot be mapped.
func (pb *planBuilder) crossOffsets(ps, cs *builtStep) ([][2]int64, bool) {
	nd := len(cs.bounds)
	if len(ps.bounds) != nd {
		return nil, false
	}
	var lohi [][2]int64
	for _, e := range pb.ex.res.Graph.Edges {
		if e.From != ps.node || e.To != cs.node {
			continue
		}
		for _, a := range e.Annots {
			if a.Rule != cs.ri {
				continue
			}
			off, ok := a.ConstOffsets(nd, pb.ex.sizes())
			if !ok {
				return nil, false
			}
			if lohi == nil {
				lohi = make([][2]int64, nd)
				for d := 0; d < nd; d++ {
					lohi[d] = [2]int64{off[d], off[d]}
				}
				continue
			}
			for d := 0; d < nd; d++ {
				if off[d] < lohi[d][0] {
					lohi[d][0] = off[d]
				}
				if off[d] > lohi[d][1] {
					lohi[d][1] = off[d]
				}
			}
		}
	}
	// lohi == nil: the chosen rule never reads this producer — no edges
	// needed at all, which footprintEdges handles as an empty mapping.
	return lohi, true
}

// footprintEdges wires each consumer task to exactly the producer tiles
// its reads touch. Returns false when the edge budget is exceeded (the
// caller falls back to a fence).
func (pb *planBuilder) footprintEdges(ps, cs *builtStep, lohi [][2]int64) bool {
	if lohi == nil {
		return true // consumer provably reads nothing of this producer
	}
	nd := len(cs.bounds)
	start := len(pb.edges)
	var consumers []int
	if cs.task >= 0 {
		consumers = []int{cs.task}
	} else {
		consumers = pb.stepTaskIDs(cs)
	}
	bl := make([]int64, nd)
	bh := make([]int64, nd)
	idx := make([]int64, nd)
	for _, ct := range consumers {
		cb := pb.tasks[ct].bounds
		empty := false
		for d := 0; d < nd; d++ {
			lo := cb[d][0] + lohi[d][0]
			hi := cb[d][1] - 1 + lohi[d][1]
			if lo < ps.bounds[d][0] {
				lo = ps.bounds[d][0]
			}
			if hi > ps.bounds[d][1]-1 {
				hi = ps.bounds[d][1] - 1
			}
			if hi < lo {
				empty = true
				break
			}
			bl[d] = (lo - ps.bounds[d][0]) / ps.blk[d]
			bh[d] = (hi - ps.bounds[d][0]) / ps.blk[d]
		}
		if empty {
			continue
		}
		// Enumerate the producer block box.
		copy(idx, bl)
		for {
			pb.edges = append(pb.edges, [2]int{ps.tileBase + int(gridFlat(idx, ps.nblk)), ct})
			if len(pb.edges)-start > planMaxEdgesPerPair || len(pb.edges) > planMaxEdges {
				pb.edges = pb.edges[:start]
				return false
			}
			d := 0
			for d < nd {
				idx[d]++
				if idx[d] <= bh[d] {
					break
				}
				idx[d] = bl[d]
				d++
			}
			if d == nd {
				break
			}
		}
	}
	return true
}
