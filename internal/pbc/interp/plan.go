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
// a grid of region tiles, so wavefront steps (cyclic stencil sweeps,
// lexicographic recurrences) expose parallelism that a step-granular
// task executes serially. Tile-to-tile edges come from one rule, within
// a step and between steps: the consumer rule's constant read offsets,
// folded into a box, map each consumer task's bounds onto the producer
// blocks it reads (offsetBox, footprintEdges). Where that rule cannot
// apply, a tiled producer joins its consumer through a fence, and a
// wavefront step stays one task, as does any shape the tiler cannot
// prove safe — the plan changes performance, never results.
//
// A plan's tasks name the analysis state they run by stable indices, so
// the one value a run replays is also what the disk tier stores:
// plan_serialize.go persists the tasks with the graph's edges under
// artifact.KindPlan, and the first pooled run of a fresh entry reloads
// them (checked against its analysis) instead of re-running
// construction.
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
	// it footprint mapping degrades as planMaxEdgesPerPair says.
	planMaxEdges = 1 << 17
	// planMaxEdgesPerPair bounds the footprint-mapped edges of one
	// producer/consumer step pair: past it two steps are joined by a
	// fence, and a wavefront step wired to itself stays one task.
	planMaxEdgesPerPair = 1 << 14
)

// plan is one memoized lowering of a schedule: an immutable task graph
// plus the per-task work descriptions. It is shared across concurrent
// executions; all fields are read-only after build.
type plan struct {
	graph *runtime.TaskGraph
	tasks []planTask
}

// Plan task kinds, the discriminant of planTask.
const (
	planFence = iota // empty barrier joining a tiled step to a consumer
	planStep         // run a whole schedule step (fallback granularity)
	planTile         // run a pre-chosen rule over concrete bounds
)

// planTask is one task of a plan, in one of three kinds:
//   - planStep: run schedule step Step via runStep (fallback
//     granularity, used when tiling is unsafe or unprofitable);
//   - planTile: run rule Rule, one of graph node Node's cell rules, over
//     the concrete Bounds; Lex, when non-nil, orders the walk so
//     intra-tile wavefront dependencies are respected;
//   - planFence: an empty barrier joining a tiled step to a consumer
//     that needs all of it.
//
// Step, Node and Rule index Result.Schedule, Graph.Nodes and Rules.
// The fields are exported for the disk tier's gob encoding.
type planTask struct {
	Kind   int32
	Step   int32
	Node   int32
	Rule   int32
	Bounds [][2]int64
	Lex    []analysis.LexDim
}

// tileTask is the task running rule ri of node over bounds b.
func tileTask(node *analysis.Node, ri *analysis.RuleInfo, b [][2]int64, lex []analysis.LexDim) planTask {
	return planTask{Kind: planTile, Node: int32(node.ID), Rule: int32(ri.Rule.Index), Bounds: b, Lex: lex}
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

// loadOrBuildPlan materializes an entry's plan: reload a persisted plan
// when the disk tier has one for this invocation key (the jit
// warm-start pattern), otherwise construct the plan and record it on
// the run's pending pack, which encodes and writes it when the
// top-level run ends. On a memory-only store there is no pending pack
// and the plan stays in memory.
func (ex *exec) loadOrBuildPlan() *plan {
	e := ex.engine
	m := im.Load()
	if e.arts.Persistent() {
		var warm *plan
		e.arts.Load(artifact.KindPlan, ex.artifactKey(), func(payload []byte) error {
			p, err := decodePlan(payload, ex.res)
			warm = p
			return err
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
		ex.pend.Add(artifact.KindPlan, ex.artifactKey(), func() ([]byte, error) { return encodePlan(p) })
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
		if t.Kind == planTile {
			err = ex.runTile(t, &frames[w.ID()*nr+int(t.Rule)], w)
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
	switch t.Kind {
	case planStep:
		return ex.runStep(ex.res.Schedule[t.Step], w)
	case planTile:
		return ex.runCells(ex.res.Rules[t.Rule], t.Bounds, t.Lex, w)
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
	ri := ex.res.Rules[t.Rule]
	if tf.f == nil || tf.busy {
		r := ex.vmRule(ri)
		if r == nil {
			return ex.runCellsWith(ri, nil, t.Bounds, t.Lex, w)
		}
		if tf.busy {
			f := r.acquireFrame(ex)
			defer r.releaseFrame(f)
			return ex.runCellsWith(ri, f, t.Bounds, t.Lex, w)
		}
		tf.f = r.acquireFrame(ex)
	}
	tf.busy = true
	err := ex.runCellsWith(ri, tf.f, t.Bounds, t.Lex, w)
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
// geometry footprint mapping needs.
type builtStep struct {
	absent bool // nothing to run (macro-computed or empty regions)
	task   int  // single task id; -1 when the step is a tile grid

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
		bs, ok := pb.lowerStep(si, st)
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

// stepFallback lowers schedule step si as one step-granular task.
func (pb *planBuilder) stepFallback(si int) builtStep {
	return builtStep{task: pb.addTask(planTask{Kind: planStep, Step: int32(si)}), fence: -1}
}

// lowerStep lowers schedule step si, st: a wavefront step (lex or
// cyclic) through tileWavefront, whose tiles are wired to each other by
// the same footprint rule as steps are; any other step of one cell node
// as a grid of independent tiles; and what the tiler cannot take as one
// task. ok=false declines the whole plan (region evaluation failed; the
// step loop will surface the error).
func (pb *planBuilder) lowerStep(si int, st *analysis.Step) (builtStep, bool) {
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
		return pb.stepFallback(si), true
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
		return pb.stepFallback(si), true
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
		bs.task = pb.addTask(tileTask(node, ri, b, lex))
		return bs
	}
	switch {
	case st.Lex != nil:
		if count >= 2*pb.grain && pb.tileWavefront(&bs, st.Lex, nil) {
			return bs, true
		}
		// Serial lex walk with one frame — runLex semantics, memoized.
		return single(st.Lex), true
	case st.Cyclic:
		axis := st.IterDim
		if axis >= len(b) {
			return pb.stepFallback(si), true
		}
		if pb.tileWavefront(&bs, []analysis.LexDim{{Dim: axis, Dir: st.IterDir}}, &axis) {
			return bs, true
		}
		// The whole axis as one box, in runCyclic's walk order.
		return single(cyclicLex(len(b), axis, st.IterDir)), true
	default:
		if count >= 2*pb.grain {
			bs.blk, bs.nblk = gridBlocks(b, nil, pb.grain)
			pb.emitGrid(&bs, nil)
			return bs, true
		}
		return single(nil), true
	}
}

// tileWavefront splits a wavefront step into a block grid and wires the
// tiles to each other by the footprint rule that wires steps together
// (offsetBox, footprintEdges). A lex step (axis nil) is blocked in
// every dimension and each tile walks the lex order walk; a cyclic step
// keeps its axis at block size 1, so a tile is part of one slice and
// its cells are independent. Every self read must point backward along
// walk — weakly under a lex order, strictly on the cyclic axis — so the
// edges only ever run from earlier blocks and form no cycle. It reports
// false, with no task left behind, when a read is not a constant
// offset or points forward, when the grid is a chain of single blocks
// (or exceeds planMaxTilesPerStep), or when the self edges run over the
// per-pair budget; the caller then lowers the step as one task.
func (pb *planBuilder) tileWavefront(bs *builtStep, walk []analysis.LexDim, axis *int) bool {
	box, ok := pb.offsetBox(bs, bs)
	if !ok {
		return false
	}
	for _, ld := range walk {
		if box == nil {
			break // the rule reads nothing of its own step
		}
		ahead := box[ld.Dim][1] // the furthest read along the walk
		if ld.Dir < 0 {
			ahead = -box[ld.Dim][0]
		}
		if ahead > 0 || ahead == 0 && axis != nil {
			return false
		}
	}
	bs.blk, bs.nblk = gridBlocks(bs.bounds, axis, pb.grain)
	tiles, spread := int64(1), int64(1)
	for d, n := range bs.nblk {
		tiles *= n
		if axis == nil || d != *axis {
			spread *= n
		}
	}
	if spread <= 1 || tiles > planMaxTilesPerStep {
		return false // a chain of single blocks has no parallelism
	}
	lex := walk
	if axis != nil {
		lex = nil
	}
	pb.emitGrid(bs, lex)
	if !pb.footprintEdges(bs, bs, box) {
		pb.tasks = pb.tasks[:bs.tileBase]
		return false
	}
	return true
}

// emitGrid adds one tile task per block of bs's grid (bs.blk, bs.nblk),
// each walking lex (nil: the flat order).
func (pb *planBuilder) emitGrid(bs *builtStep, lex []analysis.LexDim) {
	bs.tileBase = len(pb.tasks)
	n := int64(1)
	for _, v := range bs.nblk {
		n *= v
	}
	bs.ntiles = int(n)
	idx := make([]int64, len(bs.nblk))
	for flat := int64(0); flat < n; flat++ {
		gridIndex(flat, bs.nblk, idx)
		tb := make([][2]int64, len(bs.blk))
		for d, blk := range bs.blk {
			lo := bs.bounds[d][0] + idx[d]*blk
			tb[d] = [2]int64{lo, min(lo+blk, bs.bounds[d][1])}
		}
		pb.addTask(tileTask(bs.node, bs.ri, tb, lex))
	}
}

// gridBlocks picks per-dimension block sizes, grown from 1
// (largest-block-count dimension first) until a full tile holds
// targetVol cells and the grid fits in planMaxTilesPerStep. A frozen
// dimension stays at block size 1 (the wavefront axis).
func gridBlocks(b [][2]int64, frozen *int, targetVol int64) (blk, nblk []int64) {
	nd := len(b)
	blk = make([]int64, nd)
	nblk = make([]int64, nd)
	ext := make([]int64, nd)
	for d := 0; d < nd; d++ {
		ext[d] = b[d][1] - b[d][0]
		blk[d] = 1
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
	for vol < targetVol || tiles > planMaxTilesPerStep {
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
		blk[grow] = min(2*blk[grow], ext[grow])
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
		if box, ok := pb.offsetBox(ps, cs); ok && pb.footprintEdges(ps, cs, box) {
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

// offsetBox folds the consumer rule's reads of the producer node into
// per-dimension [min,max] offset ranges, for two steps as for a tiled
// step's reads of itself (ps == cs). ok=false means some read is not an
// exact constant offset (or the ranks differ), so the footprint cannot
// be mapped; a nil box means the rule reads nothing of the producer.
func (pb *planBuilder) offsetBox(ps, cs *builtStep) ([][2]int64, bool) {
	nd := len(cs.bounds)
	if len(ps.bounds) != nd {
		return nil, false
	}
	var box [][2]int64
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
			if box == nil {
				box = make([][2]int64, nd)
				for d := range box {
					box[d] = [2]int64{off[d], off[d]}
				}
			}
			for d := range box {
				box[d] = [2]int64{min(box[d][0], off[d]), max(box[d][1], off[d])}
			}
		}
	}
	return box, true
}

// footprintEdges wires each consumer task to exactly the producer tiles
// its reads (offset box) touch, skipping a tile's edge to itself when a
// step is wired to itself. Returns false, with no edge left behind, when
// the edge budget is exceeded.
func (pb *planBuilder) footprintEdges(ps, cs *builtStep, box [][2]int64) bool {
	if box == nil {
		return true // consumer provably reads nothing of this producer
	}
	nd := len(cs.bounds)
	start := len(pb.edges)
	bl := make([]int64, nd)
	bh := make([]int64, nd)
	idx := make([]int64, nd)
	for _, ct := range pb.stepTaskIDs(cs) {
		cb := pb.tasks[ct].Bounds
		empty := false
		for d := 0; d < nd; d++ {
			lo := max(cb[d][0]+box[d][0], ps.bounds[d][0])
			hi := min(cb[d][1]-1+box[d][1], ps.bounds[d][1]-1)
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
			if pt := ps.tileBase + int(gridFlat(idx, ps.nblk)); pt != ct {
				pb.edges = append(pb.edges, [2]int{pt, ct})
			}
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
