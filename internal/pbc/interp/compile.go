package interp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/artifact"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/pbc/symbolic"
	"petabricks/internal/runtime"
)

// This file is the interpreter's rule compiler. Instead of re-walking
// the AST with a map[string]value environment for every cell (the
// runRuleBody path, kept as the fallback), each rule body is lowered
// once per (transform, input sizes, config) into a tree of Go closures
// over a slot-indexed frame, and every region reference's bounds are
// folded into affine base+stride coefficients of the loop variables.
// Per-cell work then reduces to a few integer multiply-adds to rebind
// the references plus straight-line closure calls — no map lookups, no
// symbolic evaluation, and no per-cell allocation.

// EngineKey selects the execution tier for rule bodies. The engines are
// semantically identical (pbfuzz's difftest demands bit-identical
// outputs across all of them); the key exists for benchmarking,
// differential testing, and as an autotunable choice.
const EngineKey = "pbc.engine"

// Execution tiers, the values of EngineKey. Unknown values clamp to the
// default (EngineJIT).
const (
	// EngineInterp walks the AST with a map environment per cell.
	EngineInterp = 0
	// EngineClosure lowers bodies once into slot-indexed Go closures.
	EngineClosure = 1
	// EngineJIT lowers bodies to flat bytecode run by internal/pbc/jit's
	// register VM, falling back per rule to closures (and from there to
	// the AST) with a typed reason.
	EngineJIT = 2
)

// artifactKey is the canonical artifact key of this invocation: program
// fingerprint, transform, size binding, config fingerprint, resolved
// engine tier (see artifact.Key).
func (ex *exec) artifactKey() artifact.Key {
	return artifact.Key{
		Prog:      ex.engine.progFP,
		Transform: ex.res.Transform.Name,
		Sizes:     artifact.SizesKeySorted(ex.ti.sizeVars, ex.sizeVals),
		ConfigFP:  ex.cfgFP,
		Engine:    ex.mode,
	}
}

// invocationKey returns artifactKey rendered — once per invocation, or
// not at all for a nested call whose parent's holder has it memoised
// (see calleeKey) — as the key of the compiled-program and
// execution-plan lookups.
func (ex *exec) invocationKey() string {
	if ex.key == "" {
		ex.key = ex.artifactKey().String()
	}
	return ex.key
}

// engineMode resolves the configured execution tier: the clamped
// EngineKey value (default EngineJIT).
func (e *Engine) engineMode() int {
	switch int(e.Cfg.Int(EngineKey, EngineJIT)) {
	case EngineInterp:
		return EngineInterp
	case EngineClosure:
		return EngineClosure
	default:
		return EngineJIT
	}
}

// compiledFor returns the compiled-program holder for one invocation,
// or nil when configuration forces the AST tier. Holders live in the
// artifact store's memory tier and compile their rules lazily, so a
// miss stays cheap until a rule actually runs.
func (ex *exec) compiledFor() *compiledTransform {
	e := ex.engine
	mode := ex.mode
	if mode == EngineInterp {
		return nil
	}
	key := ex.invocationKey()
	v, created := e.arts.Mem(artifact.KindProgram).GetOrCreate(key, func() any {
		// The key's config fingerprint covers every int tunable including
		// EngineKey, so two configs resolving to different modes can never
		// share an entry; mode is safe to freeze at creation.
		return &compiledTransform{res: ex.res, sizes: ex.sizes(), mode: mode, akey: ex.artifactKey(), arts: e.arts,
			matIndex: ex.ti.matIndex, callees: map[calleeShape]string{},
			rules: make([]atomic.Pointer[compiledRule], len(ex.res.Transform.Rules))}
	})
	if m := im.Load(); m != nil {
		if created {
			m.cacheMiss.Inc()
			if mode == EngineJIT {
				m.jitCacheMiss.Inc()
			}
		} else {
			m.cacheHit.Inc()
			if mode == EngineJIT {
				m.jitCacheHit.Inc()
			}
		}
	}
	return v.(*compiledTransform)
}

// compiledTransform holds the lazily compiled rules of one transform at
// one size binding, for one execution tier. It is the value of one
// memory-tier artifact (KindProgram); under the jit tier it also fronts
// the store's disk tier, loading persisted bytecode before lowering and
// persisting fresh lowerings back.
type compiledTransform struct {
	res   *analysis.Result
	sizes map[string]int64
	mode  int // EngineClosure or EngineJIT
	akey  artifact.Key
	arts  *artifact.Store
	// matIndex maps a declared matrix name to its index in exec.mats.
	matIndex map[string]int

	// callees memoises the rendered keys of the transforms this holder's
	// rule bodies call (see calleeKey).
	calleeMu sync.Mutex
	callees  map[calleeShape]string

	// rules holds each rule's compiled form by rule index, astRule for a
	// rule that fell back to the AST tier, nil until first compiled. It is
	// read without a lock; mu serialises compilation.
	mu    sync.Mutex
	rules []atomic.Pointer[compiledRule]
	// warmLoaded marks the one disk-tier load attempt; jprogs then holds
	// every live jit program — warm-loaded or freshly lowered — and is
	// what a run that lowered a rule commits back (see persist).
	warmLoaded bool
	jprogs     map[int]*jit.Program
}

// calleeShape identifies a nested call as seen from one holder: config
// fingerprint and tier are the holder's own (a call inherits both), so
// the callee and its size binding determine the key.
type calleeShape struct {
	ti    *transformInfo
	sizes [4]int64
}

// maxCalleeKeys bounds one holder's memo. Macro rules call at a handful
// of shapes fixed by the holder's sizes; a cell rule passing
// center-dependent regions can produce one per cell, and past the bound
// those render their key per call as before.
const maxCalleeKeys = 64

// calleeKey sets the invocation key of call, a nested invocation made
// from one of this holder's rule bodies, rendering it only the first
// time the holder sees that callee at those sizes. The memo lives and
// dies with the holder, and only the rendering is skipped: the program
// and plan lookups still go through the artifact store, so cache
// counters and recency are those of an unmemoised call.
func (ct *compiledTransform) calleeKey(call *exec) {
	shape := calleeShape{ti: call.ti}
	if copy(shape.sizes[:], call.sizeVals) < len(call.sizeVals) {
		return // more size variables than the memo holds: rendered on use
	}
	ct.calleeMu.Lock()
	key, ok := ct.callees[shape]
	if !ok && len(ct.callees) < maxCalleeKeys {
		key = call.invocationKey()
		ct.callees[shape] = key
	}
	ct.calleeMu.Unlock()
	call.key = key // "" past the bound: rendered on use
}

// astRule marks, in compiledTransform.rules, a rule outside both
// compilable fragments.
var astRule = new(compiledRule)

// rule returns the compiled form of ri, compiling on first use; a nil
// result means the rule is outside both compilable fragments and must
// run through the AST interpreter. Once compiled, a lookup is one atomic
// load.
func (ct *compiledTransform) rule(ri *analysis.RuleInfo, pend *artifact.Pending) *compiledRule {
	cr := ct.rules[ri.Rule.Index].Load()
	if cr == nil {
		cr = ct.compile(ri, pend)
	}
	if cr == astRule {
		return nil
	}
	return cr
}

// compile fills ri's entry of ct.rules. Under the jit tier a persisted
// bytecode program is used when the disk tier has one for this
// invocation key; otherwise the lowering runs and its result joins the
// run's pending pack. Lowering failures fall back to closures with a
// typed reason, and closure failures to astRule.
func (ct *compiledTransform) compile(ri *analysis.RuleInfo, pend *artifact.Pending) *compiledRule {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	slot := &ct.rules[ri.Rule.Index]
	if cr := slot.Load(); cr != nil {
		return cr
	}
	m := im.Load()
	var cr *compiledRule
	if ct.mode == EngineJIT {
		if prog := ct.warmProgram(ri.Rule.Index); prog != nil {
			cr = &compiledRule{
				ri:      ri,
				name:    ri.Rule.Name(),
				nCenter: len(ri.CenterVars),
				jprog:   prog,
			}
			recordTierCompile("jit-warm")
			if m != nil {
				m.jitWarm.Inc()
			}
		} else if prog, jerr := timedJITCompile(ct.res, ri, ct.sizes); jerr == nil {
			cr = &compiledRule{
				ri:      ri,
				name:    ri.Rule.Name(),
				nCenter: len(ri.CenterVars),
				jprog:   prog,
			}
			recordTierCompile("jit")
			if m != nil {
				m.jitCompiled.Inc()
				m.bytecodeHist(ct.res.Transform.Name).Observe(float64(len(prog.Code)))
				for _, r := range prog.Refs {
					if r.Kind == jit.RefView {
						m.jitViewRules.Inc()
						break
					}
				}
			}
			ct.persist(ri.Rule.Index, prog, pend)
		} else {
			recordTierFallback(ct.res.Transform.Name, ri.Rule.Name(), "jit", jerr)
			if m != nil {
				m.jitFallback.Inc()
			}
		}
	}
	if cr == nil {
		start := time.Now()
		cc, err := compileRule(ct.res, ri, ct.sizes)
		compileNanos.Add(time.Since(start).Nanoseconds())
		if err != nil {
			cc = nil
			recordTierFallback(ct.res.Transform.Name, ri.Rule.Name(), "closure", err)
		} else {
			recordTierCompile("closure")
		}
		cr = cc
	}
	if m != nil {
		if cr != nil {
			m.compiled.Inc()
		} else {
			m.fallback.Inc()
		}
	}
	if cr == nil {
		cr = astRule
	} else {
		ct.resolveMats(cr)
	}
	slot.Store(cr)
	return cr
}

// resolveMats points each of cr's refs at its matrix's index in
// exec.mats, so binding a frame never looks a matrix up by name.
func (ct *compiledTransform) resolveMats(cr *compiledRule) {
	if cr.jprog != nil {
		cr.jmats = make([]int, len(cr.jprog.Refs))
		for i, r := range cr.jprog.Refs {
			cr.jmats[i] = ct.matIndex[r.Matrix]
		}
		return
	}
	for i := range cr.refs {
		cr.refs[i].mat = int32(ct.matIndex[cr.refs[i].ref.Matrix])
	}
}

// timedJITCompile wraps jit.Compile with the process-wide lowering
// timer behind CompileSeconds.
func timedJITCompile(res *analysis.Result, ri *analysis.RuleInfo, sizes map[string]int64) (*jit.Program, error) {
	start := time.Now()
	prog, err := jit.Compile(res, ri, sizes)
	compileNanos.Add(time.Since(start).Nanoseconds())
	return prog, err
}

// warmProgram returns the disk-tier bytecode for one rule, attempting
// the transform's persisted program set once on first call. The load
// happens here — under the holder's lock, not the store's cache lock —
// so disk I/O never blocks unrelated cache lookups. Decoded programs
// are fully validated (jit.DecodePrograms) before any frame runs them.
func (ct *compiledTransform) warmProgram(idx int) *jit.Program {
	if !ct.warmLoaded {
		ct.warmLoaded = true
		ct.arts.Load(artifact.KindJIT, ct.akey, func(payload []byte) error {
			progs, err := jit.DecodePrograms(payload)
			if err != nil {
				return err
			}
			ct.jprogs = progs
			return nil
		})
	}
	return ct.jprogs[idx]
}

// persist adds a fresh lowering to the holder's jit program set and
// marks the set dirty on the run's pending pack (a no-op without one).
// Rules lower lazily, so each commit replaces the artifact with the
// grown set, encoded once per commit by encodeJIT; a warm start then
// restores exactly the rules this invocation shape exercises.
func (ct *compiledTransform) persist(idx int, prog *jit.Program, pend *artifact.Pending) {
	if ct.jprogs == nil {
		ct.jprogs = map[int]*jit.Program{}
	}
	ct.jprogs[idx] = prog
	if pend != nil {
		pend.Add(artifact.KindJIT, ct.akey, ct.encodeJIT)
	}
}

// encodeJIT encodes the holder's jit program set for the disk tier.
func (ct *compiledTransform) encodeJIT() ([]byte, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return jit.EncodePrograms(ct.jprogs)
}

// compiledRule returns the compiled form of a rule for this invocation,
// or nil when the rule (or engine state) requires the AST interpreter.
func (ex *exec) compiledRule(ri *analysis.RuleInfo) *compiledRule {
	if ex.comp == nil {
		return nil
	}
	return ex.comp.rule(ri, ex.pend)
}

// --- Compiled representation ---------------------------------------------

// stmtFn executes one compiled statement against a frame.
type stmtFn func(f *frame) error

// scalarFn evaluates a compiled expression to a float64.
type scalarFn func(f *frame) (float64, error)

// valueFn evaluates a compiled expression to a value (for matrix views,
// cell references, and call results).
type valueFn func(f *frame) (value, error)

// affineBound is one concrete region bound, base + Σ coeff[d]·center[d],
// with the size variables already folded into base. Evaluating it per
// cell is a handful of integer multiply-adds.
type affineBound struct {
	base  int64
	coeff []int64 // per center dimension; nil when constant
}

func (ab affineBound) at(center []int64) int64 {
	v := ab.base
	for d, c := range ab.coeff {
		if c != 0 {
			v += c * center[d]
		}
	}
	return v
}

// plus returns the bound shifted by a constant (sharing the read-only
// coefficient slice).
func (ab affineBound) plus(k int64) affineBound {
	return affineBound{base: ab.base + k, coeff: ab.coeff}
}

// compiledRef is one region reference with precomputed affine bounds.
type compiledRef struct {
	ref      *ast.RegionRef
	cell     bool          // bound as an assignable cell, not a view
	collapse bool          // row/column accessors drop unit dimensions
	mat      int32         // index of the matrix in exec.mats
	slot     int           // frame slot of the binding (-1: unbound)
	nd       int           // rank of the reference (DSL dimensions)
	lo, hi   []affineBound // DSL-order bounds, len nd
}

// compiledRule is one rule lowered to closures over a frame, or — when
// jprog is set — to a bytecode program run by the jit tier's VM (the
// closure fields below it are then unused).
type compiledRule struct {
	ri         *analysis.RuleInfo
	name       string // diagnostic rule name
	nCenter    int
	jprog      *jit.Program
	jmats      []int // index in exec.mats of each jprog ref's matrix
	centerSlot []int // slot per center dimension (-1: unnamed)
	refs       []compiledRef
	body       []stmtFn
	nSlots     int
	scratch    []int // row-major index scratch lengths, one per index site
	argSites   []int // argument buffer lengths, one per call site

	// framePool recycles frames across invocations and tiles; a pooled
	// frame is rebound to the acquiring invocation's matrices, so the
	// steady-state per-chunk cost is a few pointer stores instead of the
	// half-dozen slice allocations newFrame makes.
	framePool sync.Pool
}

// frame is the per-worker execution state of one compiled rule: slots
// replace the per-cell map environment, refs hold the reusable views
// and flat offsets of the rule's region bindings, and the scratch
// buffers make per-cell execution allocation-free. One frame serves a
// whole worker chunk of cells.
type frame struct {
	cr      *compiledRule
	ex      *exec
	worker  *runtime.Worker
	jf      *jit.Frame // bytecode tier; when set, the fields below are unused
	slots   []value
	refs    []refState
	center  []int64
	scratch [][]int
	args    [][]value
}

// refState is a frame's live binding of one region reference.
type refState struct {
	m *matrix.Matrix
	// Cell refs: flat data offset of the current cell (-1 when the cell
	// is out of range — an error only if the body touches it, matching
	// the interpreter's lazy cell access) and the row-major coordinate
	// buffer aliased by the slot's value.
	off int
	idx []int
	// Region refs: the reusable view and row-major bound buffers.
	view       *matrix.Matrix
	begin, end []int
}

// newFrame binds a compiled rule to one invocation's matrices.
func (cr *compiledRule) newFrame(ex *exec, w *runtime.Worker) *frame {
	if cr.jprog != nil {
		f := &frame{cr: cr, ex: ex, worker: w, jf: cr.jprog.NewFrame()}
		f.bindJIT(ex)
		return f
	}
	f := &frame{
		cr:     cr,
		ex:     ex,
		worker: w,
		slots:  make([]value, cr.nSlots),
		refs:   make([]refState, len(cr.refs)),
		center: make([]int64, cr.nCenter),
	}
	for i := range cr.refs {
		cref := &cr.refs[i]
		rs := &f.refs[i]
		rs.m = ex.mats[cref.mat]
		if cref.slot < 0 {
			continue
		}
		if cref.cell {
			rs.idx = make([]int, cref.nd)
			f.slots[cref.slot] = value{kind: valCell, ref: rs.m, idx: rs.idx, name: cref.ref.Binding}
			continue
		}
		rs.view = &matrix.Matrix{}
		rs.begin = make([]int, cref.nd)
		rs.end = make([]int, cref.nd)
		f.slots[cref.slot] = matval(rs.view)
	}
	if len(cr.scratch) > 0 {
		f.scratch = make([][]int, len(cr.scratch))
		for i, n := range cr.scratch {
			f.scratch[i] = make([]int, n)
		}
	}
	if len(cr.argSites) > 0 {
		f.args = make([][]value, len(cr.argSites))
		for i, n := range cr.argSites {
			f.args[i] = make([]value, n)
		}
	}
	return f
}

// acquireFrame returns a frame for this invocation, reusing a pooled
// one when available. Pair with releaseFrame after the chunk of cells
// it serves completes (on success or error — frames hold no error
// state).
func (cr *compiledRule) acquireFrame(ex *exec, w *runtime.Worker) *frame {
	v := cr.framePool.Get()
	if v == nil {
		return cr.newFrame(ex, w)
	}
	f := v.(*frame)
	f.ex = ex
	f.worker = w
	if f.jf != nil {
		f.bindJIT(ex)
		return f
	}
	for i := range cr.refs {
		cref := &cr.refs[i]
		rs := &f.refs[i]
		rs.m = ex.mats[cref.mat]
		if cref.slot >= 0 && cref.cell {
			f.slots[cref.slot].ref = rs.m
		}
	}
	return f
}

// releaseFrame recycles a frame obtained from acquireFrame. Everything
// the frame learned from its invocation is dropped first — a pooled
// frame must not keep a finished request's matrices (inputs, views into
// them, nested-call results in the argument scratch) reachable until
// the pool is next cleared.
func (cr *compiledRule) releaseFrame(f *frame) {
	f.ex, f.worker = nil, nil
	if f.jf != nil {
		f.jf.Unbind()
	}
	for i := range f.refs {
		rs := &f.refs[i]
		rs.m = nil
		if rs.view != nil {
			rs.view.Detach()
		} else if s := cr.refs[i].slot; s >= 0 {
			f.slots[s].ref = nil
		}
	}
	for _, args := range f.args {
		for i := range args {
			args[i] = value{}
		}
	}
	cr.framePool.Put(f)
}

// bindJIT (re)binds the bytecode frame's cell refs to this invocation's
// matrices. Strides and sizes resolve per invocation — inputs may be
// arbitrary strided views — which is why they live in the jit frame,
// not the compiled program.
func (f *frame) bindJIT(ex *exec) {
	for i, mi := range f.cr.jmats {
		f.jf.BindMatrix(i, ex.mats[mi])
	}
}

// runCell rebinds the rule at one center and executes the compiled
// body. center is nil for macro rules. Cell loops go through
// exec.runBox, which hands a bytecode frame whole boxes.
func (f *frame) runCell(center []int64) error {
	if f.jf != nil {
		return f.jf.RunCell(center)
	}
	cr := f.cr
	for d := 0; d < cr.nCenter; d++ {
		f.center[d] = center[d]
		if s := cr.centerSlot[d]; s >= 0 {
			// Store kind+f in place instead of assigning a fresh value
			// struct: center slots are rebound every cell, and the full
			// multi-word store shows up at wavefront cell rates.
			sl := &f.slots[s]
			sl.kind = valScalar
			sl.f = float64(center[d])
		}
	}
	if err := f.bindRefs(); err != nil {
		return err
	}
	for _, st := range cr.body {
		if err := st(f); err != nil {
			return err
		}
	}
	return nil
}

// bindRefs recomputes every bound reference at the current center:
// integer multiply-adds for the bounds, an in-place view rebuild for
// region refs, and a flat offset for cell refs.
func (f *frame) bindRefs() error {
	cr := f.cr
	for i := range cr.refs {
		cref := &cr.refs[i]
		if cref.slot < 0 {
			continue
		}
		rs := &f.refs[i]
		m := rs.m
		nd := cref.nd
		if cref.cell {
			off := m.Offset()
			for d := 0; d < nd; d++ {
				v := cref.lo[d].at(f.center)
				rd := nd - 1 - d // reverse DSL order to row-major
				if v < 0 || v >= int64(m.Size(rd)) {
					off = -1
					break
				}
				rs.idx[rd] = int(v)
				off += int(v) * m.Stride(rd)
			}
			rs.off = off
			continue
		}
		for d := 0; d < nd; d++ {
			lo := cref.lo[d].at(f.center)
			hi := cref.hi[d].at(f.center)
			rd := nd - 1 - d
			if lo < 0 || hi > int64(m.Size(rd)) || lo > hi {
				return fmt.Errorf("interp: %s binding %s: view [%d,%d) out of range [0,%d)", cr.name, cref.ref.Binding, lo, hi, m.Size(rd))
			}
			rs.begin[rd] = int(lo)
			rs.end[rd] = int(hi)
		}
		m.RegionInto(rs.view, rs.begin, rs.end)
		if cref.collapse {
			rs.view.CollapseUnitDims()
		}
	}
	return nil
}

// cellErr reports a body access to a cell binding whose index fell
// outside the matrix (rs.off == -1).
func (f *frame) cellErr(name string) error {
	return fmt.Errorf("interp: %s: cell binding %q out of range", f.cr.name, name)
}

// --- Rule compilation -----------------------------------------------------

// errNotCompilable marks rules outside the compilable fragment; the
// engine silently falls back to the AST interpreter for them, so the
// compiler only ever changes performance, never which programs run.
var errNotCompilable = fmt.Errorf("interp: rule not compilable")

type ruleCompiler struct {
	res   *analysis.Result
	ri    *analysis.RuleInfo
	sizes map[string]int64
	cr    *compiledRule
}

func (c *ruleCompiler) newSlot() int {
	s := c.cr.nSlots
	c.cr.nSlots++
	return s
}

func (c *ruleCompiler) newScratch(n int) int {
	c.cr.scratch = append(c.cr.scratch, n)
	return len(c.cr.scratch) - 1
}

func (c *ruleCompiler) newArgSite(n int) int {
	c.cr.argSites = append(c.cr.argSites, n)
	return len(c.cr.argSites) - 1
}

// slotKind is the statically resolved kind of a named binding.
type slotKind int

const (
	slotScalar slotKind = iota
	slotCell
	slotMatrix
)

// slotVar is a compile-time binding: its kind, frame slot, and (for
// region bindings) the compiledRef it belongs to.
type slotVar struct {
	kind slotKind
	slot int
	ref  int // refs index for slotCell/slotMatrix region bindings; -1 for locals
}

// compScope is the compile-time mirror of the interpreter's lexically
// scoped env: names resolve to slots once, at compile time.
type compScope struct {
	parent *compScope
	vars   map[string]slotVar
}

func newCompScope(parent *compScope) *compScope {
	return &compScope{parent: parent, vars: map[string]slotVar{}}
}

func (s *compScope) lookup(name string) (slotVar, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return slotVar{}, false
}

func (s *compScope) define(name string, v slotVar) { s.vars[name] = v }

// compileRule lowers one rule into closures, or reports that it is
// outside the compilable fragment (raw-body escapes, non-affine bounds,
// constructs whose dynamic semantics need the env world). The recover
// guard turns any unexpected compile-time panic into a fallback rather
// than taking down execution.
func compileRule(res *analysis.Result, ri *analysis.RuleInfo, sizes map[string]int64) (cr *compiledRule, err error) {
	defer func() {
		if r := recover(); r != nil {
			cr, err = nil, fmt.Errorf("interp: compiling %s: %v", ri.Rule.Name(), r)
		}
	}()
	if ri.Rule.RawBody != "" {
		return nil, errNotCompilable
	}
	c := &ruleCompiler{res: res, ri: ri, sizes: sizes}
	c.cr = &compiledRule{
		ri:      ri,
		name:    ri.Rule.Name(),
		nCenter: len(ri.CenterVars),
	}
	root := newCompScope(nil)
	c.cr.centerSlot = make([]int, len(ri.CenterVars))
	for d, v := range ri.CenterVars {
		c.cr.centerSlot[d] = -1
		if v != "" {
			s := c.newSlot()
			c.cr.centerSlot[d] = s
			root.define(v, slotVar{kind: slotScalar, slot: s, ref: -1})
		}
	}
	refs := make([]*ast.RegionRef, 0, len(ri.Rule.To)+len(ri.Rule.From))
	refs = append(refs, ri.Rule.To...)
	refs = append(refs, ri.Rule.From...)
	for _, ref := range refs {
		cref, err := c.compileRef(ref)
		if err != nil {
			return nil, err
		}
		cref.slot = -1
		if ref.Binding != "" {
			kind := slotMatrix
			if cref.cell {
				kind = slotCell
			}
			cref.slot = c.newSlot()
			root.define(ref.Binding, slotVar{kind: kind, slot: cref.slot, ref: len(c.cr.refs)})
		}
		c.cr.refs = append(c.cr.refs, cref)
	}
	body, err := c.compileStmts(ri.Rule.Body, root)
	if err != nil {
		return nil, err
	}
	c.cr.body = body
	return c.cr, nil
}

// affineBoundOf folds a symbolic bound into base + Σ coeff·center. Every
// center coefficient must be an integer: evaluation floors the final
// rational (Expr.Eval semantics), and flooring distributes over the
// center terms only when they contribute integers. Fractional
// size-variable terms are fine — they fold into the constant base.
func (c *ruleCompiler) affineBoundOf(se *symbolic.Expr) (affineBound, error) {
	aff, ok := se.Affine()
	if !ok {
		return affineBound{}, errNotCompilable
	}
	coeffs, rest := aff.Split(c.ri.CenterVars)
	ab := affineBound{}
	for d, co := range coeffs {
		if co.IsZero() {
			continue
		}
		if !co.IsInt() {
			return affineBound{}, errNotCompilable
		}
		if ab.coeff == nil {
			ab.coeff = make([]int64, len(coeffs))
		}
		ab.coeff[d] = co.Int()
	}
	base, err := rest.Expr().Eval(c.sizes)
	if err != nil {
		return affineBound{}, errNotCompilable
	}
	ab.base = base
	return ab, nil
}

// compileRef mirrors refBounds exactly, but folds the arithmetic into
// affine bounds evaluated at frame-bind time.
func (c *ruleCompiler) compileRef(ref *ast.RegionRef) (compiledRef, error) {
	mi := c.res.Matrices[ref.Matrix]
	if mi == nil {
		return compiledRef{}, errNotCompilable
	}
	dims := make([]int64, len(mi.Dims))
	for i, se := range mi.Dims {
		v, err := se.Eval(c.sizes)
		if err != nil {
			return compiledRef{}, errNotCompilable
		}
		dims[i] = v
	}
	bound := func(e ast.Expr) (affineBound, error) {
		se, err := analysis.ToSymbolic(e)
		if err != nil {
			return affineBound{}, errNotCompilable
		}
		return c.affineBoundOf(se)
	}
	cref := compiledRef{ref: ref, slot: -1}
	switch ref.Kind {
	case ast.RegionAll:
		cref.nd = len(dims)
		for _, ext := range dims {
			cref.lo = append(cref.lo, affineBound{})
			cref.hi = append(cref.hi, affineBound{base: ext})
		}
	case ast.RegionCell:
		cref.cell = true
		cref.nd = len(ref.Args)
		for _, a := range ref.Args {
			ab, err := bound(a)
			if err != nil {
				return compiledRef{}, err
			}
			cref.lo = append(cref.lo, ab)
			cref.hi = append(cref.hi, ab.plus(1))
		}
	case ast.RegionRow:
		if len(dims) != 2 || len(ref.Args) != 1 {
			return compiledRef{}, errNotCompilable
		}
		ab, err := bound(ref.Args[0])
		if err != nil {
			return compiledRef{}, err
		}
		cref.collapse = true
		cref.nd = 2
		cref.lo = []affineBound{{}, ab}
		cref.hi = []affineBound{{base: dims[0]}, ab.plus(1)}
	case ast.RegionCol:
		if len(dims) != 2 || len(ref.Args) != 1 {
			return compiledRef{}, errNotCompilable
		}
		ab, err := bound(ref.Args[0])
		if err != nil {
			return compiledRef{}, err
		}
		cref.collapse = true
		cref.nd = 2
		cref.lo = []affineBound{ab, {}}
		cref.hi = []affineBound{ab.plus(1), {base: dims[1]}}
	case ast.RegionRegion:
		nd := len(dims)
		if len(ref.Args) != 2*nd {
			return compiledRef{}, errNotCompilable
		}
		cref.nd = nd
		for d := 0; d < nd; d++ {
			lo, err := bound(ref.Args[d])
			if err != nil {
				return compiledRef{}, err
			}
			hi, err := bound(ref.Args[nd+d])
			if err != nil {
				return compiledRef{}, err
			}
			cref.lo = append(cref.lo, lo)
			cref.hi = append(cref.hi, hi)
		}
	default:
		return compiledRef{}, errNotCompilable
	}
	return cref, nil
}

// --- Statement compilation ------------------------------------------------

func (c *ruleCompiler) compileStmts(stmts []ast.Stmt, sc *compScope) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		fn, err := c.compileStmt(s, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (c *ruleCompiler) compileStmt(s ast.Stmt, sc *compScope) (stmtFn, error) {
	switch st := s.(type) {
	case *ast.Decl:
		var init scalarFn
		if st.Init != nil {
			fn, err := c.compileScalar(st.Init, sc)
			if err != nil {
				return nil, err
			}
			init = fn
		}
		slot := c.newSlot()
		sc.define(st.Name, slotVar{kind: slotScalar, slot: slot, ref: -1})
		trunc := st.Type == "int"
		return func(f *frame) error {
			v := 0.0
			if init != nil {
				x, err := init(f)
				if err != nil {
					return err
				}
				v = x
			}
			if trunc {
				v = math.Trunc(v)
			}
			f.slots[slot] = scalar(v)
			return nil
		}, nil
	case *ast.Assign:
		return c.compileAssign(st, sc)
	case *ast.IncDec:
		// Only scalar locals compile; ++/-- on a cell binding rebinds
		// the name to a scalar in the env world, which slots cannot
		// express, so those rules fall back.
		v, ok := sc.lookup(st.Name)
		if !ok || v.kind != slotScalar {
			return nil, errNotCompilable
		}
		slot := v.slot
		delta := 1.0
		if st.Op == "--" {
			delta = -1.0
		}
		return func(f *frame) error {
			f.slots[slot].f += delta
			return nil
		}, nil
	case *ast.If:
		cond, err := c.compileScalar(st.Cond, sc)
		if err != nil {
			return nil, err
		}
		thenFns, err := c.compileStmts(st.Then, newCompScope(sc))
		if err != nil {
			return nil, err
		}
		elseFns, err := c.compileStmts(st.Else, newCompScope(sc))
		if err != nil {
			return nil, err
		}
		return func(f *frame) error {
			v, err := cond(f)
			if err != nil {
				return err
			}
			fns := elseFns
			if v != 0 {
				fns = thenFns
			}
			for _, fn := range fns {
				if err := fn(f); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ast.For:
		if st.Cond == nil {
			return nil, errNotCompilable // interpreter reports the error
		}
		scope := newCompScope(sc)
		var init, post stmtFn
		if st.Init != nil {
			fn, err := c.compileStmt(st.Init, scope)
			if err != nil {
				return nil, err
			}
			init = fn
		}
		cond, err := c.compileScalar(st.Cond, scope)
		if err != nil {
			return nil, err
		}
		bodyFns, err := c.compileStmts(st.Body, newCompScope(scope))
		if err != nil {
			return nil, err
		}
		if st.Post != nil {
			fn, err := c.compileStmt(st.Post, scope)
			if err != nil {
				return nil, err
			}
			post = fn
		}
		return func(f *frame) error {
			if init != nil {
				if err := init(f); err != nil {
					return err
				}
			}
			for iter := 0; ; iter++ {
				if iter > 100_000_000 {
					return fmt.Errorf("interp: runaway for loop")
				}
				v, err := cond(f)
				if err != nil {
					return err
				}
				if v == 0 {
					return nil
				}
				for _, fn := range bodyFns {
					if err := fn(f); err != nil {
						return err
					}
				}
				if post != nil {
					if err := post(f); err != nil {
						return err
					}
				}
			}
		}, nil
	case *ast.ExprStmt:
		fn, err := c.compileValue(st.X, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) error {
			_, err := fn(f)
			return err
		}, nil
	}
	// Return and anything unknown: the interpreter owns the error.
	return nil, errNotCompilable
}

func (c *ruleCompiler) compileAssign(st *ast.Assign, sc *compScope) (stmtFn, error) {
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		v, ok := sc.lookup(lhs.Name)
		if !ok {
			// Implicit local definition, as in execAssign.
			if st.Op != "=" {
				return nil, errNotCompilable
			}
			rhs, err := c.compileScalar(st.RHS, sc)
			if err != nil {
				return nil, err
			}
			slot := c.newSlot()
			sc.define(lhs.Name, slotVar{kind: slotScalar, slot: slot, ref: -1})
			return func(f *frame) error {
				x, err := rhs(f)
				if err != nil {
					return err
				}
				f.slots[slot] = scalar(x)
				return nil
			}, nil
		}
		switch v.kind {
		case slotCell:
			rhs, err := c.compileScalar(st.RHS, sc)
			if err != nil {
				return nil, err
			}
			refIdx := v.ref
			name := lhs.Name
			var comb func(old, x float64) float64
			switch st.Op {
			case "=":
				comb = nil
			case "+=":
				comb = func(old, x float64) float64 { return old + x }
			case "-=":
				comb = func(old, x float64) float64 { return old - x }
			default:
				return nil, errNotCompilable
			}
			return func(f *frame) error {
				x, err := rhs(f)
				if err != nil {
					return err
				}
				rs := &f.refs[refIdx]
				if rs.off < 0 {
					return f.cellErr(name)
				}
				if comb != nil {
					x = comb(rs.m.AtFlat(rs.off), x)
				}
				rs.m.SetFlat(rs.off, x)
				return nil
			}, nil
		case slotScalar:
			rhs, err := c.compileScalar(st.RHS, sc)
			if err != nil {
				return nil, err
			}
			slot := v.slot
			switch st.Op {
			case "=":
				return func(f *frame) error {
					x, err := rhs(f)
					if err != nil {
						return err
					}
					f.slots[slot] = scalar(x)
					return nil
				}, nil
			case "+=", "-=":
				neg := st.Op == "-="
				return func(f *frame) error {
					x, err := rhs(f)
					if err != nil {
						return err
					}
					if neg {
						x = -x
					}
					f.slots[slot].f += x
					return nil
				}, nil
			}
			return nil, errNotCompilable
		case slotMatrix:
			// Whole-region assignment; += etc. is an interpreter error.
			if st.Op != "=" {
				return nil, errNotCompilable
			}
			slot, name := v.slot, lhs.Name
			if call, ok := st.RHS.(*ast.Call); ok && isTransformCall(call) {
				// `b = T(…)`: the callee is offered b itself as its output;
				// a result it could not write there is copied and recycled.
				callInto, err := c.compileTransformCall(call, sc)
				if err != nil {
					return nil, err
				}
				return func(f *frame) error {
					cur := f.slots[slot].m
					rv, err := callInto(f, cur)
					if err != nil {
						return err
					}
					m := im.Load()
					if rv.m == cur {
						if m != nil {
							m.callInplace.Inc()
						}
						return nil
					}
					if m != nil {
						m.callCopied.Inc()
					}
					if err := assignRegion(f.cr.name, name, cur, rv); err != nil {
						return err
					}
					recycle(rv.m)
					return nil
				}, nil
			}
			rhs, err := c.compileValue(st.RHS, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) error {
				rv, err := rhs(f)
				if err != nil {
					return err
				}
				return assignRegion(f.cr.name, name, f.slots[slot].m, rv)
			}, nil
		}
		return nil, errNotCompilable
	case *ast.Index:
		base, ok := sc.lookup(lhs.Base)
		if !ok || base.kind != slotMatrix {
			return nil, errNotCompilable
		}
		rhs, err := c.compileScalar(st.RHS, sc)
		if err != nil {
			return nil, err
		}
		idxFns := make([]scalarFn, len(lhs.Args))
		for i, a := range lhs.Args {
			fn, err := c.compileScalar(a, sc)
			if err != nil {
				return nil, err
			}
			idxFns[i] = fn
		}
		site := c.newScratch(len(idxFns))
		slot := base.slot
		op := st.Op
		return func(f *frame) error {
			// RHS before indices, matching execAssign's order.
			x, err := rhs(f)
			if err != nil {
				return err
			}
			m := f.slots[slot].m
			idx := f.scratch[site]
			if len(idx) != m.Dims() {
				return fmt.Errorf("interp: %d indices for %d-dim region", len(idx), m.Dims())
			}
			for d, fn := range idxFns {
				v, err := fn(f)
				if err != nil {
					return err
				}
				idx[len(idx)-1-d] = int(v)
			}
			switch op {
			case "=":
				m.Set(x, idx...)
			case "+=":
				m.Set(m.Get(idx...)+x, idx...)
			case "-=":
				m.Set(m.Get(idx...)-x, idx...)
			default:
				return fmt.Errorf("interp: bad assign op %q", op)
			}
			return nil
		}, nil
	}
	return nil, errNotCompilable
}

// --- Expression compilation -----------------------------------------------

func (c *ruleCompiler) compileScalar(e ast.Expr, sc *compScope) (scalarFn, error) {
	switch x := e.(type) {
	case *ast.Num:
		v := x.Val
		return func(*frame) (float64, error) { return v, nil }, nil
	case *ast.Ident:
		if v, ok := sc.lookup(x.Name); ok {
			switch v.kind {
			case slotScalar:
				slot := v.slot
				return func(f *frame) (float64, error) { return f.slots[slot].f, nil }, nil
			case slotCell:
				refIdx := v.ref
				name := x.Name
				return func(f *frame) (float64, error) {
					rs := &f.refs[refIdx]
					if rs.off < 0 {
						return 0, f.cellErr(name)
					}
					return rs.m.AtFlat(rs.off), nil
				}, nil
			default:
				slot := v.slot
				return func(f *frame) (float64, error) { return f.slots[slot].num() }, nil
			}
		}
		if v, ok := c.sizes[x.Name]; ok {
			fv := float64(v)
			return func(*frame) (float64, error) { return fv, nil }, nil
		}
		return nil, errNotCompilable // undefined name: interpreter owns the error
	case *ast.Unary:
		fn, err := c.compileScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			return func(f *frame) (float64, error) {
				v, err := fn(f)
				return -v, err
			}, nil
		}
		return func(f *frame) (float64, error) {
			v, err := fn(f)
			if err != nil {
				return 0, err
			}
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}, nil
	case *ast.Binary:
		return c.compileBinary(x, sc)
	case *ast.Cond:
		cf, err := c.compileScalar(x.C, sc)
		if err != nil {
			return nil, err
		}
		af, err := c.compileScalar(x.A, sc)
		if err != nil {
			return nil, err
		}
		bf, err := c.compileScalar(x.B, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) (float64, error) {
			v, err := cf(f)
			if err != nil {
				return 0, err
			}
			if v != 0 {
				return af(f)
			}
			return bf(f)
		}, nil
	case *ast.Index:
		base, ok := sc.lookup(x.Base)
		if !ok || base.kind != slotMatrix {
			return nil, errNotCompilable
		}
		idxFns := make([]scalarFn, len(x.Args))
		for i, a := range x.Args {
			fn, err := c.compileScalar(a, sc)
			if err != nil {
				return nil, err
			}
			idxFns[i] = fn
		}
		site := c.newScratch(len(idxFns))
		slot := base.slot
		return func(f *frame) (float64, error) {
			m := f.slots[slot].m
			idx := f.scratch[site]
			if len(idx) != m.Dims() {
				return 0, fmt.Errorf("interp: %d indices for %d-dim region", len(idx), m.Dims())
			}
			for d, fn := range idxFns {
				v, err := fn(f)
				if err != nil {
					return 0, err
				}
				idx[len(idx)-1-d] = int(v)
			}
			return m.Get(idx...), nil
		}, nil
	case *ast.Call:
		fn, err := c.compileCall(x, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) (float64, error) {
			v, err := fn(f)
			if err != nil {
				return 0, err
			}
			return v.num()
		}, nil
	}
	return nil, errNotCompilable
}

func (c *ruleCompiler) compileBinary(x *ast.Binary, sc *compScope) (scalarFn, error) {
	lf, err := c.compileScalar(x.L, sc)
	if err != nil {
		return nil, err
	}
	rf, err := c.compileScalar(x.R, sc)
	if err != nil {
		return nil, err
	}
	// Short-circuit logicals, matching evalBinary.
	switch x.Op {
	case "&&":
		return func(f *frame) (float64, error) {
			l, err := lf(f)
			if err != nil || l == 0 {
				return 0, err
			}
			r, err := rf(f)
			if err != nil || r == 0 {
				return 0, err
			}
			return 1, nil
		}, nil
	case "||":
		return func(f *frame) (float64, error) {
			l, err := lf(f)
			if err != nil {
				return 0, err
			}
			if l != 0 {
				return 1, nil
			}
			r, err := rf(f)
			if err != nil || r == 0 {
				return 0, err
			}
			return 1, nil
		}, nil
	}
	bin := func(op func(l, r float64) (float64, error)) scalarFn {
		return func(f *frame) (float64, error) {
			l, err := lf(f)
			if err != nil {
				return 0, err
			}
			r, err := rf(f)
			if err != nil {
				return 0, err
			}
			return op(l, r)
		}
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch x.Op {
	case "+":
		return bin(func(l, r float64) (float64, error) { return l + r, nil }), nil
	case "-":
		return bin(func(l, r float64) (float64, error) { return l - r, nil }), nil
	case "*":
		return bin(func(l, r float64) (float64, error) { return l * r, nil }), nil
	case "/":
		return bin(func(l, r float64) (float64, error) {
			if r == 0 {
				return 0, fmt.Errorf("interp: division by zero")
			}
			return l / r, nil
		}), nil
	case "%":
		return bin(func(l, r float64) (float64, error) {
			if r == 0 {
				return 0, fmt.Errorf("interp: modulo by zero")
			}
			return math.Mod(l, r), nil
		}), nil
	case "<":
		return bin(func(l, r float64) (float64, error) { return b2f(l < r), nil }), nil
	case "<=":
		return bin(func(l, r float64) (float64, error) { return b2f(l <= r), nil }), nil
	case ">":
		return bin(func(l, r float64) (float64, error) { return b2f(l > r), nil }), nil
	case ">=":
		return bin(func(l, r float64) (float64, error) { return b2f(l >= r), nil }), nil
	case "==":
		return bin(func(l, r float64) (float64, error) { return b2f(l == r), nil }), nil
	case "!=":
		return bin(func(l, r float64) (float64, error) { return b2f(l != r), nil }), nil
	}
	return nil, errNotCompilable
}

func (c *ruleCompiler) compileValue(e ast.Expr, sc *compScope) (valueFn, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := sc.lookup(x.Name); ok {
			slot := v.slot
			return func(f *frame) (value, error) { return f.slots[slot], nil }, nil
		}
		if v, ok := c.sizes[x.Name]; ok {
			val := scalar(float64(v))
			return func(*frame) (value, error) { return val, nil }, nil
		}
		return nil, errNotCompilable
	case *ast.Call:
		return c.compileCall(x, sc)
	}
	fn, err := c.compileScalar(e, sc)
	if err != nil {
		return nil, err
	}
	return func(f *frame) (value, error) {
		v, err := fn(f)
		if err != nil {
			return value{}, err
		}
		return scalar(v), nil
	}, nil
}

// compileCall lowers builtins and transform invocations. Builtins bind
// at compile time (they take precedence over transforms, matching
// evalCall).
func (c *ruleCompiler) compileCall(x *ast.Call, sc *compScope) (valueFn, error) {
	if isTransformCall(x) {
		call, err := c.compileTransformCall(x, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) (value, error) { return call(f, nil) }, nil
	}
	argFns, site, err := c.compileArgs(x, sc)
	if err != nil {
		return nil, err
	}
	name, fn := x.Fn, builtins[x.Fn]
	return func(f *frame) (value, error) {
		args := f.args[site]
		if err := f.evalArgs(argFns, args); err != nil {
			return value{}, err
		}
		return fn(name, args)
	}, nil
}

// isTransformCall reports whether x invokes a transform, not a builtin.
func isTransformCall(x *ast.Call) bool { return builtins[x.Fn] == nil }

// compileArgs lowers a call's arguments and reserves the frame buffer
// they are evaluated into.
func (c *ruleCompiler) compileArgs(x *ast.Call, sc *compScope) (argFns []valueFn, site int, err error) {
	argFns = make([]valueFn, len(x.Args))
	for i, a := range x.Args {
		if argFns[i], err = c.compileValue(a, sc); err != nil {
			return nil, 0, err
		}
	}
	return argFns, c.newArgSite(len(argFns)), nil
}

// evalArgs evaluates a call's arguments, in order, into args.
func (f *frame) evalArgs(argFns []valueFn, args []value) error {
	for i, afn := range argFns {
		v, err := afn(f)
		if err != nil {
			return err
		}
		args[i] = v
	}
	return nil
}

// compileTransformCall lowers a transform invocation; the compiled form
// takes the region its result is about to be assigned to, or nil. The
// descriptor resolves at run time, so compiled programs never capture
// engine state and stay shareable across WithConfig views. An argument
// that is itself a transform call is a temporary nothing else can name:
// it dies when the consumer returns, and is recycled here (never on an
// error path).
func (c *ruleCompiler) compileTransformCall(x *ast.Call, sc *compScope) (func(f *frame, dest *matrix.Matrix) (value, error), error) {
	argFns, site, err := c.compileArgs(x, sc)
	if err != nil {
		return nil, err
	}
	var temps []int
	for i, a := range x.Args {
		if call, ok := a.(*ast.Call); ok && isTransformCall(call) {
			temps = append(temps, i)
		}
	}
	name := x.Fn
	return func(f *frame, dest *matrix.Matrix) (value, error) {
		args := f.args[site]
		if err := f.evalArgs(argFns, args); err != nil {
			return value{}, err
		}
		v, err := f.ex.callTransform(name, args, dest, f.worker)
		if err != nil {
			return value{}, err
		}
		for _, i := range temps {
			recycle(args[i].m)
			args[i] = value{}
		}
		return v, nil
	}, nil
}
