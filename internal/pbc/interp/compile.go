package interp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"petabricks/internal/artifact"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/jit"
)

// This file routes each rule to its compiled form, once per (transform,
// input sizes, config): flat bytecode run by internal/pbc/jit's
// register vm, whose call sites — the transform calls of a macro rule's
// `v = F(…)` statements — run here (callFrame). A rule the vm rejects
// runs on the AST interpreter (eval.go), the reference oracle.

// EngineKey selects the execution tier for rule bodies. The tiers are
// semantically identical (pbfuzz's difftest demands bit-identical
// outputs across them); the key exists for benchmarking and
// differential testing.
const EngineKey = "pbc.engine"

// Execution tiers, the values of EngineKey. Unknown values clamp to the
// default (EngineJIT).
const (
	// EngineInterp walks the AST with a map environment per cell.
	EngineInterp = 0
	// EngineClosure once selected a tier of Go closures.
	//
	// Deprecated: the closure tier is gone; this value resolves to
	// EngineJIT like any unknown one.
	EngineClosure = 1
	// EngineJIT lowers every rule it can to flat bytecode run by
	// internal/pbc/jit's register vm, macro rules' transform calls
	// included, falling back per rule to the AST with a typed reason.
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
// (see calleeKey) — as the key of the invocation's memory-tier entry.
func (ex *exec) invocationKey() string {
	if ex.key == "" {
		ex.key = ex.artifactKey().String()
	}
	return ex.key
}

// engineMode resolves the configured execution tier: EngineInterp when
// EngineKey says so, EngineJIT otherwise.
func (e *Engine) engineMode() int {
	if e.Cfg.Int(EngineKey, EngineJIT) == EngineInterp {
		return EngineInterp
	}
	return EngineJIT
}

// entry returns the invocation's memory-tier entry, fetching it from
// the artifact store on first use: the JIT tier fetches it when the
// invocation is set up (newExec), a pooled run for its plan (planFor),
// and an AST-tier run without a pool never does. Entries compile rules
// and build the plan lazily, so a miss stays cheap until one is needed.
func (ex *exec) entry() *compiledTransform {
	if ex.comp != nil {
		return ex.comp
	}
	e := ex.engine
	v, created := e.arts.Mem().GetOrCreate(ex.invocationKey(), func() any {
		return &compiledTransform{res: ex.res, sizes: ex.sizes(), akey: ex.artifactKey(), arts: e.arts,
			matIndex: ex.ti.matIndex, callees: map[calleeShape]string{},
			rules: make([]atomic.Pointer[vmRule], len(ex.res.Transform.Rules))}
	})
	if m := im.Load(); m != nil {
		if created {
			m.cacheMiss.Inc()
		} else {
			m.cacheHit.Inc()
		}
	}
	ex.comp = v.(*compiledTransform)
	return ex.comp
}

// compiledTransform holds the lazily compiled rules and the execution
// plan of one transform at one size binding, config and tier: the one
// memory-tier entry of an invocation key. It fronts the store's disk
// tier, loading persisted bytecode before lowering and persisting fresh
// lowerings back.
type compiledTransform struct {
	res   *analysis.Result
	sizes map[string]int64
	akey  artifact.Key
	arts  *artifact.Store
	// matIndex maps a declared matrix name to its index in exec.mats.
	matIndex map[string]int

	// callees memoises the rendered keys of the transforms this holder's
	// rule bodies call (see calleeKey).
	calleeMu sync.Mutex
	callees  map[calleeShape]string

	// rules holds each rule's compiled form by rule index, astRule for a
	// rule the AST tier runs, nil until first compiled. It is read
	// without a lock; mu serialises compilation. Its vm rules are the
	// program set the disk tier stores (see encodeJIT).
	mu    sync.Mutex
	rules []atomic.Pointer[vmRule]
	// warmLoaded marks the one disk-tier load attempt (see loadWarm).
	warmLoaded bool

	// planOnce materializes plan on the first pooled run (see planFor);
	// nil after that means the builder declined.
	planOnce sync.Once
	plan     *plan
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
// dies with the holder, and only the rendering is skipped: the entry
// lookup still goes through the artifact store, so cache counters and
// recency are those of an unmemoised call.
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

// astRule marks, in compiledTransform.rules, a rule the vm does not
// take.
var astRule = new(vmRule)

// rule returns the compiled form of ri, compiling on first use, or
// astRule. Once compiled, a lookup is one atomic load.
func (ct *compiledTransform) rule(ri *analysis.RuleInfo, pend *artifact.Pending) *vmRule {
	if cr := ct.rules[ri.Rule.Index].Load(); cr != nil {
		return cr
	}
	return ct.compile(ri, pend)
}

// compile fills ri's entry of ct.rules. The disk tier's bytecode for
// this invocation key, when it has some, is installed first; a rule it
// does not cover is lowered, and the grown program set joins the run's
// pending pack. A rule the vm rejects is recorded with its typed reason
// under tier "jit" and runs on the AST.
func (ct *compiledTransform) compile(ri *analysis.RuleInfo, pend *artifact.Pending) *vmRule {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.loadWarm()
	slot := &ct.rules[ri.Rule.Index]
	if cr := slot.Load(); cr != nil {
		return cr
	}
	m := im.Load()
	cr := astRule
	if prog, jerr := timedJITCompile(ct.res, ri, ct.sizes); jerr == nil {
		cr = ct.newVMRule(prog, ri)
		recordTierCompile("jit")
		if m != nil {
			m.jitCompiled.Inc()
		}
		// Rules lower lazily, so each commit replaces the artifact with
		// the grown set; a warm start then restores exactly the rules
		// this invocation shape exercises.
		if pend != nil {
			pend.Add(artifact.KindJIT, ct.akey, ct.encodeJIT)
		}
	} else {
		recordTierFallback(ct.res.Transform.Name, ri.Rule.Name(), "jit", jerr)
	}
	if m != nil && cr == astRule {
		m.fallback.Inc()
	}
	slot.Store(cr)
	return cr
}

// timedJITCompile wraps jit.Compile with the process-wide lowering
// timer behind CompileSeconds.
func timedJITCompile(res *analysis.Result, ri *analysis.RuleInfo, sizes map[string]int64) (*jit.Program, error) {
	start := time.Now()
	prog, err := jit.Compile(res, ri, sizes)
	compileNanos.Add(time.Since(start).Nanoseconds())
	return prog, err
}

// loadWarm installs the disk tier's program set for this invocation key
// into ct.rules, attempting it once; the caller holds ct.mu. The load
// happens here — under the holder's lock, not the store's cache lock —
// so disk I/O never blocks unrelated cache lookups. Decoded programs
// are fully validated (jit.DecodePrograms) before any frame runs them,
// and a set naming a rule the transform does not have is rejected
// whole.
func (ct *compiledTransform) loadWarm() {
	if ct.warmLoaded {
		return
	}
	ct.warmLoaded = true
	ct.arts.Load(artifact.KindJIT, ct.akey, func(payload []byte) error {
		progs, err := jit.DecodePrograms(payload)
		if err != nil {
			return err
		}
		for idx := range progs {
			if idx < 0 || idx >= len(ct.rules) {
				return fmt.Errorf("interp: jit program for rule %d of a %d-rule transform", idx, len(ct.rules))
			}
		}
		for idx, prog := range progs {
			ct.rules[idx].Store(ct.newVMRule(prog, ct.res.Rules[idx]))
			recordTierCompile("jit-warm")
		}
		return nil
	})
}

// encodeJIT encodes the vm rules of the holder's table for the disk
// tier.
func (ct *compiledTransform) encodeJIT() ([]byte, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	progs := map[int]*jit.Program{}
	for i := range ct.rules {
		if cr := ct.rules[i].Load(); cr != nil && cr != astRule {
			progs[i] = cr.prog
		}
	}
	return jit.EncodePrograms(progs)
}

// vmRule returns rule ri's bytecode form for this invocation, or nil
// when the AST tier runs it.
func (ex *exec) vmRule(ri *analysis.RuleInfo) *vmRule {
	if ex.mode == EngineInterp {
		return nil
	}
	if r := ex.comp.rule(ri, ex.pend); r != astRule {
		return r
	}
	return nil
}

// vmRule is a rule lowered to bytecode.
type vmRule struct {
	prog *jit.Program
	rule string // the rule's name, as its call sites' errors give it
	mats []int  // index in exec.mats of each prog ref's matrix
	// frames recycles jit frames across invocations and tiles; a pooled
	// frame is rebound to the acquiring invocation's matrices, so the
	// steady-state per-tile cost is a few pointer stores.
	frames sync.Pool
}

// newVMRule wraps prog, the lowering of ri, pointing each of its refs at
// its matrix's index in exec.mats, so binding a frame never looks a
// matrix up by name.
func (ct *compiledTransform) newVMRule(prog *jit.Program, ri *analysis.RuleInfo) *vmRule {
	r := &vmRule{prog: prog, rule: ri.Rule.Name(), mats: make([]int, len(prog.Refs))}
	for i, ref := range prog.Refs {
		r.mats[i] = ct.matIndex[ref.Matrix]
	}
	return r
}

// acquireFrame returns a jit frame bound to ex's matrices, reusing a
// pooled one when available. Strides and sizes resolve per invocation —
// inputs may be arbitrary strided views — which is why they live in the
// frame, not the program. A program with call sites gets its callFrame
// with the frame, bound to ex too. Pair with releaseFrame once the
// cells it serves are done, on success or error (frames hold no error
// state).
func (r *vmRule) acquireFrame(ex *exec) *jit.Frame {
	f, _ := r.frames.Get().(*jit.Frame)
	if f == nil {
		f = r.prog.NewFrame()
		if len(r.prog.Calls) > 0 {
			f.SetCaller(r.newCallFrame(f))
		}
	}
	for i, mi := range r.mats {
		f.BindMatrix(i, ex.mats[mi])
	}
	if c, _ := f.Caller().(*callFrame); c != nil {
		c.ex = ex
	}
	return f
}

// releaseFrame unbinds f — a pooled frame must not keep a finished
// request's matrices reachable until the pool is next cleared — and
// recycles it.
func (r *vmRule) releaseFrame(f *jit.Frame) {
	f.Unbind()
	if c, _ := f.Caller().(*callFrame); c != nil {
		c.release()
	}
	r.frames.Put(f)
}

// callFrame runs the call sites of one vm frame (jit.Caller) for the
// invocation the frame is bound to. Its view and argument scratch is
// the frame's own: the frame stays checked out while a call recurses,
// and the nested invocations acquire frames of their own.
type callFrame struct {
	r     *vmRule
	f     *jit.Frame
	ex    *exec
	views []matrix.Matrix // per ref: the matrix view of a view ref a call names
	args  [][]value       // per call site
}

func (r *vmRule) newCallFrame(f *jit.Frame) *callFrame {
	c := &callFrame{r: r, f: f, views: make([]matrix.Matrix, len(r.prog.Refs)), args: make([][]value, len(r.prog.Calls))}
	for i := range c.args {
		c.args[i] = make([]value, len(r.prog.Calls[i].Args))
	}
	return c
}

// release drops everything the frame learned from its invocation: the
// exec, the views into its matrices and any call result an error left
// in the argument scratch.
func (c *callFrame) release() {
	c.ex = nil
	for i := range c.views {
		c.views[i].Detach()
	}
	for _, args := range c.args {
		clear(args)
	}
}

// Call runs the statement `v = F(…)` of call site site: the callee is
// offered v itself as its output (see newExec), and a result it could
// not write there is copied into v and recycled.
func (c *callFrame) Call(site int) error {
	cs := &c.r.prog.Calls[site]
	dest := c.f.View(cs.Dest, &c.views[cs.Dest])
	rv, err := c.call(site, dest)
	if err != nil {
		return err
	}
	m := im.Load()
	if rv.m == dest {
		if m != nil {
			m.callInplace.Inc()
		}
		return nil
	}
	if m != nil {
		m.callCopied.Inc()
	}
	if err := assignRegion(c.r.rule, c.r.prog.Refs[cs.Dest].Binding, dest, rv); err != nil {
		return err
	}
	recycle(rv.m)
	return nil
}

// call evaluates site's arguments in order — a nested site by calling
// it — then calls its transform, offering it dest (nil for a nested
// site). The callee resolves by name now, so programs never capture
// engine state. A nested result is a temporary nothing else can name:
// it dies when its consumer returns, and is recycled here (never on an
// error path).
func (c *callFrame) call(site int, dest *matrix.Matrix) (value, error) {
	cs := &c.r.prog.Calls[site]
	args := c.args[site]
	for i, a := range cs.Args {
		if !a.Nested {
			args[i] = matval(c.f.View(a.N, &c.views[a.N]))
			continue
		}
		v, err := c.call(int(a.N), nil)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	v, err := c.ex.callTransform(cs.Fn, args, dest, c.ex.worker)
	if err != nil {
		return value{}, err
	}
	for i, a := range cs.Args {
		if a.Nested {
			recycle(args[i].m)
			args[i] = value{}
		}
	}
	return v, nil
}
