package interp

import (
	"fmt"
	"math"
	"sync"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/runtime"
)

// This file is the macro-rule compiler. The vm takes the macro rules
// that call no transform; for the rest — their bodies call transforms
// and assign whole regions — instead of re-walking the AST with a
// map[string]value environment on every run (the runRuleBody path, kept
// as the fallback), each macro rule body is lowered once per
// (transform, input sizes, config) into a tree of Go closures over a
// slot-indexed frame. A macro rule has no
// center, so every region binding's bounds fold to constants here, and
// a run binds each view once before the straight-line closure calls.

// stmtFn executes one compiled statement against a frame.
type stmtFn func(f *macroFrame) error

// scalarFn evaluates a compiled expression to a float64.
type scalarFn func(f *macroFrame) (float64, error)

// valueFn evaluates a compiled expression to a value (for matrix views
// and call results).
type valueFn func(f *macroFrame) (value, error)

// macroRule is one macro rule lowered to closures over a macroFrame.
type macroRule struct {
	name     string // diagnostic rule name
	refs     []macroRef
	body     []stmtFn
	nSlots   int
	scratch  []int // row-major index scratch lengths, one per index site
	argSites []int // argument buffer lengths, one per call site

	// framePool recycles frames across invocations: a recursive
	// transform runs its macro rule once per call, and a pooled frame
	// only needs its invocation set.
	framePool sync.Pool
}

// macroRef is one bound region reference of a macro rule: the frame
// slot of its view and its window, folded at compile time.
type macroRef struct {
	binding    string
	mat        int  // index of the matrix in exec.mats
	slot       int  // frame slot of the view
	collapse   bool // row/column accessors drop unit dimensions
	begin, end []int
}

// macroFrame is the execution state of one macro rule run: slots
// replace the AST tier's map environment, views hold the region
// bindings, and the scratch buffers make evaluation allocation-free.
type macroFrame struct {
	mr      *macroRule
	ex      *exec
	worker  *runtime.Worker
	slots   []value
	views   []matrix.Matrix // per ref, aliased by the ref's slot
	scratch [][]int
	args    [][]value
}

// newFrame allocates a frame for mr, its slots aliasing its views.
func (mr *macroRule) newFrame() *macroFrame {
	f := &macroFrame{
		mr:    mr,
		slots: make([]value, mr.nSlots),
		views: make([]matrix.Matrix, len(mr.refs)),
	}
	for i := range mr.refs {
		f.slots[mr.refs[i].slot] = matval(&f.views[i])
	}
	if len(mr.scratch) > 0 {
		f.scratch = make([][]int, len(mr.scratch))
		for i, n := range mr.scratch {
			f.scratch[i] = make([]int, n)
		}
	}
	if len(mr.argSites) > 0 {
		f.args = make([][]value, len(mr.argSites))
		for i, n := range mr.argSites {
			f.args[i] = make([]value, n)
		}
	}
	return f
}

// acquireFrame returns a frame for one run of the rule in ex, reusing a
// pooled one when available. Pair with releaseFrame after the run, on
// success or error (frames hold no error state).
func (mr *macroRule) acquireFrame(ex *exec, w *runtime.Worker) *macroFrame {
	f, _ := mr.framePool.Get().(*macroFrame)
	if f == nil {
		f = mr.newFrame()
	}
	f.ex, f.worker = ex, w
	return f
}

// releaseFrame recycles a frame obtained from acquireFrame. Everything
// the frame learned from its invocation is dropped first — a pooled
// frame must not keep a finished request's matrices (inputs, views into
// them, nested-call results in the argument scratch) reachable until
// the pool is next cleared.
func (mr *macroRule) releaseFrame(f *macroFrame) {
	f.ex, f.worker = nil, nil
	for i := range f.views {
		f.views[i].Detach()
	}
	for _, args := range f.args {
		clear(args)
	}
	mr.framePool.Put(f)
}

// run binds every view to the invocation's matrices and executes the
// compiled body.
func (f *macroFrame) run() error {
	mr := f.mr
	for i := range mr.refs {
		ref := &mr.refs[i]
		m := f.ex.mats[ref.mat]
		nd := len(ref.begin)
		for d := 0; d < nd; d++ {
			rd := nd - 1 - d // DSL order, as the bounds were written
			if lo, hi := ref.begin[rd], ref.end[rd]; lo < 0 || hi > m.Size(rd) || lo > hi {
				return fmt.Errorf("interp: %s binding %s: view [%d,%d) out of range [0,%d)", mr.name, ref.binding, lo, hi, m.Size(rd))
			}
		}
		v := &f.views[i]
		m.RegionInto(v, ref.begin, ref.end)
		if ref.collapse {
			v.CollapseUnitDims()
		}
	}
	for _, st := range mr.body {
		if err := st(f); err != nil {
			return err
		}
	}
	return nil
}

// --- Rule compilation -----------------------------------------------------

// errNotCompilable marks rules outside the compilable fragment; the
// engine silently falls back to the AST interpreter for them, so the
// compiler only ever changes performance, never which programs run.
var errNotCompilable = fmt.Errorf("interp: rule not compilable")

type ruleCompiler struct {
	res   *analysis.Result
	sizes map[string]int64
	mr    *macroRule
}

func (c *ruleCompiler) newSlot() int {
	s := c.mr.nSlots
	c.mr.nSlots++
	return s
}

func (c *ruleCompiler) newScratch(n int) int {
	c.mr.scratch = append(c.mr.scratch, n)
	return len(c.mr.scratch) - 1
}

func (c *ruleCompiler) newArgSite(n int) int {
	c.mr.argSites = append(c.mr.argSites, n)
	return len(c.mr.argSites) - 1
}

// slotKind is the statically resolved kind of a named binding.
type slotKind int

const (
	slotScalar slotKind = iota
	slotMatrix
)

// slotVar is a compile-time binding: its kind and frame slot.
type slotVar struct {
	kind slotKind
	slot int
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

// compileMacro lowers one macro rule into closures, or reports that it
// is outside the compilable fragment (raw-body escapes, non-affine
// bounds, bound .cell(...) references, constructs whose dynamic
// semantics need the env world). matIndex maps a declared matrix to its
// index in exec.mats. The recover guard turns any unexpected
// compile-time panic into a fallback rather than taking down execution.
func compileMacro(res *analysis.Result, ri *analysis.RuleInfo, sizes map[string]int64, matIndex map[string]int) (mr *macroRule, err error) {
	defer func() {
		if r := recover(); r != nil {
			mr, err = nil, fmt.Errorf("interp: compiling %s: %v", ri.Rule.Name(), r)
		}
	}()
	if ri.Rule.RawBody != "" {
		return nil, errNotCompilable
	}
	c := &ruleCompiler{res: res, sizes: sizes, mr: &macroRule{name: ri.Rule.Name()}}
	root := newCompScope(nil)
	refs := make([]*ast.RegionRef, 0, len(ri.Rule.To)+len(ri.Rule.From))
	refs = append(refs, ri.Rule.To...)
	refs = append(refs, ri.Rule.From...)
	for _, ref := range refs {
		mref, err := c.compileRef(ref)
		if err != nil {
			return nil, err
		}
		if ref.Binding == "" {
			continue // a dependency only; its bounds must still fold
		}
		mref.mat = matIndex[ref.Matrix]
		mref.slot = c.newSlot()
		root.define(ref.Binding, slotVar{kind: slotMatrix, slot: mref.slot})
		c.mr.refs = append(c.mr.refs, mref)
	}
	body, err := c.compileStmts(ri.Rule.Body, root)
	if err != nil {
		return nil, err
	}
	c.mr.body = body
	return c.mr, nil
}

// constBound folds a region bound to a constant: only affine bounds
// compile, and with the size variables bound and no center nothing is
// left to vary.
func (c *ruleCompiler) constBound(e ast.Expr) (int64, error) {
	se, err := analysis.ToSymbolic(e)
	if err != nil {
		return 0, errNotCompilable
	}
	aff, ok := se.Affine()
	if !ok {
		return 0, errNotCompilable
	}
	v, err := aff.Expr().Eval(c.sizes)
	if err != nil {
		return 0, errNotCompilable
	}
	return v, nil
}

// compileRef mirrors refBounds exactly, but folds the arithmetic into a
// constant row-major window. An unbound .cell(...) reference is a
// dependency only: its bounds must fold, and nothing is kept. No macro
// rule binds one, so the AST tier runs any that does.
func (c *ruleCompiler) compileRef(ref *ast.RegionRef) (macroRef, error) {
	mi := c.res.Matrices[ref.Matrix]
	if mi == nil {
		return macroRef{}, errNotCompilable
	}
	dims := make([]int64, len(mi.Dims))
	for i, se := range mi.Dims {
		v, err := se.Eval(c.sizes)
		if err != nil {
			return macroRef{}, errNotCompilable
		}
		dims[i] = v
	}
	var lo, hi []int64 // DSL order
	mref := macroRef{binding: ref.Binding}
	switch ref.Kind {
	case ast.RegionAll:
		for _, ext := range dims {
			lo = append(lo, 0)
			hi = append(hi, ext)
		}
	case ast.RegionCell:
		if ref.Binding != "" {
			return macroRef{}, errNotCompilable
		}
		for _, a := range ref.Args {
			if _, err := c.constBound(a); err != nil {
				return macroRef{}, err
			}
		}
		return mref, nil
	case ast.RegionRow:
		if len(dims) != 2 || len(ref.Args) != 1 {
			return macroRef{}, errNotCompilable
		}
		y, err := c.constBound(ref.Args[0])
		if err != nil {
			return macroRef{}, err
		}
		mref.collapse = true
		lo, hi = []int64{0, y}, []int64{dims[0], y + 1}
	case ast.RegionCol:
		if len(dims) != 2 || len(ref.Args) != 1 {
			return macroRef{}, errNotCompilable
		}
		x, err := c.constBound(ref.Args[0])
		if err != nil {
			return macroRef{}, err
		}
		mref.collapse = true
		lo, hi = []int64{x, 0}, []int64{x + 1, dims[1]}
	case ast.RegionRegion:
		nd := len(dims)
		if len(ref.Args) != 2*nd {
			return macroRef{}, errNotCompilable
		}
		for d := 0; d < nd; d++ {
			l, err := c.constBound(ref.Args[d])
			if err != nil {
				return macroRef{}, err
			}
			h, err := c.constBound(ref.Args[nd+d])
			if err != nil {
				return macroRef{}, err
			}
			lo = append(lo, l)
			hi = append(hi, h)
		}
	default:
		return macroRef{}, errNotCompilable
	}
	nd := len(lo)
	mref.begin, mref.end = make([]int, nd), make([]int, nd)
	for d := range lo {
		mref.begin[nd-1-d], mref.end[nd-1-d] = int(lo[d]), int(hi[d])
	}
	return mref, nil
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
		sc.define(st.Name, slotVar{kind: slotScalar, slot: slot})
		trunc := st.Type == "int"
		return func(f *macroFrame) error {
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
		// Only scalar locals compile; ++/-- on a region binding falls
		// back to the interpreter.
		v, ok := sc.lookup(st.Name)
		if !ok || v.kind != slotScalar {
			return nil, errNotCompilable
		}
		slot := v.slot
		delta := 1.0
		if st.Op == "--" {
			delta = -1.0
		}
		return func(f *macroFrame) error {
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
		return func(f *macroFrame) error {
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
		return func(f *macroFrame) error {
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
		return func(f *macroFrame) error {
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
			sc.define(lhs.Name, slotVar{kind: slotScalar, slot: slot})
			return func(f *macroFrame) error {
				x, err := rhs(f)
				if err != nil {
					return err
				}
				f.slots[slot] = scalar(x)
				return nil
			}, nil
		}
		switch v.kind {
		case slotScalar:
			rhs, err := c.compileScalar(st.RHS, sc)
			if err != nil {
				return nil, err
			}
			slot := v.slot
			switch st.Op {
			case "=":
				return func(f *macroFrame) error {
					x, err := rhs(f)
					if err != nil {
						return err
					}
					f.slots[slot] = scalar(x)
					return nil
				}, nil
			case "+=", "-=":
				neg := st.Op == "-="
				return func(f *macroFrame) error {
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
				return func(f *macroFrame) error {
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
					if err := assignRegion(f.mr.name, name, cur, rv); err != nil {
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
			return func(f *macroFrame) error {
				rv, err := rhs(f)
				if err != nil {
					return err
				}
				return assignRegion(f.mr.name, name, f.slots[slot].m, rv)
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
		return func(f *macroFrame) error {
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
		return func(*macroFrame) (float64, error) { return v, nil }, nil
	case *ast.Ident:
		if v, ok := sc.lookup(x.Name); ok {
			switch v.kind {
			case slotScalar:
				slot := v.slot
				return func(f *macroFrame) (float64, error) { return f.slots[slot].f, nil }, nil
			default:
				slot := v.slot
				return func(f *macroFrame) (float64, error) { return f.slots[slot].num() }, nil
			}
		}
		if v, ok := c.sizes[x.Name]; ok {
			fv := float64(v)
			return func(*macroFrame) (float64, error) { return fv, nil }, nil
		}
		return nil, errNotCompilable // undefined name: interpreter owns the error
	case *ast.Unary:
		fn, err := c.compileScalar(x.X, sc)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			return func(f *macroFrame) (float64, error) {
				v, err := fn(f)
				return -v, err
			}, nil
		}
		return func(f *macroFrame) (float64, error) {
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
		return func(f *macroFrame) (float64, error) {
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
		return func(f *macroFrame) (float64, error) {
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
		return func(f *macroFrame) (float64, error) {
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
		return func(f *macroFrame) (float64, error) {
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
		return func(f *macroFrame) (float64, error) {
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
		return func(f *macroFrame) (float64, error) {
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
			return func(f *macroFrame) (value, error) { return f.slots[slot], nil }, nil
		}
		if v, ok := c.sizes[x.Name]; ok {
			val := scalar(float64(v))
			return func(*macroFrame) (value, error) { return val, nil }, nil
		}
		return nil, errNotCompilable
	case *ast.Call:
		return c.compileCall(x, sc)
	}
	fn, err := c.compileScalar(e, sc)
	if err != nil {
		return nil, err
	}
	return func(f *macroFrame) (value, error) {
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
		return func(f *macroFrame) (value, error) { return call(f, nil) }, nil
	}
	argFns, site, err := c.compileArgs(x, sc)
	if err != nil {
		return nil, err
	}
	name, fn := x.Fn, builtins[x.Fn]
	return func(f *macroFrame) (value, error) {
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
func (f *macroFrame) evalArgs(argFns []valueFn, args []value) error {
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
func (c *ruleCompiler) compileTransformCall(x *ast.Call, sc *compScope) (func(f *macroFrame, dest *matrix.Matrix) (value, error), error) {
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
	return func(f *macroFrame, dest *matrix.Matrix) (value, error) {
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
