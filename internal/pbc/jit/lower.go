package jit

import (
	"math"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/codegen"
	"petabricks/internal/pbc/symbolic"
)

// Compile lowers one analyzed rule into a bytecode Program, or reports
// why it is outside the lowerable fragment as a typed
// *codegen.Unsupported so the caller can fall back to the AST
// interpreter and surface the reason.
//
// The lowerable fragment is rules — cell or macro — whose bound
// references have integer-affine center indices (a macro rule has no
// center, so its bounds fold to constants): scalar locals, cell reads
// and writes, arithmetic, comparisons, short-circuit logic, lazy
// conditionals, if/for control flow, the scalar builtins, and — over
// bound region/row/column/whole views whose bounds fold to affine forms
// at (transform, sizes, config) time — the sum and dot reductions plus
// direct .cell(...) indexed reads and writes. A macro rule may also call
// transforms in statements `v = F(a1, …)`, v a bound view and each
// argument a bound view or a call of the same shape; each becomes an
// OpCall of a call site the interpreter runs. Every lowering decision
// mirrors the AST interpreter in internal/pbc/interp so outputs stay
// bit-identical across tiers — evaluation order, error order,
// truncation, short-circuiting, eager view bounds checks, and lazy
// out-of-range cell handling included.
func Compile(res *analysis.Result, ri *analysis.RuleInfo, sizes map[string]int64) (p *Program, err error) {
	rule := ri.Rule.Name()
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, codegen.Unsup(rule, "panic", "%v", r)
		}
	}()
	if ri.Rule.RawBody != "" {
		return nil, codegen.Unsup(rule, "raw-body", "")
	}
	// Checked before any ref is lowered: a rule with a call that cannot
	// lower would otherwise allocate its refs only to be rejected there.
	if fn, ok := stmtsCall(ri.Rule.Body, ri.Kind == analysis.RuleMacro); ok {
		return nil, codegen.Unsup(rule, "transform-call", "%q", fn)
	}
	lo := &lowerer{
		res:    res,
		ri:     ri,
		rule:   rule,
		sizes:  sizes,
		consts: map[uint64]int32{},
		cpool:  map[float64]int32{},
		p: &Program{
			Name:    res.Transform.Name + "/" + rule,
			NCenter: len(ri.CenterVars),
		},
	}
	root := newScope(nil)
	if len(ri.CenterVars) > 0 { // a macro rule's stays nil, as decoded
		lo.p.CenterReg = make([]int32, len(ri.CenterVars))
	}
	for d, v := range ri.CenterVars {
		lo.p.CenterReg[d] = -1
		if v != "" {
			r := lo.newReg()
			lo.p.CenterReg[d] = r
			root.define(v, lvar{kind: lvScalar, reg: r})
		}
	}
	refs := make([]*ast.RegionRef, 0, len(ri.Rule.To)+len(ri.Rule.From))
	refs = append(refs, ri.Rule.To...)
	refs = append(refs, ri.Rule.From...)
	bound := 0
	for _, ref := range refs {
		if ref.Binding != "" {
			bound++
		}
	}
	if bound > 0 { // none stays nil, as decoded
		lo.p.Refs = make([]Ref, 0, bound)
	}
	for _, ref := range refs {
		if err := lo.addRef(ref, root); err != nil {
			return nil, err
		}
	}
	for _, s := range ri.Rule.Body {
		if err := lo.stmt(s, root); err != nil {
			return nil, err
		}
	}
	lo.emit(OpHalt, 0, 0, 0)
	lo.p.RegInit = lo.regInit
	return lo.p, nil
}

type lowerer struct {
	res     *analysis.Result
	ri      *analysis.RuleInfo
	rule    string
	sizes   map[string]int64
	p       *Program
	regInit []float64
	consts  map[uint64]int32  // constant's bits → preloaded register
	cpool   map[float64]int32 // constant value → Consts pool index
}

type lvKind int

const (
	lvScalar lvKind = iota
	lvCell
	lvView
)

// lvar is a compile-time binding: a scalar register, a cell ref, or a
// view ref (vnd is the view's statically known post-collapse rank).
type lvar struct {
	kind lvKind
	reg  int32
	ref  int32
	vnd  int
}

type lscope struct {
	parent *lscope
	vars   map[string]lvar
}

func newScope(parent *lscope) *lscope { return &lscope{parent: parent, vars: map[string]lvar{}} }

func (s *lscope) lookup(name string) (lvar, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return lvar{}, false
}

func (s *lscope) define(name string, v lvar) { s.vars[name] = v }

func (lo *lowerer) newReg() int32 {
	r := int32(len(lo.regInit))
	lo.regInit = append(lo.regInit, 0)
	return r
}

// constReg returns a register preloaded with v via RegInit, so constants
// cost nothing per cell. Constants are told apart by their bits, so a
// folded -0 never shares 0's register.
func (lo *lowerer) constReg(v float64) int32 {
	bits := math.Float64bits(v)
	if r, ok := lo.consts[bits]; ok {
		return r
	}
	r := int32(len(lo.regInit))
	lo.regInit = append(lo.regInit, v)
	lo.consts[bits] = r
	return r
}

// cconst interns v in the OpConst pool (for registers that must be
// re-initialized at runtime, like loop guards).
func (lo *lowerer) cconst(v float64) int32 {
	if i, ok := lo.cpool[v]; ok {
		return i
	}
	i := int32(len(lo.p.Consts))
	lo.p.Consts = append(lo.p.Consts, v)
	lo.cpool[v] = i
	return i
}

func (lo *lowerer) emit(op Op, a, b, c int32) int {
	lo.p.Code = append(lo.p.Code, Instr{Op: op, A: a, B: b, C: c})
	return len(lo.p.Code) - 1
}

func (lo *lowerer) here() int32 { return int32(len(lo.p.Code)) }

func (lo *lowerer) patch(pc int, target int32) { lo.p.Code[pc].A = target }

func (lo *lowerer) patchAll(pcs []int, target int32) {
	for _, pc := range pcs {
		lo.patch(pc, target)
	}
}

func (lo *lowerer) unsup(construct, detailFmt string, args ...any) error {
	return codegen.Unsup(lo.rule, construct, detailFmt, args...)
}

// stmtsCall reports the first transform call in a statement list, in
// source order, that does not lower, walking every statement and
// expression without allocating. Any call of a name that is not a
// builtin is a transform call. In a macro rule (macro set) the calls
// of a call statement (see isCallStmt) lower; no other call does.
func stmtsCall(list []ast.Stmt, macro bool) (string, bool) {
	for _, s := range list {
		if fn, ok := stmtCall(s, macro); ok {
			return fn, true
		}
	}
	return "", false
}

// isCallStmt reports whether st is `v = F(a1, …)` with every argument a
// name or a call of the same shape: the statement OpCall runs, once
// lowering has found v and each argument name bound to a view.
func isCallStmt(st *ast.Assign) bool {
	_, ok := st.LHS.(*ast.Ident)
	x, isCall := st.RHS.(*ast.Call)
	return ok && isCall && st.Op == "=" && callShape(x)
}

func callShape(x *ast.Call) bool {
	if isBuiltin(x.Fn) {
		return false
	}
	for _, a := range x.Args {
		switch a := a.(type) {
		case *ast.Ident:
		case *ast.Call:
			if !callShape(a) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func stmtCall(s ast.Stmt, macro bool) (string, bool) {
	switch st := s.(type) {
	case *ast.Decl:
		return exprCall(st.Init)
	case *ast.Assign:
		if macro && isCallStmt(st) {
			return "", false
		}
		if fn, ok := exprCall(st.LHS); ok {
			return fn, true
		}
		return exprCall(st.RHS)
	case *ast.If:
		if fn, ok := exprCall(st.Cond); ok {
			return fn, true
		}
		if fn, ok := stmtsCall(st.Then, macro); ok {
			return fn, true
		}
		return stmtsCall(st.Else, macro)
	case *ast.For:
		if st.Init != nil {
			if fn, ok := stmtCall(st.Init, macro); ok {
				return fn, true
			}
		}
		if fn, ok := exprCall(st.Cond); ok {
			return fn, true
		}
		if st.Post != nil {
			if fn, ok := stmtCall(st.Post, macro); ok {
				return fn, true
			}
		}
		return stmtsCall(st.Body, macro)
	case *ast.ExprStmt:
		return exprCall(st.X)
	case *ast.Return:
		return exprCall(st.X)
	}
	return "", false
}

func exprCall(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Binary:
		if fn, ok := exprCall(x.L); ok {
			return fn, true
		}
		return exprCall(x.R)
	case *ast.Unary:
		return exprCall(x.X)
	case *ast.Cond:
		if fn, ok := exprCall(x.C); ok {
			return fn, true
		}
		if fn, ok := exprCall(x.A); ok {
			return fn, true
		}
		return exprCall(x.B)
	case *ast.Index:
		return exprsCall(x.Args)
	case *ast.Call:
		if !isBuiltin(x.Fn) {
			return x.Fn, true
		}
		return exprsCall(x.Args)
	}
	return "", false
}

func exprsCall(list []ast.Expr) (string, bool) {
	for _, e := range list {
		if fn, ok := exprCall(e); ok {
			return fn, true
		}
	}
	return "", false
}

// --- References -------------------------------------------------------------

// affForm is one folded affine bound: base + Σ coeff·center.
type affForm struct {
	base  int64
	coeff []int64
}

func (a affForm) plus(n int64) affForm { return affForm{a.base + n, a.coeff} }

// addRef validates one region reference and lowers bound refs into
// affine Ref entries: cells become lazily range-checked single-offset
// RefCell refs; every other shape (whole matrix, row, column, region)
// becomes a RefView window with the AST tier's eager per-dimension
// [lo,hi) bounds checks.
// Unbound refs are validated but emit nothing: the AST tier binds only
// named refs too, so their bounds are never checked at run time in any
// tier.
func (lo *lowerer) addRef(ref *ast.RegionRef, root *lscope) error {
	mi := lo.res.Matrices[ref.Matrix]
	if mi == nil {
		return lo.unsup("unknown-matrix", "%q", ref.Matrix)
	}
	// Small fixed buffers keep a ref's scratch off the heap: lowering
	// runs once per rule and size binding, on every cold start.
	var dimBuf [4]int64
	var loBuf, hiBuf [4]affForm
	dims := dimBuf[:0]
	for _, se := range mi.Dims {
		v, err := se.Eval(lo.sizes)
		if err != nil {
			return lo.unsup("non-affine-dims", "matrix %q", ref.Matrix)
		}
		dims = append(dims, v)
	}
	bound := func(e ast.Expr) (affForm, error) {
		se, serr := analysis.ToSymbolic(e)
		if serr != nil {
			return affForm{}, lo.unsup("non-affine-index", "%s", ast.ExprString(e))
		}
		base, coeff, err := lo.affineOf(se, e)
		return affForm{base, coeff}, err
	}
	// Fold the ref into DSL-order lo/hi bounds, the shapes refBounds
	// evaluates in the AST tier; a malformed shape falls back, and the
	// AST tier reports it.
	lob, hib := loBuf[:0], hiBuf[:0]
	collapse := false
	switch ref.Kind {
	case ast.RegionAll:
		for _, ext := range dims {
			lob = append(lob, affForm{})
			hib = append(hib, affForm{base: ext})
		}
	case ast.RegionCell:
		for _, a := range ref.Args {
			ab, err := bound(a)
			if err != nil {
				return err
			}
			lob = append(lob, ab)
		}
	case ast.RegionRow, ast.RegionCol:
		if len(dims) != 2 || len(ref.Args) != 1 {
			return lo.unsup("region-shape", "%d-arg row/column on %d-dim %q", len(ref.Args), len(dims), ref.Matrix)
		}
		ab, err := bound(ref.Args[0])
		if err != nil {
			return err
		}
		collapse = true
		if ref.Kind == ast.RegionRow {
			lob = []affForm{{}, ab}
			hib = []affForm{{base: dims[0]}, ab.plus(1)}
		} else {
			lob = []affForm{ab, {}}
			hib = []affForm{ab.plus(1), {base: dims[1]}}
		}
	case ast.RegionRegion:
		nd := len(dims)
		if len(ref.Args) != 2*nd {
			return lo.unsup("region-shape", "%d-arg region on %d-dim %q", len(ref.Args), nd, ref.Matrix)
		}
		for d := 0; d < nd; d++ {
			loB, err := bound(ref.Args[d])
			if err != nil {
				return err
			}
			hiB, err := bound(ref.Args[nd+d])
			if err != nil {
				return err
			}
			lob = append(lob, loB)
			hib = append(hib, hiB)
		}
	default:
		return lo.unsup("region-kind", "%v", ref.Kind)
	}
	if ref.Binding == "" {
		return nil
	}
	nc := lo.p.NCenter
	fill := func(forms []affForm, nd int, base []int64, coeff *[]int64) {
		for d, ab := range forms {
			base[d] = ab.base
			for k, co := range ab.coeff {
				if co != 0 {
					if *coeff == nil {
						*coeff = make([]int64, nd*nc)
					}
					(*coeff)[d*nc+k] = co
				}
			}
		}
	}
	if ref.Kind == ast.RegionCell {
		nd := len(lob)
		r := Ref{Matrix: ref.Matrix, Binding: ref.Binding, ND: nd, Base: make([]int64, nd)}
		fill(lob, nd, r.Base, &r.Coeff)
		root.define(ref.Binding, lvar{kind: lvCell, ref: int32(len(lo.p.Refs))})
		lo.p.Refs = append(lo.p.Refs, r)
		return nil
	}
	nd := len(dims)
	r := Ref{
		Matrix: ref.Matrix, Binding: ref.Binding, ND: nd, Kind: RefView,
		Base: make([]int64, nd), HiBase: make([]int64, nd), Collapse: collapse,
	}
	fill(lob, nd, r.Base, &r.Coeff)
	fill(hib, nd, r.HiBase, &r.HiCoeff)
	vnd := nd
	if collapse {
		vnd = 1 // a collapsed 2-D row/column view is always exactly 1-D
	}
	root.define(ref.Binding, lvar{kind: lvView, ref: int32(len(lo.p.Refs)), vnd: vnd})
	lo.p.Refs = append(lo.p.Refs, r)
	return nil
}

// affineOf folds a symbolic index into base + Σ coeff·center. Every
// center coefficient must be an integer: flooring distributes over the
// center terms only when they contribute integers; fractional size
// terms fold into the base.
func (lo *lowerer) affineOf(se *symbolic.Expr, e ast.Expr) (int64, []int64, error) {
	aff, ok := se.Affine()
	if !ok {
		return 0, nil, lo.unsup("non-affine-index", "%s", ast.ExprString(e))
	}
	coeffs, rest := aff.Split(lo.ri.CenterVars)
	var out []int64 // nil when no center variable contributes
	for d, co := range coeffs {
		if co.IsZero() {
			continue
		}
		if !co.IsInt() {
			return 0, nil, lo.unsup("non-integer-coeff", "%s", ast.ExprString(e))
		}
		if out == nil {
			out = make([]int64, len(coeffs))
		}
		out[d] = co.Int()
	}
	// With no center term split off, rest is se itself: evaluate that
	// rather than rebuild it.
	re := se
	if out != nil {
		re = rest.Expr()
	}
	base, err := re.Eval(lo.sizes)
	if err != nil {
		return 0, nil, lo.unsup("non-affine-index", "%s", ast.ExprString(e))
	}
	return base, out, nil
}

// --- Statements -------------------------------------------------------------

func (lo *lowerer) stmts(list []ast.Stmt, sc *lscope) error {
	for _, s := range list {
		if err := lo.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(s ast.Stmt, sc *lscope) error {
	switch st := s.(type) {
	case *ast.Decl:
		src := lo.constReg(0)
		if st.Init != nil {
			r, err := lo.scalarRead(st.Init, sc)
			if err != nil {
				return err
			}
			src = r
		}
		reg := lo.newReg()
		if st.Type == "int" {
			lo.emit(OpTrunc, reg, src, 0)
		} else {
			lo.emit(OpMov, reg, src, 0)
		}
		sc.define(st.Name, lvar{kind: lvScalar, reg: reg})
		return nil
	case *ast.Assign:
		return lo.assign(st, sc)
	case *ast.IncDec:
		// ++/-- on a cell binding rebinds the name to a scalar in the
		// env world; registers cannot express that, so fall back.
		v, ok := sc.lookup(st.Name)
		if !ok || v.kind != lvScalar {
			return lo.unsup("incdec-target", "%q", st.Name)
		}
		one := lo.constReg(1)
		if st.Op == "--" {
			lo.emit(OpSub, v.reg, v.reg, one)
		} else {
			lo.emit(OpAdd, v.reg, v.reg, one)
		}
		return nil
	case *ast.If:
		jz, err := lo.branchUnless(st.Cond, sc)
		if err != nil {
			return err
		}
		if err := lo.stmts(st.Then, newScope(sc)); err != nil {
			return err
		}
		if len(st.Else) == 0 {
			lo.patchAll(jz, lo.here())
			return nil
		}
		jmp := lo.emit(OpJmp, -1, 0, 0)
		lo.patchAll(jz, lo.here())
		if err := lo.stmts(st.Else, newScope(sc)); err != nil {
			return err
		}
		lo.patch(jmp, lo.here())
		return nil
	case *ast.For:
		if st.Cond == nil {
			return lo.unsup("for-without-cond", "") // interpreter reports the error
		}
		scope := newScope(sc)
		if st.Init != nil {
			if err := lo.stmt(st.Init, scope); err != nil {
				return err
			}
		}
		if v, k, ok := lo.countedLoop(st, scope); ok {
			return lo.rotatedLoop(st, scope, v, k)
		}
		guard := lo.newReg()
		lo.emit(OpConst, guard, lo.cconst(0), 0)
		loop := lo.here()
		jz, err := lo.branchUnless(st.Cond, scope)
		if err != nil {
			return err
		}
		if err := lo.stmts(st.Body, newScope(scope)); err != nil {
			return err
		}
		if st.Post != nil {
			if err := lo.stmt(st.Post, scope); err != nil {
				return err
			}
		}
		lo.emit(OpLoop, loop, guard, 0)
		lo.patchAll(jz, lo.here())
		return nil
	case *ast.ExprStmt:
		// Bare names have no effect in the AST tier (the value is looked
		// up and discarded without an out-of-range check), so
		// defined names lower to nothing; anything else evaluates for
		// its errors only.
		if id, ok := st.X.(*ast.Ident); ok {
			if _, ok := sc.lookup(id.Name); ok {
				return nil
			}
			if _, ok := lo.sizes[id.Name]; ok {
				return nil
			}
			return lo.unsup("undefined-name", "%q", id.Name)
		}
		_, err := lo.scalarRead(st.X, sc)
		return err
	case *ast.Return:
		return lo.unsup("return-statement", "") // interpreter owns the error
	}
	return lo.unsup("unknown-statement", "%T", s)
}

// countedLoop matches a for loop `v < K; v++` whose bound K is
// constant and whose v is a scalar local, returning v's register and K.
func (lo *lowerer) countedLoop(st *ast.For, sc *lscope) (int32, float64, bool) {
	cond, ok := st.Cond.(*ast.Binary)
	if !ok || cond.Op != "<" {
		return 0, 0, false
	}
	id, ok := cond.L.(*ast.Ident)
	if !ok {
		return 0, 0, false
	}
	post, ok := st.Post.(*ast.IncDec)
	if !ok || post.Op != "++" || post.Name != id.Name {
		return 0, 0, false
	}
	v, ok := sc.lookup(id.Name)
	if !ok || v.kind != lvScalar {
		return 0, 0, false
	}
	k, ok := lo.constant(cond.R, sc)
	return v.reg, k, ok
}

// rotatedLoop lowers a counted loop with its test at the bottom: the
// head test runs once, on entry, and each iteration ends in one OpLoopLT
// — the increment, the runaway guard and the test, in the order the
// unrotated loop runs them. The guard's register is followed by one
// preloaded with the bound.
func (lo *lowerer) rotatedLoop(st *ast.For, sc *lscope, v int32, k float64) error {
	guard := lo.newReg()
	bound := lo.newReg()
	lo.regInit[bound] = k
	lo.emit(OpConst, guard, lo.cconst(0), 0)
	exit := lo.emit(OpJNLT, -1, v, bound)
	body := lo.here()
	if err := lo.stmts(st.Body, newScope(sc)); err != nil {
		return err
	}
	lo.emit(OpLoopLT, body, v, guard)
	lo.patch(exit, lo.here())
	return nil
}

// constant reports e's value when it is the same at every run of the
// program: a literal, a size variable no local shadows (sizes are fixed
// per compiled program), or arithmetic over those that cannot fail —
// negation, +, -, *, and / or % by a non-zero divisor. Each operation
// is the float64 one the vm and the AST tier perform, so a folded value
// is bit-identical to the one computed at run time.
func (lo *lowerer) constant(e ast.Expr, sc *lscope) (float64, bool) {
	switch x := e.(type) {
	case *ast.Num:
		return x.Val, true
	case *ast.Ident:
		if _, ok := sc.lookup(x.Name); ok {
			return 0, false
		}
		v, ok := lo.sizes[x.Name]
		return float64(v), ok
	case *ast.Unary:
		if v, ok := lo.constant(x.X, sc); ok && x.Op == "-" {
			return -v, true
		}
	case *ast.Binary:
		l, ok := lo.constant(x.L, sc)
		if !ok {
			return 0, false
		}
		r, ok := lo.constant(x.R, sc)
		if !ok {
			return 0, false
		}
		switch {
		case x.Op == "+":
			return l + r, true
		case x.Op == "-":
			return l - r, true
		case x.Op == "*":
			return l * r, true
		case x.Op == "/" && r != 0:
			return l / r, true
		case x.Op == "%" && r != 0:
			return math.Mod(l, r), true
		}
	}
	return 0, false
}

// branchUnless emits a test of cond that falls through when cond holds
// and jumps otherwise, and returns the jumps, whose target the caller
// patches.
func (lo *lowerer) branchUnless(cond ast.Expr, sc *lscope) ([]int, error) {
	return lo.branch(cond, sc, false)
}

// branch emits a test of cond that jumps when cond's truth is jump and
// falls through otherwise, and returns the jumps to patch. && and || are
// chains of such tests over their operands, evaluated and
// short-circuited in the AST's order; a comparison is one
// compare-and-branch over its operands, read in binary's order (over a
// jmp when it must jump on true); any other condition evaluates into a
// register that OpJZ or OpJNZ tests.
func (lo *lowerer) branch(cond ast.Expr, sc *lscope, jump bool) ([]int, error) {
	x, ok := cond.(*ast.Binary)
	if ok && (x.Op == "&&" || x.Op == "||") {
		// short is the truth of the left operand that decides the whole
		// and skips the right one.
		short := x.Op == "||"
		jl, err := lo.branch(x.L, sc, short)
		if err != nil {
			return nil, err
		}
		jr, err := lo.branch(x.R, sc, jump)
		if err != nil {
			return nil, err
		}
		if jump == short {
			return append(jl, jr...), nil
		}
		lo.patchAll(jl, lo.here())
		return jr, nil
	}
	if ok {
		if op, cellsOp, ok := unlessOp(x.Op); ok {
			var pc int
			if refs, idx, ok := lo.twoCells(x, sc); ok {
				pc = lo.emit(cellsOp, -1, refs, idx)
			} else {
				l, err := lo.scalarRead(x.L, sc)
				if err != nil {
					return nil, err
				}
				r, err := lo.scalarRead(x.R, sc)
				if err != nil {
					return nil, err
				}
				pc = lo.emit(op, -1, l, r)
			}
			if !jump {
				return []int{pc}, nil
			}
			jmp := lo.emit(OpJmp, -1, 0, 0)
			lo.patch(pc, lo.here())
			return []int{jmp}, nil
		}
	}
	rc, err := lo.scalarRead(cond, sc)
	if err != nil {
		return nil, err
	}
	op := OpJZ
	if jump {
		op = OpJNZ
	}
	return []int{lo.emit(op, -1, rc, 0)}, nil
}

// unlessOp is the compare-and-branch opcode of a comparison operator,
// over two registers and over two view cells.
func unlessOp(op string) (Op, Op, bool) {
	switch op {
	case "<":
		return OpJNLT, OpJNLTV, true
	case "<=":
		return OpJNLE, OpJNLEV, true
	case ">":
		return OpJNGT, OpJNGTV, true
	case ">=":
		return OpJNGE, OpJNGEV, true
	case "==":
		return OpJNEQ, OpJNEQV, true
	case "!=":
		return OpJNNE, OpJNNEV, true
	}
	return 0, 0, false
}

// twoCells matches a comparison of two 1-D view cells whose indices
// need no code — scalar locals or constants — and returns its refs and
// index registers packed as a two-cell compare takes them. Any field
// past 16 bits leaves the comparison to OpLoadAt, OpLoadAt and a
// compare-and-branch.
func (lo *lowerer) twoCells(x *ast.Binary, sc *lscope) (refs, idx int32, ok bool) {
	lr, li, ok := lo.plainCell(x.L, sc)
	if !ok {
		return 0, 0, false
	}
	rr, ri, ok := lo.plainCell(x.R, sc)
	if !ok || max(lr, li, rr, ri) > 0xffff {
		return 0, 0, false
	}
	return pack(lr, rr), pack(li, ri), true
}

// plainCell matches `v.cell(e)` on a 1-D view v with e a scalar local or
// a constant, and returns v's ref and e's register.
func (lo *lowerer) plainCell(e ast.Expr, sc *lscope) (ref, idx int32, ok bool) {
	x, ok := e.(*ast.Index)
	if !ok || len(x.Args) != 1 {
		return 0, 0, false
	}
	v, ok := sc.lookup(x.Base)
	if !ok || v.kind != lvView || v.vnd != 1 {
		return 0, 0, false
	}
	if k, ok := lo.constant(x.Args[0], sc); ok {
		return v.ref, lo.constReg(k), true
	}
	id, ok := x.Args[0].(*ast.Ident)
	if !ok {
		return 0, 0, false
	}
	r, ok := sc.lookup(id.Name)
	return v.ref, r.reg, ok && r.kind == lvScalar
}

func (lo *lowerer) assign(st *ast.Assign, sc *lscope) error {
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		v, ok := sc.lookup(lhs.Name)
		if !ok {
			// Implicit local definition, as in execAssign.
			if st.Op != "=" {
				return lo.unsup("assign-op", "%q on undefined %q", st.Op, lhs.Name)
			}
			src, err := lo.scalarRead(st.RHS, sc)
			if err != nil {
				return err
			}
			reg := lo.newReg()
			lo.emit(OpMov, reg, src, 0)
			sc.define(lhs.Name, lvar{kind: lvScalar, reg: reg})
			return nil
		}
		switch v.kind {
		case lvCell:
			// RHS first, then the out-of-range check, matching the
			// interpreter's order.
			src, err := lo.scalarRead(st.RHS, sc)
			if err != nil {
				return err
			}
			switch st.Op {
			case "=":
				lo.emit(OpStore, v.ref, src, 0)
			case "+=":
				old := lo.newReg()
				lo.emit(OpLoad, old, v.ref, 0)
				lo.emit(OpAdd, old, old, src)
				lo.emit(OpStore, v.ref, old, 0)
			case "-=":
				old := lo.newReg()
				lo.emit(OpLoad, old, v.ref, 0)
				lo.emit(OpSub, old, old, src)
				lo.emit(OpStore, v.ref, old, 0)
			default:
				return lo.unsup("assign-op", "%q on cell %q", st.Op, lhs.Name)
			}
			return nil
		case lvScalar:
			src, err := lo.scalarRead(st.RHS, sc)
			if err != nil {
				return err
			}
			switch st.Op {
			case "=":
				lo.emit(OpMov, v.reg, src, 0)
			case "+=":
				lo.emit(OpAdd, v.reg, v.reg, src)
			case "-=":
				lo.emit(OpSub, v.reg, v.reg, src)
			default:
				return lo.unsup("assign-op", "%q", st.Op)
			}
			return nil
		case lvView:
			// A call statement's result lands in the view; any other
			// whole-region assignment (b = a) stays on the AST.
			if !isCallStmt(st) {
				return lo.unsup("region-assignment", "%q", lhs.Name)
			}
			site, err := lo.callSite(st.RHS.(*ast.Call), sc)
			if err != nil {
				return err
			}
			lo.p.Calls[site].Dest = v.ref
			lo.emit(OpCall, site, 0, 0)
			return nil
		}
		return lo.unsup("assign-target", "%q", lhs.Name)
	case *ast.Index:
		v, ok := sc.lookup(lhs.Base)
		if !ok || v.kind != lvView {
			return lo.unsup("indexed-assignment", "%q", lhs.Base)
		}
		// RHS first, then indices, matching execAssign's order.
		src, err := lo.scalarRead(st.RHS, sc)
		if err != nil {
			return err
		}
		switch st.Op {
		case "=", "+=", "-=":
		default:
			return lo.unsup("assign-op", "%q on view %q", st.Op, lhs.Base)
		}
		idx, err := lo.indexRegs(lhs.Base, lhs.Args, v, sc)
		if err != nil {
			return err
		}
		switch st.Op {
		case "=":
			lo.emit(OpStoreAt, v.ref, idx, src)
		case "+=":
			old := lo.newReg()
			lo.emit(OpLoadAt, old, v.ref, idx)
			lo.emit(OpAdd, old, old, src)
			lo.emit(OpStoreAt, v.ref, idx, old)
		case "-=":
			old := lo.newReg()
			lo.emit(OpLoadAt, old, v.ref, idx)
			lo.emit(OpSub, old, old, src)
			lo.emit(OpStoreAt, v.ref, idx, old)
		}
		return nil
	}
	return lo.unsup("assign-target", "%T", st.LHS)
}

// indexRegs lowers a .cell(...) index list on a view binding into a
// block of consecutive registers (one per DSL dimension, as OpLoadAt
// and OpStoreAt expect) and returns the block's first register; a 1-D
// view's one index is read where it lies, with no copy. Index
// expressions evaluate left to right — the interpreter's order — with
// truncation and bounds checks deferred to the op itself. A rank
// mismatch is a per-cell runtime error in the interpreter, so it falls
// back rather than lowering.
func (lo *lowerer) indexRegs(name string, args []ast.Expr, v lvar, sc *lscope) (int32, error) {
	if len(args) != v.vnd {
		return 0, lo.unsup("index-rank", "%d indices for %d-dim view %q", len(args), v.vnd, name)
	}
	if len(args) == 1 {
		return lo.scalarRead(args[0], sc)
	}
	base := int32(len(lo.regInit))
	for range args {
		lo.newReg()
	}
	for d, a := range args {
		r, err := lo.scalarRead(a, sc)
		if err != nil {
			return 0, err
		}
		lo.emit(OpMov, base+int32(d), r, 0)
	}
	return base, nil
}

// --- Expressions ------------------------------------------------------------

// scalarRead returns a register holding e's value at the current point
// in the instruction stream. Scalar locals and constants (see constant)
// resolve to their live or preloaded register with no code emitted
// (reads never mutate operand registers, so sharing is safe); other
// expressions evaluate into a fresh register.
func (lo *lowerer) scalarRead(e ast.Expr, sc *lscope) (int32, error) {
	if v, ok := lo.constant(e, sc); ok {
		return lo.constReg(v), nil
	}
	if x, ok := e.(*ast.Ident); ok {
		if v, ok := sc.lookup(x.Name); ok && v.kind == lvScalar {
			return v.reg, nil
		}
	}
	dst := lo.newReg()
	if err := lo.scalarInto(e, sc, dst); err != nil {
		return 0, err
	}
	return dst, nil
}

// scalarInto evaluates e into dst. dst is always a fresh temporary
// (never a variable or constant register), so lazily-written forms like
// short-circuit logic may set it before their operands finish.
func (lo *lowerer) scalarInto(e ast.Expr, sc *lscope, dst int32) error {
	if v, ok := lo.constant(e, sc); ok {
		lo.emit(OpMov, dst, lo.constReg(v), 0)
		return nil
	}
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := sc.lookup(x.Name)
		if !ok {
			return lo.unsup("undefined-name", "%q", x.Name) // interpreter owns the error
		}
		switch v.kind {
		case lvScalar:
			lo.emit(OpMov, dst, v.reg, 0)
		case lvCell:
			lo.emit(OpLoad, dst, v.ref, 0)
		case lvView:
			// A view used as a scalar succeeds at run time iff it
			// holds exactly one element (value.num) — a dynamic
			// property registers cannot express, so the AST tier
			// keeps it.
			return lo.unsup("view-scalar", "%q", x.Name)
		}
		return nil
	case *ast.Unary:
		src, err := lo.scalarRead(x.X, sc)
		if err != nil {
			return err
		}
		if x.Op == "-" {
			lo.emit(OpNeg, dst, src, 0)
		} else {
			lo.emit(OpNot, dst, src, 0)
		}
		return nil
	case *ast.Binary:
		return lo.binary(x, sc, dst)
	case *ast.Cond:
		rc, err := lo.scalarRead(x.C, sc)
		if err != nil {
			return err
		}
		jz := lo.emit(OpJZ, -1, rc, 0)
		if err := lo.scalarInto(x.A, sc, dst); err != nil {
			return err
		}
		jmp := lo.emit(OpJmp, -1, 0, 0)
		lo.patch(jz, lo.here())
		if err := lo.scalarInto(x.B, sc, dst); err != nil {
			return err
		}
		lo.patch(jmp, lo.here())
		return nil
	case *ast.Call:
		return lo.call(x, sc, dst)
	case *ast.Index:
		v, ok := sc.lookup(x.Base)
		if !ok || v.kind != lvView {
			return lo.unsup("indexed-read", "%q", x.Base)
		}
		idx, err := lo.indexRegs(x.Base, x.Args, v, sc)
		if err != nil {
			return err
		}
		lo.emit(OpLoadAt, dst, v.ref, idx)
		return nil
	}
	return lo.unsup("unknown-expression", "%T", e)
}

func (lo *lowerer) binary(x *ast.Binary, sc *lscope, dst int32) error {
	switch x.Op {
	case "&&":
		l, err := lo.scalarRead(x.L, sc)
		if err != nil {
			return err
		}
		lo.emit(OpMov, dst, lo.constReg(0), 0)
		jz1 := lo.emit(OpJZ, -1, l, 0)
		r, err := lo.scalarRead(x.R, sc)
		if err != nil {
			return err
		}
		jz2 := lo.emit(OpJZ, -1, r, 0)
		lo.emit(OpMov, dst, lo.constReg(1), 0)
		end := lo.here()
		lo.patch(jz1, end)
		lo.patch(jz2, end)
		return nil
	case "||":
		l, err := lo.scalarRead(x.L, sc)
		if err != nil {
			return err
		}
		lo.emit(OpMov, dst, lo.constReg(1), 0)
		jnz1 := lo.emit(OpJNZ, -1, l, 0)
		r, err := lo.scalarRead(x.R, sc)
		if err != nil {
			return err
		}
		jnz2 := lo.emit(OpJNZ, -1, r, 0)
		lo.emit(OpMov, dst, lo.constReg(0), 0)
		end := lo.here()
		lo.patch(jnz1, end)
		lo.patch(jnz2, end)
		return nil
	}
	var op Op
	switch x.Op {
	case "+":
		op = OpAdd
	case "-":
		op = OpSub
	case "*":
		op = OpMul
	case "/":
		op = OpDiv
	case "%":
		op = OpMod
	case "<":
		op = OpLT
	case "<=":
		op = OpLE
	case ">":
		op = OpGT
	case ">=":
		op = OpGE
	case "==":
		op = OpEQ
	case "!=":
		op = OpNE
	default:
		return lo.unsup("operator", "%q", x.Op)
	}
	l, err := lo.scalarRead(x.L, sc)
	if err != nil {
		return err
	}
	r, err := lo.scalarRead(x.R, sc)
	if err != nil {
		return err
	}
	lo.emit(op, dst, l, r)
	return nil
}

// isBuiltin reports whether fn names one of the body-level builtins
// call knows; every other called name is a transform.
func isBuiltin(fn string) bool {
	switch fn {
	case "abs", "sqrt", "floor", "ceil", "pow", "min", "max", "sum", "dot", "copy":
		return true
	}
	return false
}

// call lowers the scalar builtins and, over view bindings, the sum and
// dot reductions. copy, other view arguments and arity mismatches
// (runtime errors in the interpreter) all fall back, as does a
// transform call: a call statement whose target is not a view reaches
// here, and Compile has rejected every other one already.
func (lo *lowerer) call(x *ast.Call, sc *lscope, dst int32) error {
	unary := func(op Op) error {
		if len(x.Args) != 1 {
			return lo.unsup("builtin-arity", "%s with %d args", x.Fn, len(x.Args))
		}
		src, err := lo.scalarRead(x.Args[0], sc)
		if err != nil {
			return err
		}
		lo.emit(op, dst, src, 0)
		return nil
	}
	switch x.Fn {
	case "abs":
		return unary(OpAbs)
	case "sqrt":
		return unary(OpSqrt)
	case "floor":
		return unary(OpFloor)
	case "ceil":
		return unary(OpCeil)
	case "pow":
		if len(x.Args) != 2 {
			return lo.unsup("builtin-arity", "pow with %d args", len(x.Args))
		}
		a, err := lo.scalarRead(x.Args[0], sc)
		if err != nil {
			return err
		}
		b, err := lo.scalarRead(x.Args[1], sc)
		if err != nil {
			return err
		}
		lo.emit(OpPow, dst, a, b)
		return nil
	case "min", "max":
		if len(x.Args) < 1 {
			return lo.unsup("builtin-arity", "%s with no args", x.Fn)
		}
		op := OpMin
		if x.Fn == "max" {
			op = OpMax
		}
		// All arguments evaluate left-to-right before the fold, as the
		// interpreter evaluates a call's arguments.
		regs := make([]int32, len(x.Args))
		for i, a := range x.Args {
			r, err := lo.scalarRead(a, sc)
			if err != nil {
				return err
			}
			regs[i] = r
		}
		if len(regs) == 1 {
			lo.emit(OpMov, dst, regs[0], 0)
			return nil
		}
		lo.emit(op, dst, regs[0], regs[1])
		for _, r := range regs[2:] {
			lo.emit(op, dst, dst, r)
		}
		return nil
	case "sum":
		// Lowers over a view binding of any rank (OpSumV walks the
		// window in matrix.Walk's row-major order). Any other argument
		// shape — cell bindings, nested calls, arity mismatches — keeps
		// the AST tier's runtime coercions and errors.
		if len(x.Args) == 1 {
			if v, ok := lo.viewArg(x.Args[0], sc); ok {
				lo.emit(OpSumV, dst, v.ref, 0)
				return nil
			}
		}
		return lo.unsup("builtin", "%s needs a view", x.Fn)
	case "dot":
		// Lowers when both arguments are statically 1-D view bindings;
		// the length check stays a runtime error inside OpDotV, like the
		// interpreter's. A 2-D view argument falls back so the AST
		// tier can raise its runtime dimension error.
		if len(x.Args) == 2 {
			a, okA := lo.viewArg(x.Args[0], sc)
			b, okB := lo.viewArg(x.Args[1], sc)
			if okA && okB && a.vnd == 1 && b.vnd == 1 {
				lo.emit(OpDotV, dst, a.ref, b.ref)
				return nil
			}
		}
		return lo.unsup("builtin", "%s needs two vector views", x.Fn)
	case "copy":
		return lo.unsup("builtin", "%s needs a view", x.Fn)
	}
	return lo.unsup("transform-call", "%q", x.Fn)
}

// callSite adds the call site of x, after those of the calls among its
// arguments, and returns its index. Every argument that is not a call
// must be a view binding.
func (lo *lowerer) callSite(x *ast.Call, sc *lscope) (int32, error) {
	var args []CallArg
	for _, a := range x.Args {
		if c, ok := a.(*ast.Call); ok {
			n, err := lo.callSite(c, sc)
			if err != nil {
				return 0, err
			}
			args = append(args, CallArg{Nested: true, N: n})
			continue
		}
		v, ok := lo.viewArg(a, sc)
		if !ok {
			return 0, lo.unsup("transform-call", "%q argument %s is not a view", x.Fn, ast.ExprString(a))
		}
		args = append(args, CallArg{N: v.ref})
	}
	lo.p.Calls = append(lo.p.Calls, CallSite{Fn: x.Fn, Args: args, Dest: -1})
	return int32(len(lo.p.Calls) - 1), nil
}

// viewArg resolves a call argument that is a bare view binding.
func (lo *lowerer) viewArg(e ast.Expr, sc *lscope) (lvar, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return lvar{}, false
	}
	v, ok := sc.lookup(id.Name)
	if !ok || v.kind != lvView {
		return lvar{}, false
	}
	return v, true
}
