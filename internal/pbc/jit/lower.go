package jit

import (
	"math"
	"slices"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/symbolic"
)

// Compile lowers one analyzed rule into a bytecode Program, or reports
// why it is outside the lowerable fragment as a typed *ir.Unsupported so
// the caller can fall back to the AST interpreter and surface the
// reason. The rule is resolved by ir.Build, which owns its scoping, ref
// shapes and call sites; Compile folds the resolved bounds at sizes
// while it allocates registers.
//
// The lowerable fragment is rules — cell or macro — whose bound
// references have integer-affine center indices (a macro rule has no
// center, so its bounds fold to constants): scalar locals, cell reads
// and writes, arithmetic, comparisons, short-circuit logic, lazy
// conditionals, if/for control flow, the scalar builtins, and — over
// bound region/row/column/whole views — the sum and dot reductions plus
// direct .cell(...) indexed reads and writes. A macro rule may also call
// transforms in statements `v = F(a1, …)`, v a bound view and each
// argument a bound view or a call of the same shape; each becomes an
// OpCall of a call site the interpreter runs. The code it emits keeps
// outputs bit-identical to the AST interpreter in internal/pbc/interp —
// evaluation order, error order, truncation, short-circuiting, eager
// view bounds checks, and lazy out-of-range cell handling included.
func Compile(res *analysis.Result, ri *analysis.RuleInfo, sizes map[string]int64) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, ir.Unsup(ri.Rule.Name(), "panic", "%v", r)
		}
	}()
	r, err := ir.Build(res, ri)
	if err != nil {
		return nil, err
	}
	// Checked before any ref is folded: a rule with a call that cannot
	// lower would otherwise allocate its refs only to be rejected there.
	for _, c := range r.Calls {
		if !c.Stmt || ri.Kind != analysis.RuleMacro {
			return nil, r.Unsup("transform-call", "%q", c.Fn)
		}
	}
	lo := &lowerer{
		res:    res,
		r:      r,
		sizes:  sizes,
		locals: make([]int32, r.Locals),
		// Every center variable and local takes a register, and most
		// rules a few more; a top-level statement lowers to a couple of
		// instructions, or a loop around more.
		regInit: make([]float64, 0, len(ri.CenterVars)+r.Locals+4),
		p: &Program{
			Name:    res.Transform.Name + "/" + ri.Rule.Name(),
			NCenter: len(ri.CenterVars),
			Code:    make([]Instr, 0, 2*len(r.Body)+4),
		},
	}
	if len(ri.CenterVars) > 0 { // a macro rule's stays nil, as decoded
		lo.p.CenterReg = make([]int32, len(ri.CenterVars))
	}
	for d, v := range ri.CenterVars {
		lo.p.CenterReg[d] = -1
		if v != "" {
			lo.p.CenterReg[d] = lo.newReg()
		}
	}
	bound := 0
	for i := range r.Refs {
		if r.Refs[i].Var != nil {
			bound++
		}
	}
	if bound > 0 { // none stays nil, as decoded
		lo.p.Refs = make([]Ref, 0, bound)
	}
	if len(r.Calls) > 0 { // every call site that got here lowers
		lo.p.Calls = make([]CallSite, 0, len(r.Calls))
	}
	for i := range r.Refs {
		lo.ref(&r.Refs[i])
	}
	lo.stmts(r.Body)
	if lo.err != nil {
		return nil, lo.err
	}
	lo.emit(OpHalt, 0, 0, 0)
	if len(lo.regInit) > 0 { // none stays nil, as decoded
		lo.p.RegInit = lo.regInit
	}
	if ri.Kind == analysis.RuleCell {
		if q, ok := lo.p.ifConverted(); ok {
			return q, nil
		}
	}
	return lo.p, nil
}

type lowerer struct {
	res     *analysis.Result
	r       *ir.Rule
	sizes   map[string]int64
	p       *Program
	err     error // the first construct that does not lower
	regInit []float64
	locals  []int32 // register of each local, by ir.Var.N
	consts  []int32 // preloaded constant registers, told apart by their bits in regInit
}

// unsup records the first construct that does not lower. Lowering goes
// on, but Compile returns only the error.
func (lo *lowerer) unsup(construct, detailFmt string, args ...any) {
	if lo.err == nil {
		lo.err = lo.r.Unsup(construct, detailFmt, args...)
	}
}

func (lo *lowerer) newReg() int32 {
	r := int32(len(lo.regInit))
	lo.regInit = append(lo.regInit, 0)
	return r
}

// constReg returns a register preloaded with v via RegInit, so constants
// cost nothing per cell. Constants are told apart by their bits, so a
// folded -0 never shares 0's register.
func (lo *lowerer) constReg(v float64) int32 {
	for _, r := range lo.consts {
		if math.Float64bits(lo.regInit[r]) == math.Float64bits(v) {
			return r
		}
	}
	r := int32(len(lo.regInit))
	lo.regInit = append(lo.regInit, v)
	lo.consts = append(lo.consts, r)
	return r
}

// cconst interns v in the OpConst pool (for registers that must be
// re-initialized at runtime, like loop guards).
func (lo *lowerer) cconst(v float64) int32 {
	for i, c := range lo.p.Consts {
		if c == v {
			return int32(i)
		}
	}
	lo.p.Consts = append(lo.p.Consts, v)
	return int32(len(lo.p.Consts) - 1)
}

func (lo *lowerer) emit(op Op, a, b, c int32) int {
	lo.p.Code = append(lo.p.Code, Instr{Op: op, A: a, B: b, C: c})
	return len(lo.p.Code) - 1
}

func (lo *lowerer) here() int32 { return int32(len(lo.p.Code)) }

func (lo *lowerer) patch(pcs []int, target int32) {
	for _, pc := range pcs {
		lo.p.Code[pc].A = target
	}
}

// reg is the register of a scalar: a local, or a center variable.
func (lo *lowerer) reg(v *ir.Var) int32 {
	if v.Kind == ir.Center {
		return lo.p.CenterReg[v.N]
	}
	return lo.locals[v.N]
}

func scalar(v *ir.Var) bool { return v.Kind == ir.Local || v.Kind == ir.Center }

// --- References -------------------------------------------------------------

// ref folds one resolved ref at the sizes into an affine Ref entry: a
// bound cell becomes a lazily range-checked single-offset RefCell ref;
// every other bound shape (whole matrix, row, column, region) a RefView
// window with the AST tier's eager per-dimension [lo,hi) bounds checks.
// An unbound ref is checked but emits nothing: the AST tier binds only
// named refs too, so its bounds are never checked at run time in any
// tier.
func (lo *lowerer) ref(ref *ir.Ref) {
	for _, se := range lo.res.Matrices[ref.Matrix].Dims {
		if _, err := se.Eval(lo.sizes); err != nil {
			lo.unsup("non-affine-dims", "matrix %q", ref.Matrix)
		}
	}
	nd := ref.Rank()
	r := Ref{Matrix: ref.Matrix, Binding: ref.Binding, ND: nd}
	if ref.Kind != ast.RegionCell {
		r.Kind, r.Collapse = RefView, ref.Kind == ast.RegionRow || ref.Kind == ast.RegionCol
	}
	if ref.Var != nil {
		r.Base = make([]int64, nd)
		if r.Kind == RefView {
			r.HiBase = make([]int64, nd)
		}
	}
	for d := range nd {
		lo.fold(ref, d, ref.Lo(d), r.Base, &r.Coeff)
		if r.Kind == RefView {
			lo.fold(ref, d, ref.Hi(d), r.HiBase, &r.HiCoeff)
		}
	}
	if ref.Var != nil {
		lo.p.Refs = append(lo.p.Refs, r)
	}
}

// fold evaluates bound b of dimension d into base[d] + Σ coeff·center,
// writing them when base is not nil. Every center coefficient must be
// an integer: flooring distributes over the center terms only when they
// contribute integers; fractional size terms fold into the base.
func (lo *lowerer) fold(ref *ir.Ref, d int, b symbolic.Affine, base []int64, coeff *[]int64) {
	nc := lo.p.NCenter
	center, size := lo.r.Split(b)
	for k, co := range center {
		switch {
		case co.IsZero():
		case !co.IsInt():
			lo.unsup("non-integer-coeff", "%s", ref.RegionRef)
		case base != nil:
			if *coeff == nil {
				*coeff = make([]int64, len(base)*nc)
			}
			(*coeff)[d*nc+k] = co.Int()
		}
	}
	v, err := size.Eval(lo.sizes)
	if err != nil {
		lo.unsup("non-affine-index", "%s", ref.RegionRef)
	}
	if base != nil {
		base[d] = v
	}
}

// --- Statements -------------------------------------------------------------

func (lo *lowerer) stmts(list []ir.Stmt) {
	for _, s := range list {
		lo.stmt(s)
	}
}

func (lo *lowerer) stmt(s ir.Stmt) {
	switch st := s.(type) {
	case *ir.Decl:
		src := lo.constReg(0)
		if st.Init != nil {
			src = lo.scalarRead(st.Init)
		}
		reg := lo.newReg()
		lo.locals[st.Var.N] = reg
		if st.Int {
			lo.emit(OpTrunc, reg, src, 0)
		} else {
			lo.emit(OpMov, reg, src, 0)
		}
	case *ir.Assign:
		lo.assign(st)
	case *ir.Store:
		// RHS first, then the indices, matching execAssign's order.
		src := lo.scalarRead(st.RHS)
		idx := lo.indexRegs(st.At)
		if st.Op == "=" {
			lo.emit(OpStoreAt, st.At.View.N, idx, src)
			return
		}
		old := lo.newReg()
		lo.emit(OpLoadAt, old, st.At.View.N, idx)
		lo.emit(arith(st.Op), old, old, src)
		lo.emit(OpStoreAt, st.At.View.N, idx, old)
	case *ir.IncDec:
		op := OpAdd
		if st.Dec {
			op = OpSub
		}
		lo.emit(op, lo.reg(st.Var), lo.reg(st.Var), lo.constReg(1))
	case *ir.If:
		jz := lo.branch(st.Cond, false)
		lo.stmts(st.Then)
		if len(st.Else) == 0 {
			lo.patch(jz, lo.here())
			return
		}
		jmp := lo.emit(OpJmp, -1, 0, 0)
		lo.patch(jz, lo.here())
		lo.stmts(st.Else)
		lo.patch([]int{jmp}, lo.here())
	case *ir.For:
		if st.Init != nil {
			lo.stmt(st.Init)
		}
		guard := lo.newReg()
		if v, k, ok := lo.countedLoop(st); ok {
			// The test moves to the bottom: the head test runs once, on
			// entry, and each iteration ends in one OpLoopLT — the
			// increment, the runaway guard and the test, in the order the
			// unrotated loop runs them. The guard's register is followed
			// by one preloaded with the bound.
			bound := lo.newReg()
			lo.regInit[bound] = k
			lo.emit(OpConst, guard, lo.cconst(0), 0)
			exit := lo.emit(OpJNLT, -1, v, bound)
			body := lo.here()
			lo.stmts(st.Body)
			lo.emit(OpLoopLT, body, v, guard)
			lo.patch([]int{exit}, lo.here())
			return
		}
		lo.emit(OpConst, guard, lo.cconst(0), 0)
		loop := lo.here()
		jz := lo.branch(st.Cond, false)
		lo.stmts(st.Body)
		if st.Post != nil {
			lo.stmt(st.Post)
		}
		lo.emit(OpLoop, loop, guard, 0)
		lo.patch(jz, lo.here())
	case *ir.Eval:
		// Bare names have no effect in the AST tier (the value is looked
		// up and discarded without an out-of-range check), so defined
		// names lower to nothing; anything else evaluates for its errors
		// only.
		if v, ok := st.X.(*ir.Var); ok {
			if _, ok := lo.sizes[v.Name]; !ok && v.Kind == ir.Size {
				lo.unsup("undefined-name", "%q", v.Name)
			}
			return
		}
		lo.scalarRead(st.X)
	default:
		lo.unsup("unknown-statement", "%T", s)
	}
}

// countedLoop matches a for loop `v < K; v++` whose bound K is
// constant and whose v is a scalar local, returning v's register and K.
func (lo *lowerer) countedLoop(st *ir.For) (int32, float64, bool) {
	cond, ok := st.Cond.(*ir.Binary)
	if !ok || cond.Op != "<" {
		return 0, 0, false
	}
	v, ok := cond.L.(*ir.Var)
	if !ok || !scalar(v) {
		return 0, 0, false
	}
	post, ok := st.Post.(*ir.IncDec)
	if !ok || post.Dec || post.Var != v {
		return 0, 0, false
	}
	k, ok := lo.constant(cond.R)
	return lo.reg(v), k, ok
}

// constant reports e's value when it is the same at every run of the
// program: a literal, a size variable (sizes are fixed per compiled
// program), or arithmetic over those that cannot fail — negation, +, -,
// *, and / or % by a non-zero divisor. Each operation is the float64
// one the vm and the AST tier perform, so a folded value is
// bit-identical to the one computed at run time.
func (lo *lowerer) constant(e ir.Expr) (float64, bool) {
	switch x := e.(type) {
	case ir.Num:
		return x.Val, true
	case *ir.Var:
		v, ok := lo.sizes[x.Name]
		return float64(v), ok && x.Kind == ir.Size
	case *ir.Unary:
		if v, ok := lo.constant(x.X); ok && x.Op == "-" {
			return -v, true
		}
	case *ir.Binary:
		l, ok := lo.constant(x.L)
		if !ok {
			return 0, false
		}
		r, ok := lo.constant(x.R)
		switch {
		case !ok:
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

// unless holds the compare-and-branch opcodes of each comparison: over
// two registers, and over two view cells.
var unless = map[string][2]Op{
	"<": {OpJNLT, OpJNLTV}, "<=": {OpJNLE, OpJNLEV}, ">": {OpJNGT, OpJNGTV},
	">=": {OpJNGE, OpJNGEV}, "==": {OpJNEQ, OpJNEQV}, "!=": {OpJNNE, OpJNNEV},
}

// branch emits a test of cond that jumps when cond's truth is jump and
// falls through otherwise, and returns the jumps to patch. && and || are
// chains of such tests over their operands, evaluated and
// short-circuited in the AST's order; a comparison is one
// compare-and-branch over its operands, read in binary's order (over a
// jmp when it must jump on true); any other condition evaluates into a
// register that OpJZ or OpJNZ tests.
func (lo *lowerer) branch(cond ir.Expr, jump bool) []int {
	x, ok := cond.(*ir.Binary)
	if ok && (x.Op == "&&" || x.Op == "||") {
		// short is the truth of the left operand that decides the whole
		// and skips the right one.
		short := x.Op == "||"
		jl := lo.branch(x.L, short)
		jr := lo.branch(x.R, jump)
		if jump == short {
			return append(jl, jr...)
		}
		lo.patch(jl, lo.here())
		return jr
	}
	var ops [2]Op
	if ok {
		ops, ok = unless[x.Op]
	}
	if ok {
		var pc int
		if refs, idx, ok := lo.twoCells(x); ok {
			pc = lo.emit(ops[1], -1, refs, idx)
		} else {
			l := lo.scalarRead(x.L)
			pc = lo.emit(ops[0], -1, l, lo.scalarRead(x.R))
		}
		if !jump {
			return []int{pc}
		}
		jmp := lo.emit(OpJmp, -1, 0, 0)
		lo.patch([]int{pc}, lo.here())
		return []int{jmp}
	}
	rc := lo.scalarRead(cond)
	op := OpJZ
	if jump {
		op = OpJNZ
	}
	return []int{lo.emit(op, -1, rc, 0)}
}

// twoCells matches a comparison of two 1-D view cells whose indices
// need no code — scalar locals or constants — and returns its refs and
// index registers packed as a two-cell compare takes them. Any field
// past 16 bits leaves the comparison to OpLoadAt, OpLoadAt and a
// compare-and-branch.
func (lo *lowerer) twoCells(x *ir.Binary) (refs, idx int32, ok bool) {
	lr, li, ok := lo.plainCell(x.L)
	if !ok {
		return 0, 0, false
	}
	rr, ri, ok := lo.plainCell(x.R)
	if !ok || max(lr, li, rr, ri) > 0xffff {
		return 0, 0, false
	}
	return pack(lr, rr), pack(li, ri), true
}

// plainCell matches `v.cell(e)` on a 1-D view v with e a scalar local or
// a constant, and returns v's ref and e's register.
func (lo *lowerer) plainCell(e ir.Expr) (ref, idx int32, ok bool) {
	x, ok := e.(*ir.Index)
	if !ok || len(x.Args) != 1 || x.View.Rank != 1 {
		return 0, 0, false
	}
	if k, ok := lo.constant(x.Args[0]); ok {
		return x.View.N, lo.constReg(k), true
	}
	v, ok := x.Args[0].(*ir.Var)
	if !ok || !scalar(v) {
		return 0, 0, false
	}
	return x.View.N, lo.reg(v), true
}

func (lo *lowerer) assign(st *ir.Assign) {
	v := st.To
	switch {
	case st.Def:
		// Implicit local definition, as in execAssign.
		src := lo.scalarRead(st.RHS)
		lo.locals[v.N] = lo.newReg()
		lo.emit(OpMov, lo.locals[v.N], src, 0)
	case v.Kind == ir.Cell:
		// RHS first, then the out-of-range check, matching the
		// interpreter's order.
		src := lo.scalarRead(st.RHS)
		if st.Op == "=" {
			lo.emit(OpStore, v.N, src, 0)
			return
		}
		old := lo.newReg()
		lo.emit(OpLoad, old, v.N, 0)
		lo.emit(arith(st.Op), old, old, src)
		lo.emit(OpStore, v.N, old, 0)
	case scalar(v):
		src := lo.scalarRead(st.RHS)
		if st.Op == "=" {
			lo.emit(OpMov, lo.reg(v), src, 0)
		} else {
			lo.emit(arith(st.Op), lo.reg(v), lo.reg(v), src)
		}
	case v.Kind == ir.View:
		// A call statement's result lands in the view; any other
		// whole-region assignment (b = a) stays on the AST.
		if c, ok := st.RHS.(*ir.Call); ok && c.Stmt {
			site := lo.callSite(c)
			lo.p.Calls[site].Dest = v.N
			lo.emit(OpCall, site, 0, 0)
			return
		}
		lo.unsup("region-assignment", "%q", v.Name)
	default:
		lo.unsup("assign-target", "%q", v.Name)
	}
}

// arith is the opcode of a compound assignment's "+=" or "-=".
func arith(op string) Op {
	if op == "-=" {
		return OpSub
	}
	return OpAdd
}

// indexRegs lowers a .cell(...) index list on a view binding into a
// block of consecutive registers (one per DSL dimension, as OpLoadAt
// and OpStoreAt expect) and returns the block's first register; a 1-D
// view's one index is read where it lies, with no copy. Index
// expressions evaluate left to right — the interpreter's order — with
// truncation and bounds checks deferred to the op itself. A rank
// mismatch is a per-cell runtime error in the interpreter, so it falls
// back rather than lowering.
func (lo *lowerer) indexRegs(x *ir.Index) int32 {
	if len(x.Args) != int(x.View.Rank) {
		lo.unsup("index-rank", "%d indices for %d-dim view %q", len(x.Args), x.View.Rank, x.View.Name)
		return 0
	}
	if len(x.Args) == 1 {
		return lo.scalarRead(x.Args[0])
	}
	base := int32(len(lo.regInit))
	for range x.Args {
		lo.newReg()
	}
	for d, a := range x.Args {
		lo.emit(OpMov, base+int32(d), lo.scalarRead(a), 0)
	}
	return base
}

// --- Expressions ------------------------------------------------------------

// scalarRead returns a register holding e's value at the current point
// in the instruction stream. Scalar locals and constants (see constant)
// resolve to their live or preloaded register with no code emitted
// (reads never mutate operand registers, so sharing is safe); other
// expressions evaluate into a fresh register.
func (lo *lowerer) scalarRead(e ir.Expr) int32 {
	if v, ok := lo.constant(e); ok {
		return lo.constReg(v)
	}
	if v, ok := e.(*ir.Var); ok && scalar(v) {
		return lo.reg(v)
	}
	dst := lo.newReg()
	lo.scalarInto(e, dst)
	return dst
}

// scalarInto evaluates e into dst. dst is always a fresh temporary
// (never a variable or constant register), so lazily-written forms like
// short-circuit logic may set it before their operands finish.
func (lo *lowerer) scalarInto(e ir.Expr, dst int32) {
	if v, ok := lo.constant(e); ok {
		lo.emit(OpMov, dst, lo.constReg(v), 0)
		return
	}
	switch x := e.(type) {
	case *ir.Var:
		switch x.Kind {
		case ir.Local, ir.Center:
			lo.emit(OpMov, dst, lo.reg(x), 0)
		case ir.Cell:
			lo.emit(OpLoad, dst, x.N, 0)
		case ir.View:
			// A view used as a scalar succeeds at run time iff it
			// holds exactly one element (value.num) — a dynamic
			// property registers cannot express, so the AST tier
			// keeps it.
			lo.unsup("view-scalar", "%q", x.Name)
		default:
			lo.unsup("undefined-name", "%q", x.Name) // interpreter owns the error
		}
	case *ir.Unary:
		op := OpNot
		if x.Op == "-" {
			op = OpNeg
		}
		lo.emit(op, dst, lo.scalarRead(x.X), 0)
	case *ir.Binary:
		lo.binary(x, dst)
	case *ir.Cond:
		jz := lo.emit(OpJZ, -1, lo.scalarRead(x.C), 0)
		lo.scalarInto(x.A, dst)
		jmp := lo.emit(OpJmp, -1, 0, 0)
		lo.patch([]int{jz}, lo.here())
		lo.scalarInto(x.B, dst)
		lo.patch([]int{jmp}, lo.here())
	case *ir.Call:
		lo.call(x, dst)
	case *ir.Index:
		idx := lo.indexRegs(x)
		lo.emit(OpLoadAt, dst, x.View.N, idx)
	default:
		lo.unsup("unknown-expression", "%T", e)
	}
}

// binaryOps are the opcodes of the binary operators other than && and
// ||, which lower to branches.
var binaryOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE, "==": OpEQ, "!=": OpNE,
}

func (lo *lowerer) binary(x *ir.Binary, dst int32) {
	if x.Op != "&&" && x.Op != "||" {
		l := lo.scalarRead(x.L)
		lo.emit(binaryOps[x.Op], dst, l, lo.scalarRead(x.R))
		return
	}
	// dst takes the value that decides the whole — 0 for &&, 1 for || —
	// and the other one only when neither operand decided it.
	short, op := 0.0, OpJZ
	if x.Op == "||" {
		short, op = 1, OpJNZ
	}
	l := lo.scalarRead(x.L)
	lo.emit(OpMov, dst, lo.constReg(short), 0)
	j1 := lo.emit(op, -1, l, 0)
	j2 := lo.emit(op, -1, lo.scalarRead(x.R), 0)
	lo.emit(OpMov, dst, lo.constReg(1-short), 0)
	lo.patch([]int{j1, j2}, lo.here())
}

// builtinOps are the opcodes of the scalar builtins.
var builtinOps = map[ir.Builtin]Op{
	ir.Abs: OpAbs, ir.Sqrt: OpSqrt, ir.Floor: OpFloor, ir.Ceil: OpCeil,
	ir.Pow: OpPow, ir.Min: OpMin, ir.Max: OpMax,
}

// call lowers the scalar builtins and, over view bindings, the sum and
// dot reductions; ir.Build has checked every builtin's arity. copy and
// other view arguments (runtime errors in the interpreter) fall back,
// as does a transform call: a call statement whose target is not a
// view reaches here, and Compile has rejected every other one already.
func (lo *lowerer) call(x *ir.Call, dst int32) {
	switch x.Builtin {
	case ir.Abs, ir.Sqrt, ir.Floor, ir.Ceil, ir.Pow, ir.Min, ir.Max:
		// All arguments evaluate left-to-right before the fold, as the
		// interpreter evaluates a call's arguments.
		var buf [4]int32
		regs := buf[:0]
		for _, a := range x.Args {
			regs = append(regs, lo.scalarRead(a))
		}
		switch op := builtinOps[x.Builtin]; {
		case x.Builtin <= ir.Ceil: // abs, sqrt, floor, ceil
			lo.emit(op, dst, regs[0], 0)
		case len(regs) == 1:
			lo.emit(OpMov, dst, regs[0], 0)
		default:
			lo.emit(op, dst, regs[0], regs[1])
			for _, r := range regs[2:] {
				lo.emit(op, dst, dst, r)
			}
		}
	case ir.Sum:
		// Lowers over a view binding of any rank (OpSumV walks the
		// window in matrix.Walk's row-major order). Any other argument
		// — a cell binding, a nested call — keeps the AST tier's runtime
		// coercions and errors.
		if v, ok := viewArg(x.Args[0]); ok {
			lo.emit(OpSumV, dst, v.N, 0)
			return
		}
		lo.unsup("builtin", "%s needs a view", x.Fn)
	case ir.Dot:
		// Lowers when both arguments are statically 1-D view bindings;
		// the length check stays a runtime error inside OpDotV, like the
		// interpreter's. A 2-D view argument falls back so the AST
		// tier can raise its runtime dimension error.
		a, okA := viewArg(x.Args[0])
		b, okB := viewArg(x.Args[1])
		if okA && okB && a.Rank == 1 && b.Rank == 1 {
			lo.emit(OpDotV, dst, a.N, b.N)
			return
		}
		lo.unsup("builtin", "%s needs two vector views", x.Fn)
	case ir.Copy:
		lo.unsup("builtin", "%s needs a view", x.Fn)
	default:
		lo.unsup("transform-call", "%q", x.Fn)
	}
}

// callSite adds the call site of x, after those of the calls among its
// arguments, and returns its index. Every argument that is not a call
// must be a view binding.
func (lo *lowerer) callSite(x *ir.Call) int32 {
	var args []CallArg // nil with no arguments, as decoded
	if len(x.Args) > 0 {
		args = make([]CallArg, 0, len(x.Args))
	}
	for _, a := range x.Args {
		if c, ok := a.(*ir.Call); ok {
			args = append(args, CallArg{Nested: true, N: lo.callSite(c)})
		} else if v, ok := viewArg(a); ok {
			args = append(args, CallArg{N: v.N})
		} else {
			lo.unsup("transform-call", "%q argument %s is not a view", x.Fn, a.(*ir.Var).Name)
		}
	}
	lo.p.Calls = append(lo.p.Calls, CallSite{Fn: x.Fn, Args: args, Dest: -1})
	return int32(len(lo.p.Calls) - 1)
}

// viewArg resolves an argument that is a bare view binding.
func viewArg(e ir.Expr) (*ir.Var, bool) {
	v, ok := e.(*ir.Var)
	return v, ok && v.Kind == ir.View
}

// --- If-conversion ----------------------------------------------------------

// ifConverted rewrites a program whose only branches are ifs, with or
// without an else, over arms of pure register ops (armOp) into
// straight-line code, and reports the rewrite only when it is a lane
// body (laneBody) that writes no center register: one whose rows run
// across their lanes. Compile takes it for cell rules; every other rule
// keeps its branches, so its bytecode is what it was.
//
// Each if becomes its condition in a register, then arm, else arm and
// one OpSel per register the then arm leaves for code outside it. The
// condition is the register an OpJZ tests, or a compare-and-branch's
// own comparison in a new register: OpJNGT jumps to the else arm
// exactly where OpGT yields 0, NaN included, and OpSel keeps the then
// arm's value exactly where its condition is not 0. The then arm writes
// the registers it leaves into new ones, so the else arm still reads
// what the branch saw; the else arm may leave no register the then arm
// does not, and neither arm may write the condition. Both arms now run
// at every cell, which only pure ops may: nothing in them can fail or
// touch memory.
func (p *Program) ifConverted() (*Program, bool) {
	code, nregs := p.Code, len(p.RegInit)
	if nregs > 64 || !slices.ContainsFunc(code, func(in Instr) bool { return in.Op == OpJZ || in.Op >= OpJNLT && in.Op <= OpJNNE }) {
		return nil, false
	}
	// touched is every register code outside [lo, hi) reads or writes.
	touched := func(lo, hi int) (m uint64) {
		for pc, in := range code {
			if pc < lo || pc >= hi {
				m |= regMask(in)
			}
		}
		return m
	}
	out := make([]Instr, 0, len(code)+4)
	for pc := 0; pc < len(code); {
		in := code[pc]
		cond := in.B
		switch _, _, lane := laneRegs(in); {
		case lane, in.Op == OpHalt:
			out = append(out, in)
			pc++
			continue
		case in.Op >= OpJNLT && in.Op <= OpJNNE:
			cond = int32(nregs)
			nregs++
			out = append(out, Instr{in.Op - OpJNLT + OpLT, cond, in.B, in.C})
		case in.Op != OpJZ:
			return nil, false
		}
		// e starts the else arm, or joins an if with no else.
		e := int(in.A)
		if e <= pc || e >= len(code) {
			return nil, false
		}
		then, els, join := code[pc+1:e], code[e:e], e
		if e-1 > pc && code[e-1].Op == OpJmp {
			join = int(code[e-1].A)
			if join < e || join >= len(code) {
				return nil, false
			}
			then, els = code[pc+1:e-1], code[e:join]
		}
		var wThen, wElse uint64
		for _, o := range then {
			if !armOp(o.Op) {
				return nil, false
			}
			wThen |= 1 << o.A
		}
		for _, o := range els {
			if !armOp(o.Op) {
				return nil, false
			}
			wElse |= 1 << o.A
		}
		left := wThen & touched(pc+1, pc+1+len(then))
		if wElse&touched(e, join)&^left != 0 || in.Op == OpJZ && (wThen|wElse)>>cond&1 != 0 {
			return nil, false
		}
		var ren [64]int32 // a left register's new one; 0 until the then arm writes it
		get := func(r int32) int32 {
			if ren[r] != 0 {
				return ren[r]
			}
			return r
		}
		for _, o := range then {
			_, r, _ := laneRegs(o)
			o.B = get(o.B)
			if r[1] >= 0 {
				o.C = get(o.C)
			}
			if left>>o.A&1 != 0 {
				if ren[o.A] == 0 {
					ren[o.A] = int32(nregs)
					nregs++
				}
				o.A = ren[o.A]
			}
			out = append(out, o)
		}
		out = append(out, els...)
		for r := range int32(64) {
			if left>>r&1 != 0 {
				out = append(out, Instr{OpSel, r, cond, ren[r]})
			}
		}
		pc = join
	}
	q := *p
	q.Code, q.RegInit = out, append(p.RegInit[:len(p.RegInit):len(p.RegInit)], make([]float64, nregs-len(p.RegInit))...)
	if ok, _, _ := q.laneBody(); !ok || q.writesCenter() {
		return nil, false
	}
	return &q, true
}

// armOp reports whether an if-converted arm may hold op: a lane op that
// reads and writes registers only, so both arms can run at every cell.
// sel is left out, and with it nested ifs: it reads the register it
// writes, which the then arm's renaming would have to copy first.
func armOp(op Op) bool {
	switch op {
	case OpLoad, OpStore, OpDotV, OpSel:
		return false
	}
	_, _, ok := laneRegs(Instr{Op: op})
	return ok
}

// regMask is the set of registers that in reads or writes, for a lane op
// or a branch; a register past 63 shifts out of it.
func regMask(in Instr) (m uint64) {
	w, r, _ := laneRegs(in)
	switch {
	case in.Op == OpJZ:
		r[0] = in.B
	case in.Op >= OpJNLT && in.Op <= OpJNNE:
		r[0], r[1] = in.B, in.C
	}
	for _, x := range [4]int32{w, r[0], r[1], r[2]} {
		if x >= 0 {
			m |= 1 << x
		}
	}
	return m
}
