// Package jit is the compiled execution tier of the PetaBricks runtime:
// a register-based flat-bytecode VM plus a lowering pass (lower.go)
// that compiles rule bodies into contiguous instruction streams the way
// wazero's compiler engine sits beside its interpreter. It takes cell
// rules and macro rules alike, including a macro rule's transform calls:
// each `v = F(…)` statement is one OpCall, whose call site the
// interpreter runs through the frame's Caller.
//
// A jit program is a single []Instr walked by one dispatch switch: no
// interface calls but OpCall's, no per-cell slot rebinding, and zero
// allocations steady-state. Control flow is lowered to few, fat ops: a
// condition that is one comparison is one compare-and-branch, && and ||
// are chains of them, and a comparison of two 1-D view cells is one
// two-cell compare (OpJNLTV..OpJNNEV); a counted loop `v < K; v++` with
// a constant bound is rotated, so each iteration ends in one OpLoopLT
// (increment, runaway guard, test), and any other loop's back edge and
// guard are one OpLoop; arithmetic over literals and sizes is folded
// into preloaded registers; and a 1-D view's .cell(i) is indexed inline.
// Matrix cell bindings are pre-resolved to base+stride affine forms per
// (transform, sizes, config) at compile time. The interpreter hands the
// vm whole boxes of cells (RunBox): every binding is range-checked once
// over the box by interval arithmetic, and each further cell only adds
// a per-ref constant to each flat offset, as the paper's compiler emits
// a loop nest per applicable region. Each row of such a box is one call
// of the dispatch loop: OpHalt mid-row steps the offsets and the row's
// center register to the next cell and jumps back to pc 0. A row that
// carries nothing from one cell to the next — a straight-line body of
// pure ops that reads no register before writing it, over refs and dot
// product windows whose cells no other lane of the row stores — is a
// map, and runs as one (lanes.go): each instruction once across a chunk
// of the row's cells, with registers widened to one value per cell,
// outside the dispatch loop. A cell rule's if/else over pure arms is
// lowered straight-line when that makes it such a map: a compare, both
// arms, then OpSel. RunCell binds a single cell on its own; a macro
// rule, which has no center, is one RunCell(nil).
//
// The tier is semantics-preserving, never semantics-extending: rules
// outside the lowerable fragment fall back to the AST interpreter with
// a typed per-rule reason, so the jit only ever changes performance,
// never which programs run.
package jit

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
)

// Op is a bytecode opcode. The zero value is OpHalt so an accidentally
// zeroed instruction stops execution instead of corrupting state.
type Op uint8

const (
	// OpHalt ends the program (normal completion), or, mid-row of a box
	// walk, the cell: the walk steps to the row's next cell and runs it
	// from pc 0.
	OpHalt Op = iota
	// OpConst sets reg A from the constant pool: r[A] = consts[B].
	OpConst
	// OpMov copies registers: r[A] = r[B].
	OpMov
	// Arithmetic: r[A] = r[B] <op> r[C].
	OpAdd
	OpSub
	OpMul
	// OpDiv errors on a zero divisor, matching the interpreter.
	OpDiv
	// OpMod is math.Mod and errors on a zero divisor.
	OpMod
	// OpNeg: r[A] = -r[B].
	OpNeg
	// OpNot: r[A] = 1 if r[B] == 0 else 0.
	OpNot
	// Comparisons: r[A] = 1/0 from r[B] <op> r[C].
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	// OpTrunc: r[A] = math.Trunc(r[B]) (int declarations).
	OpTrunc
	// Scalar builtins.
	OpAbs
	OpSqrt
	OpFloor
	OpCeil
	OpMin // r[A] = math.Min(r[B], r[C])
	OpMax // r[A] = math.Max(r[B], r[C])
	OpPow // r[A] = math.Pow(r[B], r[C])
	// OpLoad reads the cell ref B's current cell: r[A] = data[off].
	// Errors if the cell is out of range (off < 0), matching the lazy
	// cell-access semantics of the interpreter tiers.
	OpLoad
	// OpStore writes r[B] into cell ref A's current cell.
	OpStore
	// OpJmp jumps to pc A unconditionally.
	OpJmp
	// OpJZ jumps to pc A when r[B] == 0; OpJNZ when r[B] != 0.
	OpJZ
	OpJNZ
	// OpLoop is a for loop's back edge: it increments the loop counter
	// r[B], errors past the interpreter's runaway-loop bound (10^8
	// iterations; exact in float64 far beyond that), and jumps to pc A.
	OpLoop
	// Compare-and-branch, for an if or for condition that is one
	// comparison: jump to pc A unless r[B] <op> r[C]. Being a negation,
	// each jumps when either operand is NaN, as OpJZ does on the 0 an
	// OpLT..OpNE comparison of NaN yields.
	OpJNLT
	OpJNLE
	OpJNGT
	OpJNGE
	OpJNEQ
	OpJNNE
	// View ops. They operate on refs of Kind RefView, whose window
	// (base offset, row-major extents and strides) was resolved and
	// eagerly bounds-checked by bindView before the body runs.
	//
	// OpSumV: r[A] = row-major sum of every element of view ref B,
	// the same element order (last index fastest) and accumulation
	// (acc starts at 0, one add per element) as matrix.Walk under the
	// interpreter's sum builtin, so results are bit-identical.
	OpSumV
	// OpDotV: r[A] = dot product of 1-D view refs B and C, ascending,
	// acc += b[k]*c[k]; errors on a length mismatch like the
	// interpreter's dot builtin.
	OpDotV
	// OpLoadAt reads one element of view ref B by explicit indices:
	// registers C..C+nd-1 hold the DSL-order indices (a 1-D view's one
	// index is r[C], whichever register computed it); each is
	// truncated and bounds-checked against the view in row-major
	// order, panicking exactly like matrix.Get on violation (an
	// explicit bad index is a program bug in every tier, not a lazy
	// cell miss). r[A] = element.
	OpLoadAt
	// OpStoreAt writes r[C] into view ref A at the DSL-order indices
	// held in registers B..B+nd-1, with OpLoadAt's checking.
	OpStoreAt
	// OpCall runs call site A (Program.Calls) through the frame's
	// Caller: the transform call of a statement `v = F(…)`, whose
	// result lands in the view ref the site names.
	OpCall
	// OpLoopLT is the back edge of a rotated counted loop, `for (…; v <
	// K; v++)` with K constant: it increments the loop variable r[B],
	// then the guard r[C], errors past the runaway bound as OpLoop does,
	// and jumps to pc A while r[B] < r[C+1], the bound preloaded one
	// register above the guard. Post, guard, test: the order OpLoop and
	// the head test keep, so a NaN loop variable exits.
	OpLoopLT
	// Two-cell compare-and-branch, for a comparison of two 1-D view
	// cells indexed by registers, `x.cell(i) <= y.cell(j)`: jump to pc A
	// unless x[r[i]] <op> y[r[j]], NaN jumping as in OpJNLT..OpJNNE. B
	// packs the view refs and C the index registers, 16 bits apiece, the
	// left side's in the low half. Both indices in range run inline;
	// otherwise cellsAt reads the cells as two OpLoadAt would, the left
	// first, panicking with matrix.Get's text.
	OpJNLTV
	OpJNLEV
	OpJNGTV
	OpJNGEV
	OpJNEQV
	OpJNNEV
	// OpSel is a conditional move, the join of an if/else that the
	// lowering converted to straight-line code (ifConverted): r[A] = r[C]
	// when r[B] != 0, else r[A] is left as it is. r[B] != 0 is OpJZ's
	// test, so a NaN condition picks r[C], the arm a fall-through past
	// OpJZ takes.
	OpSel
)

var opNames = [...]string{
	OpHalt: "halt", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpNot: "not",
	OpLT: "lt", OpLE: "le", OpGT: "gt", OpGE: "ge", OpEQ: "eq", OpNE: "ne",
	OpTrunc: "trunc", OpAbs: "abs", OpSqrt: "sqrt", OpFloor: "floor", OpCeil: "ceil",
	OpMin: "min", OpMax: "max", OpPow: "pow",
	OpLoad: "load", OpStore: "store",
	OpJmp: "jmp", OpJZ: "jz", OpJNZ: "jnz", OpLoop: "loop",
	OpJNLT: "jnlt", OpJNLE: "jnle", OpJNGT: "jngt", OpJNGE: "jnge", OpJNEQ: "jneq", OpJNNE: "jnne",
	OpSumV: "sumv", OpDotV: "dotv", OpLoadAt: "loadat", OpStoreAt: "storeat",
	OpCall: "call", OpLoopLT: "looplt",
	OpJNLTV: "jnltv", OpJNLEV: "jnlev", OpJNGTV: "jngtv", OpJNGEV: "jngev", OpJNEQV: "jneqv", OpJNNEV: "jnnev",
	OpSel: "sel",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// twoCells reports whether o is a two-cell compare-and-branch, whose B
// and C operands each pack two 16-bit fields.
func (o Op) twoCells() bool { return o >= OpJNLTV && o <= OpJNNEV }

// Instr is one fixed-width instruction; A is the destination register
// (or jump target / ref index), B and C are operands.
type Instr struct {
	Op      Op
	A, B, C int32
}

// pack puts two 16-bit fields into one operand, l in the low half; low
// and high take them out again.
func pack(l, h int32) int32 { return int32(uint32(l) | uint32(h)<<16) }
func low(v int32) int32     { return int32(uint16(v)) }
func high(v int32) int32    { return int32(uint32(v) >> 16) }

// RefKind distinguishes single-cell refs from bound region views.
type RefKind uint8

const (
	// RefCell is a single-cell binding resolved to one flat offset per
	// center (lazily range-checked: only errors if the body reads it).
	RefCell RefKind = iota
	// RefView is a bound region/row/column/whole-matrix view: a
	// [lo,hi) window per dimension, eagerly bounds-checked at every
	// cell exactly like the AST tier's view binding.
	RefView
)

// Ref is one bound reference of a rule, with its per-dimension affine
// index forms folded at compile time: bound d of the ref is
// Base[d] + Σ_k Coeff[d*NCenter+k] · center[k], with size-variable
// contributions already evaluated into Base. For RefCell that is the
// cell's coordinate; for RefView it is the window's inclusive lower
// bound, with HiBase/HiCoeff giving the exclusive upper bound the same
// way.
type Ref struct {
	Matrix  string
	Binding string
	ND      int
	Base    []int64
	Coeff   []int64 // len ND*NCenter; nil when no center dependence
	Kind    RefKind
	HiBase  []int64 // RefView only: upper-bound bases, len ND
	HiCoeff []int64 // RefView only: len ND*NCenter; nil when constant
	// Collapse mirrors the AST tier's row/column handling: after
	// binding, unit dimensions are dropped (interp's viewOf), which for
	// the only emitted shape — a 2-D row or column view — always leaves
	// exactly one dimension.
	Collapse bool
}

// CallSite is one transform call of a rule body. The callee is named,
// not resolved: a program never captures engine state, so a callee
// resolves at run time, as in the AST tier. A statement's site
// (`v = F(…)`, run by OpCall) has the view ref of v as Dest; a nested
// site — a call that is itself an argument — has Dest -1, and its
// result lives only until its consumer returns.
type CallSite struct {
	Fn   string
	Args []CallArg
	Dest int32
}

// CallArg is one argument of a call site: view ref N, or, when Nested,
// the result of call site N, which precedes its consumer in
// Program.Calls.
type CallArg struct {
	Nested bool
	N      int32
}

// Program is one rule body lowered to bytecode. It is immutable after
// compilation and shared across frames, invocations, and WithConfig
// views; all mutable state lives in Frame.
type Program struct {
	Name string // "Transform/rule k" for diagnostics
	Code []Instr
	// Consts is the OpConst pool (runtime re-initialization, e.g. loop
	// guards); RegInit is the initial register file, with literal and
	// folded constants preloaded so steady-state cells never re-load
	// them.
	Consts    []float64
	RegInit   []float64
	NCenter   int
	CenterReg []int32 // register per center dimension; -1 unnamed
	Refs      []Ref
	Calls     []CallSite // OpCall sites and the nested calls they consume
}

// Disassemble renders everything a frame runs — the center registers,
// the initial register file, the constant pool, each ref's kind, affine
// bounds and collapse, each call site, then the instruction stream —
// deterministically, for diagnostics and golden tests.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "center %v\nreginit %v\nconsts %v\n", p.CenterReg, p.RegInit, p.Consts)
	for i, r := range p.Refs {
		kind := "cell"
		if r.Kind == RefView {
			kind = "view"
		}
		fmt.Fprintf(&b, "ref %d %s %s.%s nd=%d base=%v coeff=%v", i, kind, r.Matrix, r.Binding, r.ND, r.Base, r.Coeff)
		if r.Kind == RefView {
			fmt.Fprintf(&b, " hibase=%v hicoeff=%v", r.HiBase, r.HiCoeff)
		}
		if r.Collapse {
			b.WriteString(" collapse")
		}
		b.WriteByte('\n')
	}
	for i, c := range p.Calls {
		fmt.Fprintf(&b, "call %d %s(", i, c.Fn)
		for k, a := range c.Args {
			if k > 0 {
				b.WriteString(", ")
			}
			if a.Nested {
				fmt.Fprintf(&b, "call %d", a.N)
			} else {
				fmt.Fprintf(&b, "ref %d", a.N)
			}
		}
		b.WriteByte(')')
		if c.Dest >= 0 {
			fmt.Fprintf(&b, " -> ref %d", c.Dest)
		}
		b.WriteByte('\n')
	}
	for pc, in := range p.Code {
		if in.Op.twoCells() {
			// The packed operands as left:right pairs.
			fmt.Fprintf(&b, "%3d: %-6s %d %d:%d %d:%d\n", pc, in.Op, in.A, low(in.B), high(in.B), low(in.C), high(in.C))
			continue
		}
		fmt.Fprintf(&b, "%3d: %-6s %d %d %d\n", pc, in.Op, in.A, in.B, in.C)
	}
	return b.String()
}

// refDim is the specialized per-dimension index form used when a
// dimension depends on at most one center variable (the overwhelmingly
// common shape): the cell's coordinate is base + coeff·center[k], valid
// while 0 ≤ coord < size. k, coeff, base come from the program; size
// and stride from the bound matrix view.
type refDim struct {
	k      int32 // center-var index feeding this dim; -1 constant
	coeff  int64
	base   int64
	size   int64
	stride int64
}

// refBind is a frame's live binding of one ref: the raw backing slice
// plus DSL-dimension-order strides and sizes resolved from the bound
// matrix view at frame-bind time (inputs may be arbitrary strided
// views, so none of this can be folded at compile time).
type refBind struct {
	data    []float64
	dims    []refDim // single-center-var fast form; nil → general/view form
	strides []int
	sizes   []int64
	base    int
	// off is the flat offset of the current cell (-1: out of range), or
	// of a view's window origin; carry[j] is how far it moves when the
	// box RunBox is walking advances along its j-th moving dimension;
	// dext is how far a rank-1 view's extent moves at each cell of a
	// walked row (boxBinds), whose walk keeps vext at the row's first
	// cell.
	off   int
	carry [maxBoxMoves]int
	dext  int64
	// RefView state, rebuilt by bindView: the window's post-collapse
	// rank and row-major extents/strides.
	vnd     int
	vext    []int64
	vstride []int
}

// Caller runs the call sites of a frame's program. The interpreter
// installs one on every frame whose program has any: the vm never
// resolves or runs a transform itself.
type Caller interface {
	Call(site int) error
}

// Frame is the per-worker execution state of one program: the register
// file and the resolved cell refs. Frames are pooled by the interpreter
// and rebound per invocation; RunCell and RunBox allocate nothing, bar
// what a Caller does.
type Frame struct {
	prog   *Program
	regs   []float64
	refs   []refBind
	caller Caller
	// carryOf is the box shape — moving dimensions, directions, extents —
	// the refs' carries were last computed for, so a frame walking tile
	// after tile of one shape computes them once; carryN < 0: none yet,
	// or a ref was rebound since.
	carryOf [maxBoxMoves]boxMove
	carryN  int
	// rowAt is the center coordinate of walk's current row, which
	// nextCell steps, and rowReg its register (-1: none), cached so the
	// per-cell step reads no Program field. perCell: the body may write
	// a center register (writesCenter), so RunBox runs it cell by cell
	// through RunCell. lanes: the body may run a row across its lanes,
	// writing the written registers and sharing the uniform ones among
	// the lanes (laneBody); apart: rowApart's verdict for the carries'
	// box shape; views: a lane body holds an OpSumV or OpDotV, whose
	// windows windowsFit checks at every row; grows: some view's extent
	// changes along the carries' rows (dext), so a row that does not
	// run across its lanes runs cell by cell.
	rowAt            int64
	rowReg           int32
	perCell          bool
	lanes            bool
	apart            uint8
	views            bool
	grows            bool
	written, uniform uint64
}

// NewFrame allocates a frame; bind every ref before RunCell or RunBox.
func (p *Program) NewFrame() *Frame {
	f := &Frame{
		prog:    p,
		regs:    append([]float64(nil), p.RegInit...),
		refs:    make([]refBind, len(p.Refs)),
		carryN:  -1,
		perCell: p.writesCenter(),
	}
	f.lanes, f.written, f.uniform = p.laneBody()
	f.views = f.lanes && slices.ContainsFunc(p.Code, func(in Instr) bool { return in.Op == OpSumV || in.Op == OpDotV })
	for i := range p.Refs {
		r := &p.Refs[i]
		f.refs[i].strides = make([]int, r.ND)
		f.refs[i].sizes = make([]int64, r.ND)
		if r.Kind == RefView {
			f.refs[i].vext = make([]int64, r.ND)
			f.refs[i].vstride = make([]int, r.ND)
		} else {
			f.refs[i].dims = fastDims(r, p.NCenter)
		}
	}
	return f
}

// writesCenter reports whether some instruction may write a register
// that holds a center coordinate. walk's row step resets only the row's
// own center register, so RunBox runs such a body cell by cell through
// RunCell, which resets them all. It reads nothing but Code and
// CenterReg, so a compiled program and its decoded copy agree.
func (p *Program) writesCenter() bool {
	center := func(r int32) bool { return r >= 0 && slices.Contains(p.CenterReg, r) }
	for _, in := range p.Code {
		var w bool
		switch in.Op {
		case OpHalt, OpStore, OpStoreAt, OpCall, OpJmp, OpJZ, OpJNZ,
			OpJNLT, OpJNLE, OpJNGT, OpJNGE, OpJNEQ, OpJNNE,
			OpJNLTV, OpJNLEV, OpJNGTV, OpJNGEV, OpJNEQV, OpJNNEV:
			// No register written.
		case OpLoop:
			w = center(in.B)
		case OpLoopLT:
			w = center(in.B) || center(in.C)
		default:
			w = center(in.A)
		}
		if w {
			return true
		}
	}
	return false
}

// fastDims derives the single-center-var per-dimension form of a ref,
// or nil when some dimension mixes several center variables (the
// general affine path handles those).
func fastDims(r *Ref, nc int) []refDim {
	dims := make([]refDim, r.ND)
	for d := 0; d < r.ND; d++ {
		dm := &dims[d]
		dm.k = -1
		dm.base = r.Base[d]
		if r.Coeff == nil {
			continue
		}
		for k, co := range r.Coeff[d*nc : (d+1)*nc] {
			if co == 0 {
				continue
			}
			if dm.k >= 0 {
				return nil
			}
			dm.k, dm.coeff = int32(k), co
		}
	}
	return dims
}

// BindMatrix (re)binds ref i to a matrix view, reversing row-major
// metadata into DSL dimension order once per invocation.
func (f *Frame) BindMatrix(i int, m *matrix.Matrix) {
	rb := &f.refs[i]
	nd := f.prog.Refs[i].ND
	rb.data = m.Backing()
	rb.base = m.Offset()
	f.carryN = -1
	for d := 0; d < nd; d++ {
		rd := nd - 1 - d
		rb.strides[d] = m.Stride(rd)
		rb.sizes[d] = int64(m.Size(rd))
		if rb.dims != nil {
			rb.dims[d].stride = int64(m.Stride(rd))
			rb.dims[d].size = int64(m.Size(rd))
		}
	}
}

// SetCaller installs the Caller that runs the program's OpCall sites.
func (f *Frame) SetCaller(c Caller) { f.caller = c }

// Caller returns the installed Caller, nil if none.
func (f *Frame) Caller() Caller { return f.caller }

// View configures out as view ref i's window as last bound — the
// matrix view the AST tier binds the same name to — and returns it.
func (f *Frame) View(i int32, out *matrix.Matrix) *matrix.Matrix {
	rb := &f.refs[i]
	out.SetWindow(rb.data, rb.off, rb.vext[:rb.vnd], rb.vstride[:rb.vnd])
	return out
}

// Unbind drops every ref's backing slice, so a pooled frame does not
// keep its last invocation's matrices alive. Rebind before RunCell.
func (f *Frame) Unbind() {
	for i := range f.refs {
		f.refs[i].data = nil
	}
}

var (
	errDivZero = fmt.Errorf("jit: division by zero")
	errModZero = fmt.Errorf("jit: modulo by zero")
	errRunaway = fmt.Errorf("jit: runaway for loop")
	errDotLen  = fmt.Errorf("jit: dot needs equal-length vectors")
)

func (f *Frame) oob(ref int32) error {
	return fmt.Errorf("jit: %s: cell binding %q out of range", f.prog.Name, f.prog.Refs[ref].Binding)
}

// RunCell resolves every ref at the given center and executes the
// program. A cell ref whose index falls outside its matrix gets
// off = -1 and only errors if the body touches it; a view ref's window
// is eagerly range-checked here, erroring before any of the body runs —
// both matching the AST tier's ref binding, in the same ref order (To
// bindings before From). center may be nil when NCenter is 0.
func (f *Frame) RunCell(center []int64) error {
	if err := f.bind(center); err != nil {
		return err
	}
	return f.run(0)
}

// setCenter loads every named center register from center.
func (f *Frame) setCenter(center []int64) {
	for d, r := range f.prog.CenterReg {
		if r >= 0 {
			f.regs[r] = float64(center[d])
		}
	}
}

// bind sets the center registers and resolves every ref at center.
func (f *Frame) bind(center []int64) error {
	p := f.prog
	f.setCenter(center)
	nc := p.NCenter
	for i := range f.refs {
		rb := &f.refs[i]
		if rb.dims != nil {
			off := int64(rb.base)
			for j := range rb.dims {
				dm := &rb.dims[j]
				v := dm.base
				if dm.k >= 0 {
					v += dm.coeff * center[dm.k]
				}
				if uint64(v) >= uint64(dm.size) {
					off = -1
					break
				}
				off += v * dm.stride
			}
			rb.off = int(off)
			continue
		}
		r := &p.Refs[i]
		if r.Kind == RefView {
			if err := f.bindView(r, rb, center); err != nil {
				return err
			}
			continue
		}
		off := rb.base
		for d := 0; d < r.ND; d++ {
			v := r.Base[d]
			if r.Coeff != nil {
				for k, co := range r.Coeff[d*nc : (d+1)*nc] {
					if co != 0 {
						v += co * center[k]
					}
				}
			}
			if v < 0 || v >= rb.sizes[d] {
				off = -1
				break
			}
			off += int(v) * rb.strides[d]
		}
		rb.off = off
	}
	return nil
}

// maxBoxMoves is the most dimensions along which RunBox steps a box's
// addresses by constants; a box that moves along more is walked row by
// row, which no rule of rank ≤ 4 ever needs.
const maxBoxMoves = 4

// boxMove is one dimension a box walk moves along: the center
// coordinate, its direction, its start and its extent.
type boxMove struct {
	k     int
	dir   int64
	start int64
	ext   int64
}

// RunBox runs the program at every center of the box b (one [lo,hi)
// interval per center coordinate), walked in order: order lists the
// box's dimensions innermost first, each with its direction, so the
// flat walk is dimension 0 innermost, ascending, and a lexicographic
// walk is its lex order reversed. It is RunCell at each of those
// centers in turn — the same outputs, the same error at the same cell,
// the same cells written before it — and center is left at the last
// cell visited. A box with an empty interval visits no cell; a box of
// rank 0 is one cell.
//
// Every coordinate and view bound is affine in the center, so interval
// arithmetic over the box gives each bound's extremes. When every cell
// ref is in range at those extremes and every view is in range there
// with a fixed extent (equal lo and hi coefficients on every dimension
// the box moves along, so its shape and collapse never change; a rank-1
// view of a lane body may grow or shrink along the row, boxBinds), the
// refs are bound once at the first cell, and every further cell only
// adds a per-ref constant to each offset: each row along the innermost
// moving dimension is one call of the dispatch loop, whose halt steps
// to the row's next cell, or, when the body and the row's addresses let
// it (laneable), one pass of each instruction across the row's cells;
// a row with a growing view that may not run so runs cell by cell.
// Otherwise — a lazily tolerated cell miss, or a view that errors or
// changes shape somewhere in the box — the box splits into rows along
// its innermost moving dimension, and a row that still does not bind
// runs cell by cell through RunCell, as does every cell of a body that
// may write a center register.
func (f *Frame) RunBox(center []int64, b [][2]int64, order []analysis.LexDim) error {
	for _, iv := range b {
		if iv[1] <= iv[0] {
			return nil
		}
	}
	return f.runBox(center, b, order)
}

// runBox walks the sub-box of b spanned by order's dimensions from their
// start corner, with every other coordinate held at center.
func (f *Frame) runBox(center []int64, b [][2]int64, order []analysis.LexDim) error {
	var mv [maxBoxMoves]boxMove
	n, row := 0, -1 // moving dimensions; order index of the innermost one
	for j, o := range order {
		m := boxMove{k: o.Dim, dir: 1, start: o.First(b), ext: b[o.Dim][1] - b[o.Dim][0]}
		if o.Dir < 0 {
			m.dir = -1
		}
		center[m.k] = m.start
		if m.ext == 1 {
			continue
		}
		if row < 0 {
			row = j
		}
		if n < len(mv) {
			mv[n] = m
		}
		n++
	}
	switch {
	case n == 0:
		return f.RunCell(center)
	case n <= len(mv) && !f.perCell && f.boxBinds(center, mv[:n]):
		return f.walk(center, mv[:n])
	case n == 1:
		m := mv[0]
		for c := int64(1); ; c++ {
			if err := f.RunCell(center); err != nil {
				return err
			}
			if c == m.ext {
				return nil
			}
			center[m.k] += m.dir
		}
	}
	// Rows along the innermost moving dimension, the outer dimensions
	// counted like an odometer that stops on the box's last row.
	inner, outer := order[:row+1], order[row+1:]
	for {
		if err := f.runBox(center, b, inner); err != nil {
			return err
		}
		j := 0
		for j < len(outer) && center[outer[j].Dim] == outer[j].Last(b) {
			j++
		}
		if j == len(outer) {
			return nil
		}
		for _, o := range outer[:j] {
			center[o.Dim] = o.First(b)
		}
		if outer[j].Dir < 0 {
			center[outer[j].Dim]--
		} else {
			center[outer[j].Dim]++
		}
	}
}

// boxBinds reports whether every ref binds everywhere in the box that mv
// moves through from center: each cell coordinate in [0, size), and each
// view window in range with equal lo and hi coefficients on every moving
// dimension, bar a rank-1 view of a lane body, whose coefficients may
// differ along the row (mv[0]): its window grows, shrinks or slides
// along the row, and row runs such a row across its lanes or cell by
// cell, never through run, whose halt step keeps every extent. Its
// extent is affine in the row's coordinate alone, so lo ≤ hi at both
// end cells of the row holds at every cell of the box.
func (f *Frame) boxBinds(center []int64, mv []boxMove) bool {
	p := f.prog
	nc := p.NCenter
	for i := range p.Refs {
		if dims := f.refs[i].dims; dims != nil {
			// A cell ref whose every coordinate follows at most one
			// center variable: each coordinate's range is that
			// variable's.
			for j := range dims {
				dm := &dims[j]
				v, span := dm.base, int64(0)
				if dm.k >= 0 {
					v += dm.coeff * center[dm.k]
					for _, m := range mv {
						if m.k == int(dm.k) {
							span = dm.coeff * m.dir * (m.ext - 1)
						}
					}
				}
				if uint64(v) >= uint64(dm.size) || uint64(v+span) >= uint64(dm.size) {
					return false
				}
			}
			continue
		}
		r := &p.Refs[i]
		sizes := f.refs[i].sizes
		for d := 0; d < r.ND; d++ {
			lo, loMin, loMax := boundRange(r.Base[d], r.Coeff, d*nc, nc, center, mv)
			if r.Kind == RefCell {
				if loMin < 0 || loMax >= sizes[d] {
					return false
				}
				continue
			}
			var grow int64 // hi-lo's change over the row
			for j, m := range mv {
				if dc := coeffAt(r.HiCoeff, d*nc, nc, m.k) - coeffAt(r.Coeff, d*nc, nc, m.k); dc != 0 {
					if j > 0 || r.ND != 1 || !f.lanes {
						return false
					}
					grow = dc * m.dir * (m.ext - 1)
				}
			}
			hi, _, hiMax := boundRange(r.HiBase[d], r.HiCoeff, d*nc, nc, center, mv)
			if loMin < 0 || hiMax > sizes[d] || lo > hi || lo > hi+grow {
				return false
			}
		}
	}
	return true
}

// boundRange evaluates one affine bound — base plus the nc coefficients
// of coeff at off, nil for a constant bound — at center, and its least
// and greatest values over the box mv moves through from there.
func boundRange(base int64, coeff []int64, off, nc int, center []int64, mv []boxMove) (v, lo, hi int64) {
	v = base
	if coeff == nil {
		return v, v, v
	}
	for k, co := range coeff[off : off+nc] {
		v += co * center[k]
	}
	lo, hi = v, v
	for _, m := range mv {
		if m.k >= nc {
			continue
		}
		if span := coeff[off+m.k] * m.dir * (m.ext - 1); span < 0 {
			lo += span
		} else {
			hi += span
		}
	}
	return v, lo, hi
}

// coeffAt is center[k]'s coefficient in the bound at off of coeff.
func coeffAt(coeff []int64, off, nc, k int) int64 {
	if coeff == nil || k >= nc {
		return 0
	}
	return coeff[off+k]
}

// walk runs a box that binds everywhere. It binds the start corner as
// RunCell does, then runs one row along the innermost moving dimension
// at a time through row: across the row's cells in laneRow when it may,
// else as one run call — the row's first cell, and the ext-1 cells after
// it that run reaches from its halt through nextCell — or, for a row
// whose views' extents change along it, cell by cell. Between rows every
// ref adds carry[j], the constant for moving dimension j advancing one
// cell while every dimension inside it jumps back to its start, and
// every center register is reset.
func (f *Frame) walk(center []int64, mv []boxMove) error {
	f.setCarries(mv)
	in := mv[0]
	// The frame steps the row's coordinate; it goes back into center on
	// every way out, a panic included, so center ends at the failing cell.
	f.rowAt = in.start
	f.rowReg = f.prog.CenterReg[in.k]
	defer func() { center[in.k] = f.rowAt }()
	left := in.ext - 1
	err := f.bind(center)
	if err == nil {
		err = f.row(center, left)
	}
	var pos [maxBoxMoves]int64
	for err == nil {
		// One step of the odometer over the outer dimensions.
		j := 1
		for j < len(mv) && pos[j] == mv[j].ext-1 {
			j++
		}
		if j == len(mv) {
			return nil
		}
		f.rowAt = in.start
		center[in.k] = in.start
		for i := 1; i < j; i++ {
			pos[i] = 0
			center[mv[i].k] = mv[i].start
		}
		pos[j]++
		center[mv[j].k] += mv[j].dir
		for i := range f.refs {
			rb := &f.refs[i]
			rb.off += rb.carry[j]
		}
		f.setCenter(center)
		err = f.row(center, left)
	}
	return err
}

// nextCell steps a row walk to the row's next cell and counts it off
// left: every ref moves by its carry along the row, and the row's
// coordinate and its center register by one step. run's halt calls it
// mid-row; taking left's address keeps left in memory, so run does not
// spill it at every dispatch. Only the row's center register changes,
// which is why a body that may write any of them never walks.
func (f *Frame) nextCell(left *int64) {
	*left--
	refs := f.refs // a local, so the stores below do not reload f.refs
	for i := range refs {
		refs[i].off += refs[i].carry[0]
	}
	f.rowAt += f.carryOf[0].dir
	if r := f.rowReg; r >= 0 {
		f.regs[r] = float64(f.rowAt)
	}
}

// setCarries computes every ref's carry for a box of mv's shape, and
// every view's dext along its rows, unless the frame's refs already hold
// them.
func (f *Frame) setCarries(mv []boxMove) {
	if f.carryN == len(mv) {
		same := true
		for j, m := range mv {
			c := f.carryOf[j]
			same = same && c.k == m.k && c.dir == m.dir && c.ext == m.ext
		}
		if same {
			return
		}
	}
	p := f.prog
	nc := p.NCenter
	f.grows = false
	for i := range f.refs {
		rb := &f.refs[i]
		r := &p.Refs[i]
		rb.dext = 0
		if r.Kind == RefView && r.ND == 1 {
			k := mv[0].k
			rb.dext = (coeffAt(r.HiCoeff, 0, nc, k) - coeffAt(r.Coeff, 0, nc, k)) * mv[0].dir
			f.grows = f.grows || rb.dext != 0
		}
		back := 0
		for j, m := range mv {
			step := 0
			if r.Coeff != nil && m.k < nc {
				for d := 0; d < r.ND; d++ {
					step += int(r.Coeff[d*nc+m.k]) * rb.strides[d]
				}
			}
			step *= int(m.dir)
			rb.carry[j] = step - back
			back += step * int(m.ext-1)
		}
	}
	copy(f.carryOf[:], mv)
	f.carryN = len(mv)
	f.apart = apartUnknown
}

// bindView resolves one view ref's window at the current center:
// per-dimension affine lo/hi bounds, the AST tier's eager range
// check in the same DSL-dimension order, then the same unit-dimension
// drop the AST tier's viewOf performs for row/column views. For the
// only collapsing shape the lowering emits — a 2-D row or column — the
// result is always exactly 1-D.
func (f *Frame) bindView(r *Ref, rb *refBind, center []int64) error {
	nd, nc := r.ND, f.prog.NCenter
	off := rb.base
	for d := 0; d < nd; d++ {
		lo, hi := r.Base[d], r.HiBase[d]
		if r.Coeff != nil {
			for k, co := range r.Coeff[d*nc : (d+1)*nc] {
				if co != 0 {
					lo += co * center[k]
				}
			}
		}
		if r.HiCoeff != nil {
			for k, co := range r.HiCoeff[d*nc : (d+1)*nc] {
				if co != 0 {
					hi += co * center[k]
				}
			}
		}
		if lo < 0 || hi > rb.sizes[d] || lo > hi {
			return fmt.Errorf("jit: %s binding %s: view [%d,%d) out of range [0,%d)",
				f.prog.Name, r.Binding, lo, hi, rb.sizes[d])
		}
		off += int(lo) * rb.strides[d]
		rd := nd - 1 - d // reverse DSL order to row-major
		rb.vext[rd] = hi - lo
		rb.vstride[rd] = rb.strides[d]
	}
	w := 0
	if r.Collapse {
		for d := 0; d < nd; d++ {
			if rb.vext[d] == 1 && (nd-d > 1 || w > 0) {
				continue
			}
			rb.vext[w] = rb.vext[d]
			rb.vstride[w] = rb.vstride[d]
			w++
		}
	} else {
		w = nd
	}
	rb.vnd = w
	rb.off = off
	return nil
}

// sumDims accumulates a row-major walk of a strided window, last index
// fastest — matrix.Walk's element order, so float adds associate
// identically to the interpreter's sum builtin.
func sumDims(data []float64, off int, ext []int64, stride []int, acc float64) float64 {
	n := int(ext[0])
	if len(ext) == 1 {
		if st := stride[0]; st != 1 {
			for k := 0; k < n; k++ {
				acc += data[off]
				off += st
			}
		} else if n > 0 {
			for _, v := range data[off : off+n] {
				acc += v
			}
		}
		return acc
	}
	for j := 0; j < n; j++ {
		acc = sumDims(data, off+j*stride[0], ext[1:], stride[1:], acc)
	}
	return acc
}

// viewOff flattens the vnd DSL-order indices held in registers
// base..base+vnd-1 into a backing offset, truncating and range-checking
// each in row-major dimension order with the exact panic matrix.Get
// raises: an explicit out-of-range index is a program bug in every
// tier, unlike the lazily tolerated cell-binding miss.
func (f *Frame) viewOff(rb *refBind, base int32) int {
	n := rb.vnd
	off := rb.off
	for j := 0; j < n; j++ {
		iv := int(f.regs[int(base)+n-1-j])
		if iv < 0 || iv >= int(rb.vext[j]) {
			panic(fmt.Sprintf("matrix: index %d out of range [0,%d) in dim %d", iv, rb.vext[j], j))
		}
		off += iv * rb.vstride[j]
	}
	return off
}

// loadAt and storeAt run the OpLoadAt or OpStoreAt at pc through
// viewOff. They re-read the instruction, so that run keeps none of its
// operands live across the call: a spill that would cost every
// dispatch, not just this one.
func (f *Frame) loadAt(pc int) {
	in := f.prog.Code[pc]
	rb := &f.refs[in.B]
	f.regs[in.A] = rb.data[f.viewOff(rb, in.C)]
}

func (f *Frame) storeAt(pc int) {
	in := f.prog.Code[pc]
	rb := &f.refs[in.A]
	rb.data[f.viewOff(rb, in.B)] = f.regs[in.C]
}

// cellsAt runs the two-cell compare at pc as two OpLoadAt and a
// compare-and-branch would, and returns the pc run continues from. It
// re-reads the instruction for the same reason as loadAt.
func (f *Frame) cellsAt(pc int) int {
	in := f.prog.Code[pc]
	l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
	x := l.data[f.viewOff(l, low(in.C))]
	y := r.data[f.viewOff(r, high(in.C))]
	var holds bool
	switch in.Op {
	case OpJNLTV:
		holds = x < y
	case OpJNLEV:
		holds = x <= y
	case OpJNGTV:
		holds = x > y
	case OpJNGEV:
		holds = x >= y
	case OpJNEQV:
		holds = x == y
	case OpJNNEV:
		holds = x != y
	}
	if holds {
		return pc
	}
	return int(in.A) - 1
}

// call runs the OpCall at pc through the frame's Caller, off run's
// path for the same reason as loadAt.
func (f *Frame) call(pc int) error {
	site := int(f.prog.Code[pc].A)
	if f.caller == nil {
		return fmt.Errorf("jit: %s: call site %d with no caller", f.prog.Name, site)
	}
	return f.caller.Call(site)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// run is the dispatch loop. It runs the bound cell; then, while left is
// above 0, halt steps to the row's next cell (nextCell) and runs it
// from pc 0, so one call runs a whole row. left is an argument, not
// frame state, so an error or a panic mid-row leaves no pooled frame in
// the middle of a row. Malformed programs (bad register or ref indices)
// panic via the usual slice bounds checks; the lowering never emits
// them, and the interpreter's recover guard around rule compilation
// does not extend here by design — an invalid program is a compiler
// bug, not a program error.
func (f *Frame) run(left int64) error {
	p := f.prog
	code := p.Code
	regs := f.regs
	for pc := 0; ; pc++ {
		in := code[pc]
		switch in.Op {
		case OpHalt:
			if left == 0 {
				return nil
			}
			f.nextCell(&left)
			pc = -1
		case OpConst:
			regs[in.A] = p.Consts[in.B]
		case OpMov:
			regs[in.A] = regs[in.B]
		case OpAdd:
			regs[in.A] = regs[in.B] + regs[in.C]
		case OpSub:
			regs[in.A] = regs[in.B] - regs[in.C]
		case OpMul:
			regs[in.A] = regs[in.B] * regs[in.C]
		case OpDiv:
			r := regs[in.C]
			if r == 0 {
				return errDivZero
			}
			regs[in.A] = regs[in.B] / r
		case OpMod:
			r := regs[in.C]
			if r == 0 {
				return errModZero
			}
			regs[in.A] = math.Mod(regs[in.B], r)
		case OpNeg:
			regs[in.A] = -regs[in.B]
		case OpNot:
			regs[in.A] = b2f(regs[in.B] == 0)
		case OpLT:
			regs[in.A] = b2f(regs[in.B] < regs[in.C])
		case OpLE:
			regs[in.A] = b2f(regs[in.B] <= regs[in.C])
		case OpGT:
			regs[in.A] = b2f(regs[in.B] > regs[in.C])
		case OpGE:
			regs[in.A] = b2f(regs[in.B] >= regs[in.C])
		case OpEQ:
			regs[in.A] = b2f(regs[in.B] == regs[in.C])
		case OpNE:
			regs[in.A] = b2f(regs[in.B] != regs[in.C])
		case OpTrunc:
			regs[in.A] = math.Trunc(regs[in.B])
		case OpAbs:
			regs[in.A] = math.Abs(regs[in.B])
		case OpSqrt:
			regs[in.A] = math.Sqrt(regs[in.B])
		case OpFloor:
			regs[in.A] = math.Floor(regs[in.B])
		case OpCeil:
			regs[in.A] = math.Ceil(regs[in.B])
		case OpMin:
			regs[in.A] = math.Min(regs[in.B], regs[in.C])
		case OpMax:
			regs[in.A] = math.Max(regs[in.B], regs[in.C])
		case OpPow:
			regs[in.A] = math.Pow(regs[in.B], regs[in.C])
		case OpLoad:
			rb := &f.refs[in.B]
			if rb.off < 0 {
				return f.oob(in.B)
			}
			regs[in.A] = rb.data[rb.off]
		case OpStore:
			rb := &f.refs[in.A]
			if rb.off < 0 {
				return f.oob(in.A)
			}
			rb.data[rb.off] = regs[in.B]
		case OpJmp:
			pc = int(in.A) - 1
		case OpJZ:
			if regs[in.B] == 0 {
				pc = int(in.A) - 1
			}
		case OpJNZ:
			if regs[in.B] != 0 {
				pc = int(in.A) - 1
			}
		case OpLoop:
			regs[in.B]++
			if regs[in.B] > 100_000_000 {
				return errRunaway
			}
			pc = int(in.A) - 1
		case OpJNLT:
			if !(regs[in.B] < regs[in.C]) {
				pc = int(in.A) - 1
			}
		case OpJNLE:
			if !(regs[in.B] <= regs[in.C]) {
				pc = int(in.A) - 1
			}
		case OpJNGT:
			if !(regs[in.B] > regs[in.C]) {
				pc = int(in.A) - 1
			}
		case OpJNGE:
			if !(regs[in.B] >= regs[in.C]) {
				pc = int(in.A) - 1
			}
		case OpJNEQ:
			if regs[in.B] != regs[in.C] {
				pc = int(in.A) - 1
			}
		case OpJNNE:
			if regs[in.B] == regs[in.C] {
				pc = int(in.A) - 1
			}
		case OpSumV:
			rb := &f.refs[in.B]
			acc := 0.0
			if rb.vnd == 1 {
				// The common reduction shape: one strided run, with a
				// range loop when the window is contiguous.
				n := int(rb.vext[0])
				if st := rb.vstride[0]; st != 1 {
					o := rb.off
					for k := 0; k < n; k++ {
						acc += rb.data[o]
						o += st
					}
				} else if n > 0 {
					for _, v := range rb.data[rb.off : rb.off+n] {
						acc += v
					}
				}
			} else {
				acc = sumDims(rb.data, rb.off, rb.vext[:rb.vnd], rb.vstride[:rb.vnd], 0)
			}
			regs[in.A] = acc
		case OpDotV:
			rl := &f.refs[in.B]
			rr := &f.refs[in.C]
			if rl.vext[0] != rr.vext[0] {
				return errDotLen
			}
			n := int(rl.vext[0])
			acc := 0.0
			if rl.vstride[0] == 1 && rr.vstride[0] == 1 && n > 0 {
				dl := rl.data[rl.off : rl.off+n]
				dr := rr.data[rr.off : rr.off+n]
				for k, v := range dl {
					acc += v * dr[k]
				}
			} else {
				ol, or := rl.off, rr.off
				sl, sr := rl.vstride[0], rr.vstride[0]
				for k := 0; k < n; k++ {
					acc += rl.data[ol] * rr.data[or]
					ol += sl
					or += sr
				}
			}
			regs[in.A] = acc
		case OpLoadAt:
			// A 1-D view in range inline; anything else through viewOff,
			// which also raises the out-of-range panic.
			if rb := &f.refs[in.B]; rb.vnd == 1 {
				if iv := int(regs[in.C]); uint64(iv) < uint64(rb.vext[0]) {
					regs[in.A] = rb.data[rb.off+iv*rb.vstride[0]]
					break
				}
			}
			f.loadAt(pc)
		case OpStoreAt:
			if rb := &f.refs[in.A]; rb.vnd == 1 {
				if iv := int(regs[in.B]); uint64(iv) < uint64(rb.vext[0]) {
					rb.data[rb.off+iv*rb.vstride[0]] = regs[in.C]
					break
				}
			}
			f.storeAt(pc)
		case OpCall:
			if err := f.call(pc); err != nil {
				return err
			}
		case OpLoopLT:
			v := regs[in.B] + 1
			regs[in.B] = v
			regs[in.C]++
			if regs[in.C] > 100_000_000 {
				return errRunaway
			}
			if v < regs[in.C+1] {
				pc = int(in.A) - 1
			}
		// Each two-cell compare has its own case, the comparison inline:
		// one shared case switching on the op again ran MergeSortDSL's
		// BenchmarkMacroMergeSortPool 2–5 % slower.
		case OpJNLTV:
			l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
			i, j := int(regs[low(in.C)]), int(regs[high(in.C)])
			if uint64(i) >= uint64(l.vext[0]) || uint64(j) >= uint64(r.vext[0]) {
				pc = f.cellsAt(pc)
			} else if x, y := l.data[l.off+i*l.vstride[0]], r.data[r.off+j*r.vstride[0]]; !(x < y) {
				pc = int(in.A) - 1
			}
		case OpJNLEV:
			l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
			i, j := int(regs[low(in.C)]), int(regs[high(in.C)])
			if uint64(i) >= uint64(l.vext[0]) || uint64(j) >= uint64(r.vext[0]) {
				pc = f.cellsAt(pc)
			} else if x, y := l.data[l.off+i*l.vstride[0]], r.data[r.off+j*r.vstride[0]]; !(x <= y) {
				pc = int(in.A) - 1
			}
		case OpJNGTV:
			l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
			i, j := int(regs[low(in.C)]), int(regs[high(in.C)])
			if uint64(i) >= uint64(l.vext[0]) || uint64(j) >= uint64(r.vext[0]) {
				pc = f.cellsAt(pc)
			} else if x, y := l.data[l.off+i*l.vstride[0]], r.data[r.off+j*r.vstride[0]]; !(x > y) {
				pc = int(in.A) - 1
			}
		case OpJNGEV:
			l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
			i, j := int(regs[low(in.C)]), int(regs[high(in.C)])
			if uint64(i) >= uint64(l.vext[0]) || uint64(j) >= uint64(r.vext[0]) {
				pc = f.cellsAt(pc)
			} else if x, y := l.data[l.off+i*l.vstride[0]], r.data[r.off+j*r.vstride[0]]; !(x >= y) {
				pc = int(in.A) - 1
			}
		case OpJNEQV:
			l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
			i, j := int(regs[low(in.C)]), int(regs[high(in.C)])
			if uint64(i) >= uint64(l.vext[0]) || uint64(j) >= uint64(r.vext[0]) {
				pc = f.cellsAt(pc)
			} else if x, y := l.data[l.off+i*l.vstride[0]], r.data[r.off+j*r.vstride[0]]; x != y {
				pc = int(in.A) - 1
			}
		case OpJNNEV:
			l, r := &f.refs[low(in.B)], &f.refs[high(in.B)]
			i, j := int(regs[low(in.C)]), int(regs[high(in.C)])
			if uint64(i) >= uint64(l.vext[0]) || uint64(j) >= uint64(r.vext[0]) {
				pc = f.cellsAt(pc)
			} else if x, y := l.data[l.off+i*l.vstride[0]], r.data[r.off+j*r.vstride[0]]; x == y {
				pc = int(in.A) - 1
			}
		case OpSel:
			if regs[in.B] != 0 {
				regs[in.A] = regs[in.C]
			}
		default:
			return fmt.Errorf("jit: %s: bad opcode %s at pc %d", p.Name, in.Op, pc)
		}
	}
}
