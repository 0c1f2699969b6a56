// Package ir resolves one analyzed rule into the typed tree that both
// compiling backends lower: the bytecode vm (pbc/jit) and the Go emitter
// (pbc/codegen). Build applies the body's C scoping once, so every name
// use is a *Var; gives every region reference its shape as affine bounds
// from the same shape rule the analysis uses (analysis.RefSpans); and
// resolves builtins and transform-call sites. What no backend compiles
// is reported as the first *Unsupported.
//
// The tree is size-generic, as emitted Go is: a bound splits into center
// coefficients and a symbolic size base, which the vm folds at its
// sizes. The AST interpreter (pbc/interp) does not use the IR; it stays
// the independent oracle both backends are checked against.
package ir

import (
	"slices"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/symbolic"
)

// Rule is one analyzed rule resolved for lowering.
type Rule struct {
	Info *analysis.RuleInfo
	// Refs are the rule's region references, To then From. An unbound
	// ref is resolved and checked like a bound one, but no name reads it.
	Refs   []Ref
	Calls  []*Call // the transform-call sites, in source order
	Body   []Stmt
	Locals int // scalar locals the body declares
}

// VarKind is what a name denotes.
type VarKind uint8

const (
	Local  VarKind = iota // a scalar the body declares; N numbers it
	Center                // the center variable of output dimension N
	Cell                  // the binding of a cell ref; N numbers the bound refs
	View                  // the binding of any other ref, of rank Rank
	Size                  // a name nothing binds: a size variable, if the sizes bind it
)

// Var is one named thing a body can read. Every use of a name points
// to the Var its declaration made, so a backend keeps per-name state in
// a slice indexed by N.
type Var struct {
	Name string
	N    int32
	Rank int32 // View: 1 for a row or column, which collapses; else the matrix's
	Kind VarKind
}

// Ref is one region reference, resolved: Args holds the affine form of
// each argument, over the rule's center and size variables, and Lo and
// Hi apply the ref's shape to them.
type Ref struct {
	*ast.RegionRef
	Var  *Var // its binding, nil when unbound
	Args []symbolic.Affine
	info *analysis.MatrixInfo
}

// Rank is the rank of the ref's matrix.
func (r *Ref) Rank() int { return len(r.info.Dims) }

// span is the ref's shape in dimension d.
func (r *Ref) span(d int) analysis.Span {
	var buf [4]analysis.Span
	spans, _ := analysis.RefSpans(r.RegionRef, r.Rank(), buf[:0])
	return spans[d]
}

// Lo returns the lower bound of the interval [Lo(d), Hi(d)) the ref
// covers in dimension d of its matrix, in DSL order: the shape
// analysis.RefSpans gives, over Args.
func (r *Ref) Lo(d int) symbolic.Affine {
	if s := r.span(d); s.Lo >= 0 {
		return r.Args[s.Lo]
	}
	return symbolic.Affine{}
}

// Hi returns the upper bound of the interval the ref covers in
// dimension d. The analysis has computed it for every ref but a cell
// rule's cells, which only need Lo: a cell's Hi is its index plus one,
// which can leave int64.
func (r *Ref) Hi(d int) symbolic.Affine {
	switch s := r.span(d); {
	case s.Unit:
		return r.Args[s.Hi].Add(symbolic.AffineConst(symbolic.RatInt(1)))
	case s.Hi >= 0:
		return r.Args[s.Hi]
	}
	hi, _ := r.info.Dims[d].Affine() // the analysis built every extent affine
	return hi
}

// Split separates a bound into the coefficient of each center variable
// (nil when none contributes) and a base that reads size variables only.
func (r *Rule) Split(b symbolic.Affine) ([]symbolic.Rat, symbolic.Affine) {
	for i := range b.NumTerms() {
		if name, _ := b.Term(i); slices.Contains(r.Info.CenterVars, name) {
			return b.Split(r.Info.CenterVars)
		}
	}
	return nil, b
}

// Unsup reports construct of r as unsupported.
func (r *Rule) Unsup(construct, detailFmt string, args ...any) error {
	return Unsup(r.Info.Rule.Name(), construct, detailFmt, args...)
}

// Stmt is a resolved statement.
type Stmt interface{ stmt() }

type (
	// Decl declares the local Var, truncated to an integer when Int;
	// a nil Init is 0.
	Decl struct {
		Var  *Var
		Int  bool
		Init Expr
	}
	// Assign is `To Op RHS`, Op one of "=", "+=", "-=". Def marks the
	// implicit definition of a new local by `=` to a name nothing binds.
	Assign struct {
		To  *Var
		Op  string
		RHS Expr
		Def bool
	}
	// Store is `At Op RHS`, an assignment to one cell of a view.
	Store struct {
		At  *Index
		Op  string
		RHS Expr
	}
	// IncDec is `Var++` or `Var--` on a scalar.
	IncDec struct {
		Var *Var
		Dec bool
	}
	If struct {
		Cond       Expr
		Then, Else []Stmt
	}
	For struct {
		Init, Post Stmt // either may be nil
		Cond       Expr
		Body       []Stmt
	}
	// Eval evaluates X for its errors only.
	Eval struct{ X Expr }
)

func (*Decl) stmt()   {}
func (*Assign) stmt() {}
func (*Store) stmt()  {}
func (*IncDec) stmt() {}
func (*If) stmt()     {}
func (*For) stmt()    {}
func (*Eval) stmt()   {}

// Expr is a resolved expression: Num, *Var, *Unary, *Binary, *Cond,
// *Index or *Call.
type Expr interface{ expr() }

type (
	Num   struct{ *ast.Num }
	Unary struct {
		Op string // "-" or "!"
		X  Expr
	}
	Binary struct {
		Op   string // + - * / % < <= > >= == != && ||
		L, R Expr
	}
	Cond struct{ C, A, B Expr }
	// Index is `View.cell(Args)`.
	Index struct {
		View *Var
		Args []Expr
		src  *ast.Index
	}
	// Call is a builtin, or a transform call when Builtin is Transform.
	// Stmt marks the calls of a statement `v = F(a1, …)` whose every
	// argument is a name or a call of that shape.
	Call struct {
		Fn      string
		Args    []Expr
		Builtin Builtin
		Stmt    bool
	}
)

func (Num) expr()     {}
func (*Var) expr()    {}
func (*Unary) expr()  {}
func (*Binary) expr() {}
func (*Cond) expr()   {}
func (*Index) expr()  {}
func (*Call) expr()   {}

// Affine returns index i's affine form, when it reads only numbers,
// center and size variables through + - * /.
func (x *Index) Affine(i int) (symbolic.Affine, bool) {
	if !plain(x.Args[i]) {
		return symbolic.Affine{}, false
	}
	aff, err := analysis.ToAffine(x.src.Args[i])
	return aff, err == nil // a fractional literal, a % or a comparison is not affine
}

// plain reports whether e reads only numbers, center and size variables.
func plain(e Expr) bool {
	switch x := e.(type) {
	case Num:
		return true
	case *Var:
		return x.Kind == Center || x.Kind == Size
	case *Unary:
		return plain(x.X)
	case *Binary:
		return plain(x.L) && plain(x.R)
	}
	return false
}

// Builtin is a body builtin, or Transform for any other called name.
type Builtin uint8

const (
	Transform Builtin = iota
	Abs
	Sqrt
	Floor
	Ceil
	Pow
	Min
	Max
	Sum
	Dot
	Copy
)

var builtins = map[string]Builtin{
	"abs": Abs, "sqrt": Sqrt, "floor": Floor, "ceil": Ceil, "pow": Pow,
	"min": Min, "max": Max, "sum": Sum, "dot": Dot, "copy": Copy,
}

// arity is the argument count of each builtin; -1 is one or more.
var arity = [...]int{Abs: 1, Sqrt: 1, Floor: 1, Ceil: 1, Pow: 2, Min: -1, Max: -1, Sum: 1, Dot: 2, Copy: 1}

type builder struct {
	r      *Rule
	err    error             // the first unsupported construct
	vars   []Var             // the center and binding Vars, in one allocation
	scope  []*Var            // the locals in scope, innermost last
	sizes  []*Var            // the Size vars made so far, one per name
	args   []symbolic.Affine // every ref's Args, in one allocation
	nbound int32             // refs bound so far
}

// unsup records the first unsupported construct. Resolution goes on,
// but Build returns only the error.
func (b *builder) unsup(construct, detailFmt string, args ...any) {
	if b.err == nil {
		b.err = b.r.Unsup(construct, detailFmt, args...)
	}
}

// Build resolves ri, a rule of res.
func Build(res *analysis.Result, ri *analysis.RuleInfo) (*Rule, error) {
	b := builder{r: &Rule{Info: ri}}
	if ri.Rule.RawBody != "" {
		return nil, b.r.Unsup("raw-body", "")
	}
	// Size the rule's Vars and ref arguments up front, so each is one
	// allocation.
	all := [2][]*ast.RegionRef{ri.Rule.To, ri.Rule.From}
	nvars, nargs := 0, 0
	for _, v := range ri.CenterVars {
		if v != "" {
			nvars++
		}
	}
	for _, refs := range all {
		for _, ref := range refs {
			if ref.Binding != "" {
				nvars++
			}
			nargs += len(ref.Args)
		}
	}
	b.vars = make([]Var, 0, nvars)
	b.args = make([]symbolic.Affine, 0, nargs)
	for d, v := range ri.CenterVars {
		if v != "" {
			b.newVar(Var{Kind: Center, Name: v, N: int32(d)})
		}
	}
	b.r.Refs = make([]Ref, 0, len(ri.Rule.To)+len(ri.Rule.From))
	for _, refs := range all {
		for _, ref := range refs {
			b.ref(res, ref)
		}
	}
	b.r.Body = b.stmts(ri.Rule.Body)
	if b.err != nil {
		return nil, b.err
	}
	return b.r, nil
}

// ref resolves one region reference and defines its binding.
func (b *builder) ref(res *analysis.Result, ref *ast.RegionRef) {
	mi := res.Matrices[ref.Matrix]
	if mi == nil {
		b.unsup("unknown-matrix", "%q", ref.Matrix)
		return
	}
	var buf [4]analysis.Span
	spans, err := analysis.RefSpans(ref, len(mi.Dims), buf[:0])
	if err != nil {
		b.unsup("region-shape", "%v", err)
		return
	}
	r := Ref{RegionRef: ref, info: mi}
	at := len(b.args)
	for _, a := range ref.Args {
		aff, err := analysis.ToAffine(a)
		if err != nil {
			b.unsup("non-affine-index", "%s", ast.ExprString(a))
		}
		b.args = append(b.args, aff)
	}
	r.Args = b.args[at:len(b.args):len(b.args)]
	if ref.Binding != "" {
		v := Var{Kind: Cell, Name: ref.Binding, N: b.nbound}
		if ref.Kind != ast.RegionCell {
			v.Kind, v.Rank = View, int32(len(spans))
			if ref.Kind == ast.RegionRow || ref.Kind == ast.RegionCol {
				v.Rank = 1
			}
		}
		r.Var = b.newVar(v)
		b.nbound++
	}
	b.r.Refs = append(b.r.Refs, r)
}

// newVar adds a center or binding Var. Build sizes vars to hold them
// all, so the slice never moves and every *Var it hands out stays the
// one the name resolves to.
func (b *builder) newVar(v Var) *Var {
	b.vars = append(b.vars, v)
	return &b.vars[len(b.vars)-1]
}

// lookup finds the innermost declaration of name: a local, else a
// binding, else a center variable.
func (b *builder) lookup(name string) (*Var, bool) {
	for i := len(b.scope) - 1; i >= 0; i-- {
		if b.scope[i].Name == name {
			return b.scope[i], true
		}
	}
	for i := len(b.vars) - 1; i >= 0; i-- {
		if b.vars[i].Name == name {
			return &b.vars[i], true
		}
	}
	return nil, false
}

// name resolves a name use; one nothing binds is a Size var.
func (b *builder) name(name string) *Var {
	if v, ok := b.lookup(name); ok {
		return v
	}
	for _, v := range b.sizes {
		if v.Name == name {
			return v
		}
	}
	v := &Var{Kind: Size, Name: name}
	b.sizes = append(b.sizes, v)
	return v
}

// local declares a new scalar local in the innermost scope.
func (b *builder) local(name string) *Var {
	v := &Var{Kind: Local, Name: name, N: int32(b.r.Locals)}
	b.r.Locals++
	b.scope = append(b.scope, v)
	return v
}

// block resolves a statement list in a scope of its own.
func (b *builder) block(list []ast.Stmt) []Stmt {
	mark := len(b.scope)
	out := b.stmts(list)
	b.scope = b.scope[:mark]
	return out
}

func (b *builder) stmts(list []ast.Stmt) []Stmt {
	if len(list) == 0 {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = b.stmt(s)
	}
	return out
}

func (b *builder) stmt(s ast.Stmt) Stmt {
	switch st := s.(type) {
	case *ast.Decl:
		var init Expr
		if st.Init != nil {
			init = b.expr(st.Init)
		}
		return &Decl{Var: b.local(st.Name), Int: st.Type == "int", Init: init}
	case *ast.Assign:
		return b.assign(st)
	case *ast.IncDec:
		// ++/-- on a binding rebinds the name to a scalar in the AST
		// tier; neither backend can express that.
		v, ok := b.lookup(st.Name)
		if !ok || (v.Kind != Local && v.Kind != Center) {
			b.unsup("incdec-target", "%q", st.Name)
		}
		return &IncDec{Var: v, Dec: st.Op == "--"}
	case *ast.If:
		cond := b.expr(st.Cond)
		return &If{Cond: cond, Then: b.block(st.Then), Else: b.block(st.Else)}
	case *ast.For:
		if st.Cond == nil {
			b.unsup("for-without-cond", "") // interpreter reports the error
			return nil
		}
		mark := len(b.scope)
		f := &For{}
		if st.Init != nil {
			f.Init = b.stmt(st.Init)
		}
		f.Cond = b.expr(st.Cond)
		f.Body = b.block(st.Body)
		if st.Post != nil {
			f.Post = b.stmt(st.Post)
		}
		b.scope = b.scope[:mark]
		return f
	case *ast.ExprStmt:
		return &Eval{X: b.expr(st.X)}
	case *ast.Return:
		b.unsup("return-statement", "") // interpreter owns the error
		return nil
	}
	b.unsup("unknown-statement", "%T", s)
	return nil
}

func (b *builder) assign(st *ast.Assign) Stmt {
	switch st.Op {
	case "=", "+=", "-=":
	default:
		b.unsup("assign-op", "%q", st.Op)
	}
	switch lhs := st.LHS.(type) {
	case *ast.Index:
		at := b.index(lhs, "indexed-assignment")
		return &Store{At: at, Op: st.Op, RHS: b.expr(st.RHS)}
	case *ast.Ident:
		rhs := b.expr(st.RHS)
		if c, ok := rhs.(*Call); ok && st.Op == "=" && c.callShape() {
			c.markStmt()
		}
		if v, ok := b.lookup(lhs.Name); ok {
			return &Assign{To: v, Op: st.Op, RHS: rhs}
		}
		// Implicit local definition, as in the interpreter's execAssign.
		if st.Op != "=" {
			b.unsup("assign-op", "%q on undefined %q", st.Op, lhs.Name)
		}
		return &Assign{To: b.local(lhs.Name), Op: st.Op, RHS: rhs, Def: true}
	}
	b.unsup("assign-target", "%T", st.LHS)
	return nil
}

// callShape reports whether c is a transform call whose every argument
// is a name or a call of the same shape.
func (c *Call) callShape() bool {
	if c.Builtin != Transform {
		return false
	}
	for _, a := range c.Args {
		switch a := a.(type) {
		case *Var:
		case *Call:
			if !a.callShape() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (c *Call) markStmt() {
	c.Stmt = true
	for _, a := range c.Args {
		if a, ok := a.(*Call); ok {
			a.markStmt()
		}
	}
}

func (b *builder) exprs(list []ast.Expr) []Expr {
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = b.expr(e)
	}
	return out
}

func (b *builder) expr(e ast.Expr) Expr {
	switch x := e.(type) {
	case *ast.Num:
		return Num{x}
	case *ast.Ident:
		return b.name(x.Name)
	case *ast.Unary:
		return &Unary{Op: x.Op, X: b.expr(x.X)}
	case *ast.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||":
		default:
			b.unsup("operator", "%q", x.Op)
		}
		l := b.expr(x.L)
		return &Binary{Op: x.Op, L: l, R: b.expr(x.R)}
	case *ast.Cond:
		c := b.expr(x.C)
		a := b.expr(x.A)
		return &Cond{C: c, A: a, B: b.expr(x.B)}
	case *ast.Index:
		return b.index(x, "indexed-read")
	case *ast.Call:
		c := &Call{Fn: x.Fn, Builtin: builtins[x.Fn]}
		if c.Builtin == Transform {
			b.r.Calls = append(b.r.Calls, c)
		} else if n := arity[c.Builtin]; len(x.Args) != n && (n >= 0 || len(x.Args) == 0) {
			b.unsup("builtin-arity", "%s with %d args", x.Fn, len(x.Args))
		}
		c.Args = b.exprs(x.Args)
		return c
	}
	b.unsup("unknown-expression", "%T", e)
	return nil
}

// index resolves `base.cell(args)`; construct names the rejection when
// base is not a view.
func (b *builder) index(x *ast.Index, construct string) *Index {
	v, ok := b.lookup(x.Base)
	if !ok || v.Kind != View {
		b.unsup(construct, "%q", x.Base)
	}
	return &Index{View: v, Args: b.exprs(x.Args), src: x}
}
