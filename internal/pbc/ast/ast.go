// Package ast defines the abstract syntax tree of the PetaBricks
// language: programs of transforms, transforms of rules, rules of region
// references and C-like rule bodies.
package ast

import (
	"fmt"
	"strings"

	"petabricks/internal/pbc/token"
)

// Program is a parsed source file.
type Program struct {
	Transforms []*Transform
}

// Find returns the transform with the given name.
func (p *Program) Find(name string) (*Transform, bool) {
	for _, t := range p.Transforms {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Transform is one `transform` declaration: the unit of algorithmic
// choice, "analogous to a function" (§2).
type Transform struct {
	Name      string
	Templates []string // template parameter names (template transforms)
	From      []*MatrixDecl
	To        []*MatrixDecl
	Through   []*MatrixDecl
	Generator string // training-input generator transform, if any
	Tunables  []TunableDecl
	Rules     []*Rule
	Pos       token.Pos
}

// Role says whether a matrix is an input, output, or intermediate.
type Role int

// Matrix roles.
const (
	RoleFrom Role = iota
	RoleTo
	RoleThrough
)

func (r Role) String() string {
	switch r {
	case RoleFrom:
		return "from"
	case RoleTo:
		return "to"
	default:
		return "through"
	}
}

// MatrixDecl declares a named matrix with symbolic dimension sizes, e.g.
// A[c,h]. Version, when present, is the A<0..n> syntax — syntactic sugar
// for an extra trailing dimension (§2: "Matrix versions").
type MatrixDecl struct {
	Name    string
	Dims    []Expr
	Version *VersionRange
	Pos     token.Pos
}

// VersionRange is the <lo..hi> version annotation.
type VersionRange struct {
	Lo, Hi Expr
}

// EffectiveDims returns the dimensions with the version range desugared
// into an extra trailing dimension of extent hi-lo+1.
func (d *MatrixDecl) EffectiveDims() []Expr {
	if d.Version == nil {
		return d.Dims
	}
	extra := &Binary{Op: "+", L: &Binary{Op: "-", L: d.Version.Hi, R: d.Version.Lo}, R: &Num{Val: 1}}
	return append(append([]Expr{}, d.Dims...), extra)
}

// TunableDecl is the `tunable name(min, max, default)` declaration.
type TunableDecl struct {
	Name             string
	Min, Max, Defalt int64
	Pos              token.Pos
}

// Rule is one rewrite rule: how to compute a region of output from
// regions of input, plus optional priority and where clause.
type Rule struct {
	// Priority: lower runs preferentially (paper: "all rules of
	// non-minimal priority are removed" per region). Primary = 0,
	// secondary = 1; explicit priority(n) sets n. Default 0.
	Priority int
	To       []*RegionRef
	From     []*RegionRef
	Where    Expr // nil when absent
	Body     []Stmt
	RawBody  string // non-empty when the body was a %{ ... }% escape
	Pos      token.Pos
	// Index is the rule's position within its transform (set by parser).
	Index int
}

// Name returns a diagnostic name like "rule 0".
func (r *Rule) Name() string { return fmt.Sprintf("rule %d", r.Index) }

// RegionKind is the accessor used in a region reference.
type RegionKind int

// Region accessors.
const (
	RegionAll    RegionKind = iota // whole matrix: `A a`
	RegionCell                     // A.cell(x, y)
	RegionRow                      // A.row(y)
	RegionCol                      // A.column(x)
	RegionRegion                   // A.region(x1, y1, x2, y2)
)

func (k RegionKind) String() string {
	switch k {
	case RegionAll:
		return "all"
	case RegionCell:
		return "cell"
	case RegionRow:
		return "row"
	case RegionCol:
		return "column"
	case RegionRegion:
		return "region"
	}
	return "?"
}

// RegionRef is `Matrix.accessor(args) boundName` in a rule header. An
// optional version index (A<1>.cell(i)) selects a matrix version.
type RegionRef struct {
	Matrix  string
	Version Expr // nil unless A<expr> syntax used
	Kind    RegionKind
	Args    []Expr
	Binding string // name the body uses
	Pos     token.Pos
}

func (r *RegionRef) String() string {
	var b strings.Builder
	b.WriteString(r.Matrix)
	if r.Version != nil {
		fmt.Fprintf(&b, "<%s>", ExprString(r.Version))
	}
	if r.Kind != RegionAll {
		b.WriteString("." + r.Kind.String() + "(")
		for i, a := range r.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ExprString(a))
		}
		b.WriteString(")")
	}
	if r.Binding != "" {
		b.WriteString(" " + r.Binding)
	}
	return b.String()
}

// --- Expressions ---------------------------------------------------------

// Expr is a rule-header or rule-body expression.
type Expr interface{ isExpr() }

// Num is a numeric literal.
type Num struct {
	Val  float64
	IsFl bool // written with a decimal point / exponent
}

// Ident is a name reference.
type Ident struct{ Name string }

// Binary is a binary operation; Op one of + - * / % < <= > >= == != && ||.
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is -x or !x.
type Unary struct {
	Op string
	X  Expr
}

// Call is f(args): a builtin (sum, dot, min, max, abs, sqrt) or a
// transform invocation.
type Call struct {
	Fn   string
	Args []Expr
}

// Cond is the ternary c ? a : b.
type Cond struct {
	C, A, B Expr
}

// Index is name.cell(args) or name(i) indexing of a bound region inside
// a rule body.
type Index struct {
	Base string
	Args []Expr
}

func (*Num) isExpr()    {}
func (*Ident) isExpr()  {}
func (*Binary) isExpr() {}
func (*Unary) isExpr()  {}
func (*Call) isExpr()   {}
func (*Cond) isExpr()   {}
func (*Index) isExpr()  {}

// ExprString renders an expression for diagnostics.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Num:
		if x.IsFl {
			return fmt.Sprintf("%g", x.Val)
		}
		return fmt.Sprintf("%d", int64(x.Val))
	case *Ident:
		return x.Name
	case *Binary:
		return "(" + ExprString(x.L) + x.Op + ExprString(x.R) + ")"
	case *Unary:
		return x.Op + ExprString(x.X)
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = ExprString(a)
		}
		return x.Fn + "(" + strings.Join(parts, ", ") + ")"
	case *Cond:
		return "(" + ExprString(x.C) + " ? " + ExprString(x.A) + " : " + ExprString(x.B) + ")"
	case *Index:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = ExprString(a)
		}
		return x.Base + "(" + strings.Join(parts, ", ") + ")"
	case nil:
		return "<nil>"
	}
	return "<expr>"
}

// --- Statements ----------------------------------------------------------

// Stmt is a rule-body statement.
type Stmt interface{ isStmt() }

// Assign is `lhs = rhs;` (or `+=`, `-=`). LHS is an Ident or Index.
type Assign struct {
	LHS Expr
	Op  string // "=", "+=", "-="
	RHS Expr
}

// Decl is `double x = e;` or `int x = e;`.
type Decl struct {
	Type string
	Name string
	Init Expr // may be nil
}

// If is a conditional statement.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
}

// For is `for (init; cond; post) body`.
type For struct {
	Init Stmt // Decl or Assign, may be nil
	Cond Expr
	Post Stmt // Assign or IncDec, may be nil
	Body []Stmt
}

// IncDec is `x++;` / `x--;`.
type IncDec struct {
	Name string
	Op   string // "++" or "--"
}

// ExprStmt is a bare call expression statement.
type ExprStmt struct{ X Expr }

// Return is `return e;` (used by generator transforms' helpers).
type Return struct{ X Expr }

func (*Assign) isStmt()   {}
func (*Decl) isStmt()     {}
func (*If) isStmt()       {}
func (*For) isStmt()      {}
func (*IncDec) isStmt()   {}
func (*ExprStmt) isStmt() {}
func (*Return) isStmt()   {}
