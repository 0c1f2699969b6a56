package codegen

import (
	"fmt"
	"strings"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/symbolic"
)

// body renders one resolved rule.
type body struct {
	g     *gen
	r     *ir.Rule
	binds []binding // by bound-ref number (ir.Var.N of a Cell or View)
	err   error     // the first construct Go emission does not support
}

// binding is how a bound ref reads in Go: a cell as mat.Get(idx); any
// other ref, and a macro rule's cell, as the view variable mat.
type binding struct {
	mat, idx string
	view     bool
}

// ruleBody emits a rule's view bindings and translated statements.
// Body scalars are float64; matrix indices convert at use sites.
func (g *gen) ruleBody(res *analysis.Result, ri *analysis.RuleInfo, locals map[string]string, indent string) (string, error) {
	r, err := ir.Build(res, ri)
	if err != nil {
		return "", err
	}
	macro := ri.Kind == analysis.RuleMacro
	bd := &body{g: g, r: r}
	var b strings.Builder
	views := 0
	for _, ref := range r.Refs {
		if ref.Var == nil {
			continue
		}
		los := make([]string, ref.Rank())
		for d := range los {
			los[d] = bd.bound(ref.Lo(d))
		}
		mat := locals[ref.Matrix]
		if ref.Var.Kind == ir.Cell && !macro {
			bd.binds = append(bd.binds, binding{mat: mat, idx: strings.Join(los, ", ")})
			continue
		}
		his := make([]string, ref.Rank())
		for d := range his {
			his[d] = bd.bound(ref.Hi(d))
		}
		v := fmt.Sprintf("vw%d", views)
		if macro {
			v = fmt.Sprintf("mv%d", views)
		}
		views++
		fmt.Fprintf(&b, "%s%s := %s.Region([]int{%s}, []int{%s})\n", indent, v, mat, strings.Join(los, ", "), strings.Join(his, ", "))
		bd.binds = append(bd.binds, binding{mat: v, view: true})
	}
	b.WriteString(bd.stmts(r.Body, indent))
	return b.String(), bd.err
}

// bound renders b as a Go integer expression over the cv_ loop
// variables and the sizes.
func (bd *body) bound(b symbolic.Affine) string {
	center, aff := bd.r.Split(b)
	for k, c := range center {
		if !c.IsZero() {
			aff = aff.Add(symbolic.AffineVar("cv_" + bd.r.Info.CenterVars[k]).Scale(c))
		}
	}
	return affineGo(aff)
}

// unsup records the first construct Go emission does not support.
func (bd *body) unsup(construct, detailFmt string, args ...any) string {
	if bd.err == nil {
		bd.err = bd.r.Unsup(construct, detailFmt, args...)
	}
	return ""
}

// view is the Go view variable of a name bound as a view.
func (bd *body) view(v *ir.Var) (string, bool) {
	if v.Kind != ir.Cell && v.Kind != ir.View || !bd.binds[v.N].view {
		return "", false
	}
	return bd.binds[v.N].mat, true
}

func (bd *body) stmts(list []ir.Stmt, indent string) string {
	var b strings.Builder
	for _, s := range list {
		b.WriteString(bd.stmt(s, indent))
	}
	return b.String()
}

func (bd *body) stmt(s ir.Stmt, indent string) string {
	switch st := s.(type) {
	case *ir.Decl:
		init := "0"
		if st.Init != nil {
			init = bd.fexpr(st.Init)
			if st.Int {
				init = "math.Trunc(" + init + ")"
			}
		}
		return fmt.Sprintf("%svar lv_%s float64 = %s\n%s_ = lv_%s\n", indent, st.Var.Name, init, indent, st.Var.Name)
	case *ir.Assign:
		return bd.assign(st, indent)
	case *ir.Store:
		idx := bd.indices(st.At)
		return set(indent, bd.binds[st.At.View.N].mat, idx, st.Op, bd.fexpr(st.RHS))
	case *ir.IncDec:
		if st.Var.Kind != ir.Local {
			return bd.unsup("incdec-target", "%q is not a local", st.Var.Name)
		}
		op := "++"
		if st.Dec {
			op = "--"
		}
		return fmt.Sprintf("%slv_%s%s\n", indent, st.Var.Name, op)
	case *ir.If:
		cond := bd.fexpr(st.Cond)
		out := fmt.Sprintf("%sif (%s) != 0 {\n%s%s}", indent, cond, bd.stmts(st.Then, indent+"\t"), indent)
		if st.Else != nil {
			out += fmt.Sprintf(" else {\n%s%s}", bd.stmts(st.Else, indent+"\t"), indent)
		}
		return out + "\n"
	case *ir.For:
		// The whole loop lives in its own Go block so sibling loops may
		// redeclare the same induction variable (C scoping semantics).
		var init, post string
		if st.Init != nil {
			init = bd.stmt(st.Init, indent+"\t")
		}
		cond := bd.fexpr(st.Cond)
		body := bd.stmts(st.Body, indent+"\t\t")
		if st.Post != nil {
			post = bd.stmt(st.Post, indent+"\t\t")
		}
		return fmt.Sprintf("%s{\n%s%s\tfor (%s) != 0 {\n%s%s%s\t}\n%s}\n",
			indent, init, indent, cond, body, post, indent, indent)
	case *ir.Eval:
		return fmt.Sprintf("%s_ = %s\n", indent, bd.fexpr(st.X))
	}
	return bd.unsup("unknown-statement", "%T", s)
}

// set renders `mat[idx] op= rhs` through Mat.Get and Mat.Set.
func set(indent, mat, idx, op, rhs string) string {
	if op != "=" {
		rhs = fmt.Sprintf("%s.Get(%s)%c(%s)", mat, idx, op[0], rhs)
	}
	return fmt.Sprintf("%s%s.Set(%s, %s)\n", indent, mat, rhs, idx)
}

func (bd *body) assign(st *ir.Assign, indent string) string {
	v := st.To
	if vw, ok := bd.view(v); ok {
		if st.Op != "=" {
			return bd.unsup("assign-op", "%q on region binding %q", st.Op, v.Name)
		}
		return fmt.Sprintf("%s%s.CopyFrom(%s)\n", indent, vw, bd.mexpr(st.RHS))
	}
	rhs := bd.fexpr(st.RHS)
	switch {
	case st.Def:
		return fmt.Sprintf("%slv_%s := %s\n%s_ = lv_%s\n", indent, v.Name, rhs, indent, v.Name)
	case v.Kind == ir.Local:
		return fmt.Sprintf("%slv_%s %s %s\n", indent, v.Name, st.Op, rhs)
	case v.Kind == ir.Cell:
		return set(indent, bd.binds[v.N].mat, bd.binds[v.N].idx, st.Op, rhs)
	}
	return bd.unsup("assign-target", "%q", v.Name)
}

// fexpr renders a body expression as a float64 Go expression.
func (bd *body) fexpr(e ir.Expr) string {
	switch x := e.(type) {
	case ir.Num:
		if x.IsFl {
			return fmt.Sprintf("%g", x.Val)
		}
		return fmt.Sprintf("float64(%d)", int64(x.Val))
	case *ir.Var:
		switch x.Kind {
		case ir.Local:
			return "lv_" + x.Name
		case ir.Center:
			return "float64(cv_" + x.Name + ")"
		case ir.Size:
			return "float64(" + x.Name + ")"
		}
		if _, ok := bd.view(x); ok {
			return bd.unsup("region-as-scalar", "%q", x.Name)
		}
		return fmt.Sprintf("%s.Get(%s)", bd.binds[x.N].mat, bd.binds[x.N].idx)
	case *ir.Unary:
		if x.Op == "-" {
			return "-(" + bd.fexpr(x.X) + ")"
		}
		return "b2f((" + bd.fexpr(x.X) + ") == 0)"
	case *ir.Binary:
		l, r := bd.fexpr(x.L), bd.fexpr(x.R)
		switch x.Op {
		case "+", "-", "*", "/":
			return "(" + l + " " + x.Op + " " + r + ")"
		case "%":
			return "math.Mod(" + l + ", " + r + ")"
		case "&&", "||":
			return "b2f((" + l + ") != 0 " + x.Op + " (" + r + ") != 0)"
		}
		return "b2f(" + l + " " + x.Op + " " + r + ")"
	case *ir.Cond:
		c, a := bd.fexpr(x.C), bd.fexpr(x.A)
		return fmt.Sprintf("pbIf((%s) != 0, %s, %s)", c, a, bd.fexpr(x.B))
	case *ir.Index:
		idx := bd.indices(x)
		return fmt.Sprintf("%s.Get(%s)", bd.binds[x.View.N].mat, idx)
	case *ir.Call:
		return bd.call(x)
	}
	return bd.unsup("unknown-expression", "%T", e)
}

// indices renders an index list as Go ints: exact integer arithmetic
// for an index with an affine form, a truncated float64 otherwise.
func (bd *body) indices(x *ir.Index) string {
	out := make([]string, len(x.Args))
	for i, a := range x.Args {
		if aff, ok := x.Affine(i); ok {
			out[i] = bd.bound(aff)
		} else {
			out[i] = "int(" + bd.fexpr(a) + ")"
		}
	}
	return strings.Join(out, ", ")
}

var goBuiltins = map[ir.Builtin]string{
	ir.Abs: "math.Abs", ir.Sqrt: "math.Sqrt", ir.Floor: "math.Floor", ir.Ceil: "math.Ceil",
	ir.Pow: "math.Pow", ir.Min: "math.Min", ir.Max: "math.Max", ir.Sum: "pbSum", ir.Dot: "pbDot",
}

func (bd *body) call(x *ir.Call) string {
	fn := goBuiltins[x.Builtin]
	switch x.Builtin {
	case ir.Abs, ir.Sqrt, ir.Floor, ir.Ceil:
		return fn + "(" + bd.fexpr(x.Args[0]) + ")"
	case ir.Pow, ir.Min, ir.Max:
		// Fold the arguments left to right.
		out := bd.fexpr(x.Args[0])
		for _, a := range x.Args[1:] {
			out = fn + "(" + out + ", " + bd.fexpr(a) + ")"
		}
		return out
	case ir.Sum, ir.Dot:
		return fn + "(" + bd.mexprs(x.Args) + ")"
	}
	// A transform call returns its (single) output matrix.
	sub, ok := bd.g.byName[x.Fn]
	switch {
	case !ok || x.Builtin != ir.Transform:
		return bd.unsup("unknown-function", "%q", x.Fn)
	case len(sub.Transform.To) != 1:
		return bd.unsup("transform-call", "%s has %d outputs", x.Fn, len(sub.Transform.To))
	}
	return "PB_" + x.Fn + "(" + bd.mexprs(x.Args) + ")"
}

func (bd *body) mexprs(list []ir.Expr) string {
	out := make([]string, len(list))
	for i, a := range list {
		out[i] = bd.mexpr(a)
	}
	return strings.Join(out, ", ")
}

// mexpr renders an expression whose value is a matrix.
func (bd *body) mexpr(e ir.Expr) string {
	switch x := e.(type) {
	case *ir.Var:
		if vw, ok := bd.view(x); ok {
			return vw
		}
		return bd.unsup("region-binding", "%q is not a region binding", x.Name)
	case *ir.Call:
		return bd.call(x)
	}
	return bd.unsup("matrix-expression", "%T is not a matrix", e)
}
