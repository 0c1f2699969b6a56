package ast

import (
	"fmt"
	"strings"
)

// Print renders a program back to PetaBricks source that the parser
// accepts and that parses to an equivalent tree. The fuzzing minimizer
// uses it to re-render a program after dropping rules or transforms; it
// is also handy for golden tests and diagnostics.
func Print(p *Program) string {
	var b strings.Builder
	for i, t := range p.Transforms {
		if i > 0 {
			b.WriteString("\n")
		}
		printTransform(&b, t)
	}
	return b.String()
}

func printTransform(b *strings.Builder, t *Transform) {
	fmt.Fprintf(b, "transform %s\n", t.Name)
	if len(t.Templates) > 0 {
		fmt.Fprintf(b, "template <%s>\n", strings.Join(t.Templates, ", "))
	}
	decls := func(kw string, ds []*MatrixDecl) {
		if len(ds) == 0 {
			return
		}
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = printDecl(d)
		}
		fmt.Fprintf(b, "%s %s\n", kw, strings.Join(parts, ", "))
	}
	decls("from", t.From)
	decls("through", t.Through)
	decls("to", t.To)
	if t.Generator != "" {
		fmt.Fprintf(b, "generator %s\n", t.Generator)
	}
	for _, td := range t.Tunables {
		fmt.Fprintf(b, "tunable %s(%d, %d, %d)\n", td.Name, td.Min, td.Max, td.Defalt)
	}
	b.WriteString("{\n")
	for i, r := range t.Rules {
		if i > 0 {
			b.WriteString("\n")
		}
		printRule(b, r)
	}
	b.WriteString("}\n")
}

func printDecl(d *MatrixDecl) string {
	var b strings.Builder
	b.WriteString(d.Name)
	if d.Version != nil {
		fmt.Fprintf(&b, "<%s..%s>", SourceExpr(d.Version.Lo), SourceExpr(d.Version.Hi))
	}
	if len(d.Dims) > 0 {
		parts := make([]string, len(d.Dims))
		for i, e := range d.Dims {
			parts[i] = SourceExpr(e)
		}
		fmt.Fprintf(&b, "[%s]", strings.Join(parts, ", "))
	}
	return b.String()
}

func printRule(b *strings.Builder, r *Rule) {
	b.WriteString("  ")
	if r.Priority != 0 {
		fmt.Fprintf(b, "priority(%d) ", r.Priority)
	}
	refs := func(rs []*RegionRef) string {
		parts := make([]string, len(rs))
		for i, ref := range rs {
			parts[i] = printRef(ref)
		}
		return strings.Join(parts, ", ")
	}
	fmt.Fprintf(b, "to (%s) from (%s)", refs(r.To), refs(r.From))
	if r.Where != nil {
		fmt.Fprintf(b, " where %s", SourceExpr(r.Where))
	}
	if r.RawBody != "" {
		fmt.Fprintf(b, " %%{%s}%%\n", r.RawBody)
		return
	}
	b.WriteString(" {\n")
	for _, s := range r.Body {
		printStmt(b, s, "    ")
	}
	b.WriteString("  }\n")
}

func printRef(r *RegionRef) string {
	var b strings.Builder
	b.WriteString(r.Matrix)
	if r.Version != nil {
		fmt.Fprintf(&b, "<%s>", SourceExpr(r.Version))
	}
	if r.Kind != RegionAll {
		b.WriteString("." + r.Kind.String() + "(")
		for i, a := range r.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(SourceExpr(a))
		}
		b.WriteString(")")
	}
	if r.Binding != "" {
		b.WriteString(" " + r.Binding)
	}
	return b.String()
}

func printStmt(b *strings.Builder, s Stmt, indent string) {
	switch st := s.(type) {
	case *Assign:
		fmt.Fprintf(b, "%s%s %s %s;\n", indent, SourceExpr(st.LHS), st.Op, SourceExpr(st.RHS))
	case *Decl:
		if st.Init != nil {
			fmt.Fprintf(b, "%s%s %s = %s;\n", indent, st.Type, st.Name, SourceExpr(st.Init))
		} else {
			fmt.Fprintf(b, "%s%s %s;\n", indent, st.Type, st.Name)
		}
	case *If:
		fmt.Fprintf(b, "%sif (%s) {\n", indent, SourceExpr(st.Cond))
		for _, t := range st.Then {
			printStmt(b, t, indent+"  ")
		}
		if len(st.Else) > 0 {
			fmt.Fprintf(b, "%s} else {\n", indent)
			for _, t := range st.Else {
				printStmt(b, t, indent+"  ")
			}
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case *For:
		var init, cond, post string
		if st.Init != nil {
			init = strings.TrimSuffix(strings.TrimSpace(oneStmt(st.Init)), ";")
		}
		if st.Cond != nil {
			cond = SourceExpr(st.Cond)
		}
		if st.Post != nil {
			post = strings.TrimSuffix(strings.TrimSpace(oneStmt(st.Post)), ";")
		}
		fmt.Fprintf(b, "%sfor (%s; %s; %s) {\n", indent, init, cond, post)
		for _, t := range st.Body {
			printStmt(b, t, indent+"  ")
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case *IncDec:
		fmt.Fprintf(b, "%s%s%s;\n", indent, st.Name, st.Op)
	case *ExprStmt:
		fmt.Fprintf(b, "%s%s;\n", indent, SourceExpr(st.X))
	case *Return:
		fmt.Fprintf(b, "%sreturn %s;\n", indent, SourceExpr(st.X))
	default:
		fmt.Fprintf(b, "%s/* ? */;\n", indent)
	}
}

func oneStmt(s Stmt) string {
	var b strings.Builder
	printStmt(&b, s, "")
	return b.String()
}

// SourceExpr renders an expression as parseable source. Unlike
// ExprString (a diagnostic printer), it renders Index nodes with the
// body `.cell(...)` syntax the parser actually accepts, and fully
// parenthesizes so precedence never shifts on a round trip.
func SourceExpr(e Expr) string {
	switch x := e.(type) {
	case *Num:
		if x.IsFl || x.Val != float64(int64(x.Val)) {
			return fmt.Sprintf("%g", x.Val)
		}
		if x.Val < 0 {
			return fmt.Sprintf("(0 - %d)", -int64(x.Val))
		}
		return fmt.Sprintf("%d", int64(x.Val))
	case *Ident:
		return x.Name
	case *Binary:
		return "(" + SourceExpr(x.L) + " " + x.Op + " " + SourceExpr(x.R) + ")"
	case *Unary:
		return "(" + x.Op + SourceExpr(x.X) + ")"
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = SourceExpr(a)
		}
		return x.Fn + "(" + strings.Join(parts, ", ") + ")"
	case *Cond:
		return "(" + SourceExpr(x.C) + " ? " + SourceExpr(x.A) + " : " + SourceExpr(x.B) + ")"
	case *Index:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = SourceExpr(a)
		}
		return x.Base + ".cell(" + strings.Join(parts, ", ") + ")"
	case nil:
		return "0"
	}
	return "0"
}
