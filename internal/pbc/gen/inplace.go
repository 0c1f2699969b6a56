package gen

import "fmt"

// InplaceVariants is the number of program shapes Inplace generates.
const InplaceVariants = 5

// Inplace generates one program of the inplace family: rule bodies that
// assign transform-call results to regions (`b = T(a)`) and feed call
// results straight into other calls (`b = Cat(Rec(lo), Rec(hi))`). The
// compiled tiers hand the callee the caller's region as its output and
// recycle the temporaries in between; the AST oracle allocates and
// copies. Each variant aims at one way those two can come apart:
//
//	0  combiners fed by nested calls: the Merge shape (a recursive
//	   concatenation of two halves) and the MatrixAdd shape (a sum of two
//	   maps), so every level has call temporaries that die in an argument
//	1  2-D column and row splits: destinations are strided views
//	2  a callee that leaves cells unwritten and reads its own output
//	   before writing it, called on a destination dirtied beforehand —
//	   it must see, and leave, zeros
//	3  a destination that shares its matrix with an argument: the very
//	   same region (`b1 = Q(b1)`, which would read its own zero-fill if
//	   aliased) and a disjoint one (`b2 = Q(b1)`) — both must be copied
//	4  a callee whose output shape is not the destination's: every run
//	   must fail with the same error (WantRunErr)
//
// All rules of a transform compute the same exact-integer function, as
// everywhere in this package.
func (g *Generator) Inplace(variant int) *Case {
	rng := g.rng
	cell := func(name, body string) string {
		return "transform " + name + "\nfrom A[n]\nto B[n]\n{\n  to (B.cell(i) b) from (A.cell(i) a) {\n    b = " + body + ";\n  }\n}\n\n"
	}
	c := &Case{Family: "inplace", Main: "FzIn", MinN: 1, MakeInputs: vecInputs("A")}
	switch variant {
	case 0:
		m1, m2 := 1, 1
		p := genExpr(rng, []xp{xref{"a"}, xref{"a"}}, 2, &m1)
		q := genExpr(rng, []xp{xref{"a"}, xref{"a"}}, 2, &m2)
		c.Src = "transform FzCat\nfrom X[p], Y[q]\nto Z[(p + q)]\n{\n" +
			"  to (Z z) from (X x, Y y) {\n" +
			"    for (int k = 0; k < p; k++) {\n      z.cell(k) = x.cell(k);\n    }\n" +
			"    for (int k = 0; k < q; k++) {\n      z.cell((p + k)) = y.cell(k);\n    }\n  }\n}\n\n" +
			"transform FzSum\nfrom X[n], Y[n]\nto Z[n]\n{\n" +
			"  to (Z.cell(i) z) from (X.cell(i) x, Y.cell(i) y) {\n    z = (x + y);\n  }\n}\n\n" +
			cell("FzP", renderX(p)) + cell("FzQ", renderX(rewrite(rng, q))) +
			"transform FzIn\nfrom A[n]\nto B[n]\n{\n" +
			"  to (B.cell(i) b) from (A.cell(i) a) {\n" + renderBody(rng, xbin{"+", p, q}, "b") + "  }\n\n" +
			"  to (B b) from (A.region(0, (n / 2)) lo, A.region((n / 2), n) hi) {\n" +
			"    b = FzCat(FzIn(lo), FzIn(hi));\n  }\n\n" +
			"  to (B b) from (A a) {\n    b = FzSum(FzP(a), FzQ(a));\n  }\n" +
			"}\n"
	case 1:
		muls := 1
		e := genExpr(rng, []xp{xref{"a"}, xref{"a"}}, 2, &muls)
		split := func(r1, r2 string) string {
			return "  to (B.region(" + r1 + ") b1, B.region(" + r2 + ") b2)\n" +
				"  from (A.region(" + r1 + ") a1, A.region(" + r2 + ") a2) {\n" +
				"    b1 = FzIn(a1);\n    b2 = FzIn(a2);\n  }\n"
		}
		c.Src = "transform FzIn\nfrom A[w, h]\nto B[w, h]\n{\n" +
			"  to (B.cell(x, y) b) from (A.cell(x, y) a) {\n" + renderBody(rng, e, "b") + "  }\n\n" +
			split("0, 0, (w / 2), h", "(w / 2), 0, w, h") + "\n" +
			split("0, 0, w, (h / 2)", "0, (h / 2), w, h") +
			"}\n"
		c.MakeInputs = gridInputs("A")
	case 2:
		muls := 1
		e := genExpr(rng, []xp{xref{"@a"}, xref{"@a"}}, 2, &muls)
		thresh := lit(int64(rng.Intn(5) - 2))
		dirt := lit(int64(5 + rng.Intn(4)))
		at := func(operand string) string { return renderX(substX(e, map[string]string{"@a": operand})) }
		c.Src = "transform FzHoles\nfrom A[n]\nto B[n]\n{\n" +
			"  to (B b) from (A a) {\n    for (int k = 0; k < n; k++) {\n" +
			"      if (a.cell(k) > " + thresh + ") {\n        b.cell(k) = (b.cell(k) + " + at("a.cell(k)") + ");\n      }\n" +
			"    }\n  }\n}\n\n" +
			cell("FzDirty", dirt) +
			"transform FzIn\nfrom A[n]\nto B[n]\n{\n" +
			"  to (B.cell(i) b) from (A.cell(i) a) {\n    b = ((a > " + thresh + ") ? " + at("a") + " : 0);\n  }\n\n" +
			"  to (B b) from (A a) {\n    b = FzDirty(a);\n    b = FzHoles(a);\n  }\n\n" +
			"  to (B.region(0, (n / 2)) b1, B.region((n / 2), n) b2)\n" +
			"  from (A.region(0, (n / 2)) a1, A.region((n / 2), n) a2) {\n" +
			"    b1 = FzDirty(a1);\n    b2 = FzDirty(a2);\n    b1 = FzHoles(a1);\n    b2 = FzHoles(a2);\n  }\n" +
			"}\n"
	case 3:
		m1, m2 := 1, 1
		p := genExpr(rng, []xp{xref{"a"}, xref{"a"}}, 2, &m1)
		q := genExpr(rng, []xp{xref{"@p"}, xref{"@p"}}, 2, &m2)
		qOf := func(operand string) string {
			return renderX(substX(q, map[string]string{"@p": operand}))
		}
		qp := qOf(renderX(p))
		c.Src = cell("FzP", renderX(p)) + cell("FzQ", qOf("a")) +
			"transform FzIn\nfrom A[n]\nto B[(2 * n)]\n{\n" +
			"  to (B.cell(i) b) from (A.cell(i) a) {\n    b = " + qp + ";\n  }\n\n" +
			"  to (B.cell(i) b) from (A.cell((i - n)) a) {\n    b = " + qOf(qp) + ";\n  }\n\n" +
			"  to (B.region(0, n) b1, B.region(n, (2 * n)) b2) from (A a) {\n" +
			"    b1 = FzP(a);\n    b1 = FzQ(b1);\n    b2 = FzQ(b1);\n  }\n" +
			"}\n"
	case 4:
		c.Src = "transform FzHalf\nfrom A[n]\nto B[(n / 2)]\n{\n" +
			"  to (B.cell(i) b) from (A.cell(i) a) {\n    b = a;\n  }\n}\n\n" +
			"transform FzIn\nfrom A[n]\nto B[n]\n{\n" +
			"  to (B b) from (A a) {\n    b = FzHalf(a);\n  }\n" +
			"}\n"
		c.WantRunErr = "cannot assign a value of shape"
	default:
		panic(fmt.Sprintf("gen: no inplace variant %d", variant))
	}
	return c
}
