package ir_test

import (
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/parser"
)

func build(t *testing.T, src string) *ir.Rule {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, prog.Transforms[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := ir.Build(res, res.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBuildScoping pins the C scoping Build applies once for both
// backends: a block's local shadows an outer one only inside the block,
// a local shadows a binding, a binding shadows a center variable, and a
// name nothing binds is a size variable.
func TestBuildScoping(t *testing.T) {
	r := build(t, `
transform S
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) v, A.cell(i) i) {
    double t = i;
    if (t > 0) { double t = 2; b = t; }
    b = t + n;
    double v = 1;
    b = v;
  }
}
`)
	decl := r.Body[0].(*ir.Decl)
	if in := decl.Init.(*ir.Var); in.Kind != ir.Cell {
		t.Errorf("i resolves to %v, want the cell binding that shadows the center variable", in.Kind)
	}
	inner := r.Body[1].(*ir.If).Then[1].(*ir.Assign).RHS.(*ir.Var)
	if inner == decl.Var || inner.Kind != ir.Local {
		t.Errorf("t inside the block resolves to %+v, want the block's own local", inner)
	}
	sum := r.Body[2].(*ir.Assign).RHS.(*ir.Binary)
	if sum.L.(*ir.Var) != decl.Var {
		t.Errorf("t after the block resolves to %+v, want the outer local", sum.L)
	}
	if n := sum.R.(*ir.Var); n.Kind != ir.Size {
		t.Errorf("n resolves to %v, want a size variable", n.Kind)
	}
	if v := r.Body[4].(*ir.Assign).RHS.(*ir.Var); v.Kind != ir.Local {
		t.Errorf("v after its declaration resolves to %v, want the local that shadows the view", v.Kind)
	}
	if r.Locals != 3 {
		t.Errorf("Locals = %d, want 3", r.Locals)
	}
	if bv := r.Refs[1].Var; bv.Kind != ir.View || bv.Rank != 1 || bv.N != 1 {
		t.Errorf("v's binding = %+v, want a rank-1 view, bound ref 1", bv)
	}
}
