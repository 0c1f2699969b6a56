package parser

import (
	"strings"
	"testing"

	"petabricks/internal/pbc/ast"
)

func TestParseRollingSum(t *testing.T) {
	tr, err := ParseTransform(RollingSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "RollingSum" {
		t.Fatalf("name = %q", tr.Name)
	}
	if len(tr.From) != 1 || tr.From[0].Name != "A" || len(tr.From[0].Dims) != 1 {
		t.Fatalf("from = %+v", tr.From)
	}
	if len(tr.To) != 1 || tr.To[0].Name != "B" {
		t.Fatalf("to = %+v", tr.To)
	}
	if len(tr.Rules) != 2 {
		t.Fatalf("rules = %d", len(tr.Rules))
	}
	r0 := tr.Rules[0]
	if len(r0.To) != 1 || r0.To[0].Kind != ast.RegionCell || r0.To[0].Binding != "b" {
		t.Fatalf("rule0 to = %s", r0.To[0])
	}
	if len(r0.From) != 1 || r0.From[0].Kind != ast.RegionRegion {
		t.Fatalf("rule0 from = %s", r0.From[0])
	}
	r1 := tr.Rules[1]
	if len(r1.From) != 2 || r1.From[1].Binding != "leftSum" {
		t.Fatalf("rule1 from = %v", r1.From)
	}
	// rule1's second dependency is B.cell(i-1).
	dep := r1.From[1]
	if dep.Matrix != "B" || dep.Kind != ast.RegionCell {
		t.Fatalf("rule1 dep = %s", dep)
	}
	if got := ast.ExprString(dep.Args[0]); got != "(i-1)" {
		t.Fatalf("rule1 dep index = %s", got)
	}
}

func TestParseMatrixMultiply(t *testing.T) {
	prog, err := Parse(MatrixMultiplySrc)
	if err != nil {
		t.Fatal(err)
	}
	mm, ok := prog.Find("MatrixMultiply")
	if !ok {
		t.Fatal("MatrixMultiply not found")
	}
	if len(mm.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(mm.Rules))
	}
	if len(mm.From) != 2 || len(mm.To) != 1 {
		t.Fatalf("header: from=%d to=%d", len(mm.From), len(mm.To))
	}
	// Rule 2 (c-decomposition) body is a nested transform call.
	body := mm.Rules[1].Body
	if len(body) != 1 {
		t.Fatalf("rule1 body stmts = %d", len(body))
	}
	asg, ok := body[0].(*ast.Assign)
	if !ok {
		t.Fatalf("rule1 body not assignment: %T", body[0])
	}
	call, ok := asg.RHS.(*ast.Call)
	if !ok || call.Fn != "MatrixAdd" || len(call.Args) != 2 {
		t.Fatalf("rule1 RHS = %s", ast.ExprString(asg.RHS))
	}
	if _, ok := prog.Find("MatrixAdd"); !ok {
		t.Fatal("MatrixAdd not found")
	}
	// Rules 3/4 write two disjoint regions of AB.
	if len(mm.Rules[2].To) != 2 || mm.Rules[2].To[0].Kind != ast.RegionRegion {
		t.Fatalf("rule2 to = %v", mm.Rules[2].To)
	}
}

func TestParseHeaderFeatures(t *testing.T) {
	src := `
transform Iterate
from X[n]
to Y<0..k>[n]
through T[n]
generator RandomVec
tunable blocksize(8, 512, 64)
tunable plain
{
  to (Y.cell(i) y) from (X.cell(i) x) { y = x; }
}
`
	tr, err := ParseTransform(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Generator != "RandomVec" {
		t.Fatalf("generator = %q", tr.Generator)
	}
	if len(tr.Through) != 1 || tr.Through[0].Name != "T" {
		t.Fatalf("through = %+v", tr.Through)
	}
	if len(tr.Tunables) != 2 {
		t.Fatalf("tunables = %+v", tr.Tunables)
	}
	tb := tr.Tunables[0]
	if tb.Name != "blocksize" || tb.Min != 8 || tb.Max != 512 || tb.Defalt != 64 {
		t.Fatalf("tunable = %+v", tb)
	}
	y := tr.To[0]
	if y.Version == nil {
		t.Fatal("version range missing")
	}
	if got := len(y.EffectiveDims()); got != 2 {
		t.Fatalf("effective dims = %d, want 2 (versions desugar to a dimension)", got)
	}
}

func TestParseTemplates(t *testing.T) {
	src := `
transform Sort
template <T>
from A[n]
to B[n]
{
  to (B b) from (A a) { b = copy(a); }
}
`
	tr, err := ParseTransform(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Templates) != 1 || tr.Templates[0] != "T" {
		t.Fatalf("templates = %v", tr.Templates)
	}
}

func TestParsePrioritiesAndWhere(t *testing.T) {
	src := `
transform Edge
from A[n]
to B[n]
{
  primary to (B.cell(i) b) from (A.cell(i) a, A.cell(i-1) l) where i > 0 {
    b = a + l;
  }
  secondary to (B.cell(i) b) from (A.cell(i) a) {
    b = a;
  }
  priority(2) to (B.cell(i) b) from (A.cell(i) a) {
    b = 0 - a;
  }
}
`
	tr, err := ParseTransform(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rules[0].Priority != 0 || tr.Rules[1].Priority != 1 || tr.Rules[2].Priority != 2 {
		t.Fatalf("priorities = %d %d %d", tr.Rules[0].Priority, tr.Rules[1].Priority, tr.Rules[2].Priority)
	}
	if tr.Rules[0].Where == nil {
		t.Fatal("where clause missing")
	}
	if got := ast.ExprString(tr.Rules[0].Where); got != "(i>0)" {
		t.Fatalf("where = %s", got)
	}
}

func TestParseRawCppEscape(t *testing.T) {
	src := `
transform Ext
from A[n]
to B[n]
{
  to (B b) from (A a) %{ memcpy(b, a, n); }%
}
`
	tr, err := ParseTransform(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Rules[0].RawBody, "memcpy") {
		t.Fatalf("raw body = %q", tr.Rules[0].RawBody)
	}
}

func TestParseBodyStatements(t *testing.T) {
	src := `
transform Body
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, n) a) {
    double acc = 0;
    int j;
    for (j = 0; j < n; j++) {
      if (a.cell(j) > 0) {
        acc += a.cell(j);
      } else {
        acc -= 1;
      }
    }
    b = acc > 100 ? 100 : acc;
  }
}
`
	tr, err := ParseTransform(src)
	if err != nil {
		t.Fatal(err)
	}
	body := tr.Rules[0].Body
	if len(body) != 4 {
		t.Fatalf("body stmts = %d", len(body))
	}
	if _, ok := body[0].(*ast.Decl); !ok {
		t.Fatalf("stmt0 = %T", body[0])
	}
	f, ok := body[2].(*ast.For)
	if !ok {
		t.Fatalf("stmt2 = %T", body[2])
	}
	if f.Init == nil || f.Cond == nil || f.Post == nil || len(f.Body) != 1 {
		t.Fatalf("for = %+v", f)
	}
	ifs, ok := f.Body[0].(*ast.If)
	if !ok || len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Fatalf("if = %+v", f.Body[0])
	}
	if _, ok := body[3].(*ast.Assign); !ok {
		t.Fatalf("stmt3 = %T", body[3])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"transform",                            // missing name
		"transform T from { }",                 // bad from
		"transform T from A[n] to B[n] { to }", // bad rule
		"transform T from A[n] to B[n] { to (B b) from (A a) { b = ; } }",
		"transform T from A[n] to B[n] { to (B b) from (A a) { b = a } }",  // missing semi
		"transform T from A[n] to B[n] { to (B.blob(i) b) from (A a) {} }", // bad accessor
		"transform T from A[n] to B[n] { to (B b) from (A a) %{ x }",       // open escape
		"transform T from A[n] to B[n] { to (B b) from (A a) { 3 = a; } }", // bad lvalue
		"transform T banana A[n] { }",
		"/* unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseMultipleTransforms(t *testing.T) {
	prog, err := Parse(MatrixMultiplySrc + RollingSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Transforms) != 3 {
		t.Fatalf("transforms = %d", len(prog.Transforms))
	}
	if _, ok := prog.Find("NotThere"); ok {
		t.Fatal("Find should miss")
	}
}

func TestRegionRefString(t *testing.T) {
	tr, err := ParseTransform(RollingSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Rules[0].From[0].String(); got != "A.region(0, (i+1)) in" {
		t.Fatalf("String = %q", got)
	}
	if tr.Rules[0].Name() != "rule 0" || tr.Rules[1].Name() != "rule 1" {
		t.Fatal("rule names wrong")
	}
}

func TestRoleStrings(t *testing.T) {
	if ast.RoleFrom.String() != "from" || ast.RoleTo.String() != "to" || ast.RoleThrough.String() != "through" {
		t.Fatal("role strings")
	}
}
