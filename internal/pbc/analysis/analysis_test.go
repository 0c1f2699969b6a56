package analysis

import (
	"strings"
	"testing"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/parser"
)

func analyze(t *testing.T, src, name string) *Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := prog.Find(name)
	if !ok {
		t.Fatalf("transform %s not found", name)
	}
	res, err := Analyze(prog, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRollingSumApplicableRegions reproduces §3.1's worked example:
// "In rule 0 … an applicable region of [0, n). In rule 1 … leftSum has
// an applicable region of [1, n) … intersected to get an applicable
// region for rule 1 of [1, n)."
func TestRollingSumApplicableRegions(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	r0 := res.Rules[0].Applicable["B"]
	if r0.String() != "[0, n)" {
		t.Errorf("rule 0 applicable = %s, want [0, n)", r0)
	}
	r1 := res.Rules[1].Applicable["B"]
	if r1.String() != "[1, n)" {
		t.Errorf("rule 1 applicable = %s, want [1, n)", r1)
	}
}

// TestRollingSumChoiceGrid reproduces the choice grid of §3.1:
// [0,1) = {rule 0}; [1,n) = {rule 0, rule 1}.
func TestRollingSumChoiceGrid(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	grid := res.Grids["B"]
	if grid == nil || len(grid.Cells) != 2 {
		t.Fatalf("grid = %+v", grid)
	}
	c0, c1 := grid.Cells[0], grid.Cells[1]
	if c0.Region.String() != "[0, 1)" || len(c0.Rules) != 1 || c0.Rules[0].Rule.Index != 0 {
		t.Errorf("cell 0 = %s rules %d", c0.Region, len(c0.Rules))
	}
	if c1.Region.String() != "[1, n)" || len(c1.Rules) != 2 {
		t.Errorf("cell 1 = %s rules %d", c1.Region, len(c1.Rules))
	}
	// A is an input: "A is not assigned a choice grid because it is an
	// input."
	if _, ok := res.Grids["A"]; ok {
		t.Error("input matrix A must not get a choice grid")
	}
}

// TestRollingSumCDG reproduces Figure 4: three nodes, the A→B edges
// annotated (r0,<=),(r1,=), the B[0,1)→B[1,n) edge and the self edge
// annotated (r1,=,-1).
func TestRollingSumCDG(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	g := res.Graph
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	text := res.RenderGraph()
	for _, want := range []string{
		"node A.region(0, n) [input]",
		"node B.region(0, 1)  Choices: r0",
		"node B.region(1, n)  Choices: r0, r1",
		"edge A.region(0, n) -> B.region(1, n)  (r0,<=),(r1,=)",
		"edge B.region(0, 1) -> B.region(1, n)  (r1,=,-1)",
		"edge B.region(1, n) -> B.region(1, n)  (r1,=,-1)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("graph missing %q:\n%s", want, text)
		}
	}
}

func TestRollingSumSchedule(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	if len(res.Schedule) != 2 {
		t.Fatalf("schedule steps = %d:\n%s", len(res.Schedule), res.RenderSchedule())
	}
	// B[0,1) first, then B[1,n) iterated ascending (the self edge has
	// offset -1).
	s0, s1 := res.Schedule[0], res.Schedule[1]
	if s0.Nodes[0].Label() != "B.region(0, 1)" || s0.Cyclic {
		t.Errorf("step 0 = %+v", s0)
	}
	if s1.Nodes[0].Label() != "B.region(1, n)" || !s1.Cyclic || s1.IterDir != 1 || s1.IterDim != 0 {
		t.Errorf("step 1 = %+v", s1)
	}
}

func TestMatrixMultiplyAnalysis(t *testing.T) {
	res := analyze(t, parser.MatrixMultiplySrc, "MatrixMultiply")
	// Rule 0 is the cell rule covering all of AB.
	if res.Rules[0].Kind != RuleCell {
		t.Fatal("rule 0 should be a cell rule")
	}
	if got := res.Rules[0].Applicable["AB"].String(); got != "[0, w)x[0, h)" {
		t.Errorf("rule 0 applicable = %s", got)
	}
	// Rules 1-3 are whole-matrix macro choices.
	grid := res.Grids["AB"]
	if len(grid.Macro) != 3 {
		t.Fatalf("macro rules = %d, want 3", len(grid.Macro))
	}
	if len(grid.Cells) != 1 || len(grid.Cells[0].Rules) != 1 {
		t.Fatalf("grid cells = %+v", grid.Cells)
	}
	// No cycles: single simple step.
	if len(res.Schedule) != 1 || res.Schedule[0].Cyclic {
		t.Fatalf("schedule:\n%s", res.RenderSchedule())
	}
	// Size variables are c, h, w.
	if len(res.SizeVars) != 3 {
		t.Fatalf("size vars = %v", res.SizeVars)
	}
}

func TestPriorityFiltering(t *testing.T) {
	// Secondary rule provides the corner case; primary wins elsewhere —
	// the paper's "if the user had only provided rule 1, he could have
	// added special handler for [0, 1) by specifying a secondary rule".
	src := `
transform P
from A[n]
to B[n]
{
  primary to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) l) { b = a + l; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
`
	res := analyze(t, src, "P")
	grid := res.Grids["B"]
	if len(grid.Cells) != 2 {
		t.Fatalf("cells = %d", len(grid.Cells))
	}
	// [0,1): only the secondary applies (primary excluded by bounds).
	if len(grid.Cells[0].Rules) != 1 || grid.Cells[0].Rules[0].Rule.Index != 1 {
		t.Errorf("cell [0,1) rules wrong")
	}
	// [1,n): primary shadows secondary.
	if len(grid.Cells[1].Rules) != 1 || grid.Cells[1].Rules[0].Rule.Index != 0 {
		t.Errorf("cell [1,n) should keep only the primary, got %d rules", len(grid.Cells[1].Rules))
	}
}

func TestWhereClauseSplitsGrid(t *testing.T) {
	src := `
transform W
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i < n/2 { b = a; }
  to (B.cell(i) b) from (A.cell(i) a) where i >= n/2 { b = a + 1; }
}
`
	res := analyze(t, src, "W")
	grid := res.Grids["B"]
	if len(grid.Cells) != 2 {
		t.Fatalf("where split: cells = %d\n%s", len(grid.Cells), res.RenderGrids())
	}
	if len(grid.Cells[0].Rules) != 1 || grid.Cells[0].Rules[0].Rule.Index != 0 {
		t.Error("low half should use rule 0")
	}
	if len(grid.Cells[1].Rules) != 1 || grid.Cells[1].Rules[0].Rule.Index != 1 {
		t.Error("high half should use rule 1")
	}
}

func TestUncomputableRegionRejected(t *testing.T) {
	// Only rule needs i >= 1, so B[0,1) is uncomputable.
	src := `
transform U
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i-1) a) { b = a; }
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog, prog.Transforms[0]); err == nil {
		t.Fatal("expected uncomputable-region error")
	} else if !strings.Contains(err.Error(), "no rule computes") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Mutual dependency with contradictory directions: B[i] needs B[i+1]
	// and B[i-1] via two mandatory (same priority, intersect everywhere…)
	// rules cannot happen in one rule; build a genuine cycle: B[i]
	// depends on C[i] and C[i] depends on B[i].
	src := `
transform D
from A[n]
to B[n]
through C[n]
{
  to (B.cell(i) b) from (C.cell(i) c) { b = c; }
  to (C.cell(i) c) from (B.cell(i) b) { c = b; }
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(prog, prog.Transforms[0])
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("expected DeadlockError, got %T: %v", err, err)
	}
}

func TestWavefrontCycleResolved(t *testing.T) {
	// A legal cycle: mutual dependency with a strictly negative offset
	// resolves by ascending iteration (no deadlock).
	src := `
transform Wave
from A[n]
to B[n]
through C[n]
{
  to (B.cell(i) b) from (A.cell(i) a, C.cell(i-1) c) { b = a + c; }
  to (C.cell(i) c) from (B.cell(i) b) { c = b; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
  secondary to (C.cell(i) c) from (A.cell(i) a) { c = a; }
}
`
	res := analyze(t, src, "Wave")
	// The B[1,n) and C[...] nodes form an SCC scheduled ascending.
	found := false
	for _, s := range res.Schedule {
		if len(s.Nodes) > 1 {
			found = true
			if !s.Cyclic || s.IterDir != 1 {
				t.Fatalf("wavefront step = %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("expected a merged SCC step:\n%s", res.RenderSchedule())
	}
}

func TestDependencyNormalization(t *testing.T) {
	// Writing cell(i+1) normalizes to center i ("the dependencies would
	// be automatically rewritten to remove the added 1").
	src := `
transform Norm
from A[n]
to B[n]
{
  to (B.cell(i+1) b) from (A.cell(i) a) where i+1 < n { b = a; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
`
	res := analyze(t, src, "Norm")
	// After normalization rule 0's A-dependency reads cell(center-1).
	dep := res.Rules[0].Deps[0]
	if dep.Dir[0] != DirEq {
		t.Fatalf("dir = %v", dep.Dir[0])
	}
	v, ok := dep.Offset[0].IsConst()
	if !ok || v.Int() != -1 {
		t.Fatalf("offset = %v", dep.Offset[0])
	}
}

func TestRenderings(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	if !strings.Contains(res.RenderGrids(), "[1, n) = {rule 0, rule 1}") {
		t.Errorf("grids render:\n%s", res.RenderGrids())
	}
	dot := res.RenderDot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("dot render:\n%s", dot)
	}
	if !strings.Contains(res.RenderSchedule(), "step 0") {
		t.Errorf("schedule render:\n%s", res.RenderSchedule())
	}
}

func TestAnalysisErrors(t *testing.T) {
	bad := map[string]string{
		"unknown read":    `transform T from A[n] to B[n] { to (B.cell(i) b) from (Z.cell(i) z) { b = z; } }`,
		"writes input":    `transform T from A[n] to B[n] { to (A.cell(i) a) from (B.cell(i) b) { a = b; } }`,
		"no outputs":      `transform T from A[n] { to (A.cell(i) a) from (A.cell(i) b) { a = b; } }`,
		"no rules":        `transform T from A[n] to B[n] { }`,
		"dup matrix":      `transform T from A[n], A[m] to B[n] { to (B b) from (A a) { b = a; } }`,
		"two vars":        `transform T from A[n] to B[n] { to (B.cell(i+j) b) from (A.cell(i) a) { b = a; } }`,
		"size collision":  `transform T from A[n] to B[n] { to (B.cell(n) b) from (A.cell(n) a) { b = a; } }`,
		"coeff 2":         `transform T from A[n] to B[n] { to (B.cell(2*i) b) from (A.cell(i) a) { b = a; } }`,
		"unknown written": `transform T from A[n] to B[n] { to (Q.cell(i) q) from (A.cell(i) a) { q = a; } }`,
	}
	for name, src := range bad {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := Analyze(prog, prog.Transforms[0]); err == nil {
			t.Errorf("%s: expected analysis error", name)
		}
	}
}

func TestRuleKindString(t *testing.T) {
	if RuleCell.String() != "cell" || RuleMacro.String() != "macro" {
		t.Fatal("kind strings")
	}
	if DirEq.String() != "=" || DirLE.String() != "<=" || DirGE.String() != ">=" || DirAny.String() != "*" {
		t.Fatal("direction strings")
	}
}

func TestMatrixRolesExposed(t *testing.T) {
	res := analyze(t, parser.MatrixMultiplySrc, "MatrixMultiply")
	if res.Matrices["A"].Role != ast.RoleFrom || res.Matrices["AB"].Role != ast.RoleTo {
		t.Fatal("roles wrong")
	}
}

func TestLexScheduleRendered(t *testing.T) {
	src := `
transform SAT
from A[w, h]
to B[w, h]
{
  primary to (B.cell(x, y) b)
  from (A.cell(x, y) a, B.cell(x-1, y) l, B.cell(x, y-1) u) {
    b = a + l + u;
  }
  secondary to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a; }
}
`
	res := analyze(t, src, "SAT")
	rendered := res.RenderSchedule()
	if !strings.Contains(rendered, "lexicographic") {
		t.Fatalf("schedule should render the lexicographic order:\n%s", rendered)
	}
	// The lex order must make both offsets (-1,0) and (0,-1)
	// lexicographically negative: both dims ascending.
	found := false
	for _, s := range res.Schedule {
		if s.Lex != nil {
			found = true
			for _, ld := range s.Lex {
				if ld.Dir != 1 {
					t.Fatalf("lex dirs should be ascending: %+v", s.Lex)
				}
			}
		}
	}
	if !found {
		t.Fatal("no lex step found")
	}
}

// TestStepEdges checks the step-granular condensation of the choice
// dependency graph: RollingSum's B[0,1) step must precede the B[1,n)
// wavefront step, with no duplicates and no self pairs.
func TestStepEdges(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	if len(res.Schedule) != 2 {
		t.Fatalf("steps = %d", len(res.Schedule))
	}
	if len(res.StepEdges) != 1 || res.StepEdges[0] != [2]int{0, 1} {
		t.Fatalf("StepEdges = %v, want [[0 1]]", res.StepEdges)
	}
	// MatrixMultiply has a single step, so no step edges at all.
	mm := analyze(t, parser.MatrixMultiplySrc, "MatrixMultiply")
	if len(mm.StepEdges) != 0 {
		t.Fatalf("MatrixMultiply StepEdges = %v, want none", mm.StepEdges)
	}
}

// TestAnnotConstOffsets checks offset folding on RollingSum's Figure-4
// edges: the (r1,=,-1) self edge folds to [-1]; the (r0,<=) input edge
// is directional and must not fold.
func TestAnnotConstOffsets(t *testing.T) {
	res := analyze(t, parser.RollingSumSrc, "RollingSum")
	sizes := map[string]int64{"n": 1024}
	var gotEq, gotLE bool
	for _, e := range res.Graph.Edges {
		for _, a := range e.Annots {
			off, ok := a.ConstOffsets(1, sizes)
			switch {
			case a.Dir[0] == DirEq && e.From == e.To:
				gotEq = true
				if !ok || off[0] != -1 {
					t.Fatalf("self edge offsets = %v ok=%v, want [-1] true", off, ok)
				}
			case a.Dir[0] == DirLE:
				gotLE = true
				if ok {
					t.Fatalf("directional (<=) annot must not fold, got %v", off)
				}
			}
			// Wrong arity never folds.
			if _, ok := a.ConstOffsets(3, sizes); ok {
				t.Fatal("ConstOffsets with wrong rank must fail")
			}
		}
	}
	if !gotEq || !gotLE {
		t.Fatalf("edge coverage incomplete: eq=%v le=%v", gotEq, gotLE)
	}
}

// A region bound whose constant fold leaves 64 bits used to wrap (2^62 +
// 2^62 became the most negative integer) and the analysis went on to
// schedule on orders proved from the wrapped value. It is now a
// positioned analysis error, wherever the fold happens.
func TestBoundOverflowRejected(t *testing.T) {
	const big = "4611686018427387904" // 2^62, exact as the parser's float64
	cases := map[string]struct {
		src  string
		line int
	}{
		"from region": {"transform T from A[n] to B[n] {\n to (B.cell(i) b)\n from (A.region(0, i+" + big + "+" + big + ") in) { b = sum(in); } }", 2},
		"product":     {"transform T from A[n] to B[n] {\n to (B.cell(i) b)\n from (A.cell(i*" + big + "*4) a) { b = a; } }", 2},
		"header":      {"transform T\nfrom A[n+" + big + "+" + big + "] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } }", 2},
		"difference":  {"transform T from A[n] to B[n] {\n to (B.cell(i) b)\n from (A.region(i-" + big + "-" + big + "-1, i+" + big + ") in) { b = sum(in); } }", 2},
	}
	for name, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		_, err = Analyze(prog, prog.Transforms[0])
		ae, ok := err.(*Error)
		if !ok || !strings.Contains(ae.Msg, "region bound overflows 64-bit arithmetic") {
			t.Errorf("%s: Analyze error = %v, want a positioned overflow error", name, err)
			continue
		}
		if ae.Pos.Line != c.line {
			t.Errorf("%s: error at %v, want line %d", name, ae.Pos, c.line)
		}
	}
	// The sibling-package entry point reports it the same way.
	prog, err := parser.Parse("transform T from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i+" + big + "+" + big + ") a) { b = a; } }")
	if err != nil {
		t.Fatal(err)
	}
	arg := prog.Transforms[0].Rules[0].From[0].Args[0]
	if _, err := ToSymbolic(arg); err == nil || !strings.Contains(err.Error(), "overflows 64-bit arithmetic") {
		t.Errorf("ToSymbolic error = %v", err)
	}
}
