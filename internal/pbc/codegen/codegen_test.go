package codegen

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	pbparser "petabricks/internal/pbc/parser"
)

func analyzeAll(t *testing.T, src string) []*analysis.Result {
	t.Helper()
	prog, err := pbparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []*analysis.Result
	for _, tr := range prog.Transforms {
		res, err := analysis.Analyze(prog, tr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func TestGenerateRollingSumParses(t *testing.T) {
	results := analyzeAll(t, pbparser.RollingSumSrc)
	src, err := Generate(results, Options{Package: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(src); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	for _, want := range []string{
		"func PB_RollingSum(in_A *Mat) *Mat",
		"func main()",
		"Code generated by pbc",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

// TestGenerateTemplateInstanceParses emits a template instance, which
// the analysis names "Scale<3,-2>", and the main function that calls
// it, and checks that go/parser accepts the text and that both sides
// use one Go identifier for the instance.
func TestGenerateTemplateInstanceParses(t *testing.T) {
	prog, err := pbparser.Parse(`
transform Scale
template <k, j>
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a * k + j; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ast.Instantiate(prog.Transforms[0], []int64{3, -2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, inst)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate([]*analysis.Result{res}, Options{Package: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "scale.go", src, 0); err != nil {
		t.Fatalf("go/parser rejects the emitted source: %v\n%s", err, src)
	}
	for _, want := range []string{"func PB_Scale_3_m2(in_A *Mat) *Mat", ":= PB_Scale_3_m2(in0)"} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q\n%s", want, src)
		}
	}
}

func TestGenerateMatrixMultiplyParses(t *testing.T) {
	results := analyzeAll(t, pbparser.MatrixMultiplySrc)
	cfg := choice.NewConfig()
	// Static config: c-decomposition above 4, base cells below.
	cfg.SetSelector("pbc.MatrixMultiply", choice.Selector{Levels: []choice.Level{
		{Cutoff: 4, Choice: 0},
		{Cutoff: choice.Inf, Choice: 1},
	}})
	src, err := Generate(results, Options{Package: "main", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(src); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	for _, want := range []string{
		"func PB_MatrixMultiply(in_A *Mat, in_B *Mat) *Mat",
		"func PB_MatrixAdd(in_X *Mat, in_Y *Mat) *Mat",
		"pbSize < 4",
		"PB_MatrixAdd(PB_MatrixMultiply(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q\n%s", want, src)
		}
	}
}

func TestGenerateWavefront(t *testing.T) {
	src0 := `
transform Scan
from A[n]
to B[n]
{
  primary to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) l) { b = a + l; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
`
	results := analyzeAll(t, src0)
	src, err := Generate(results, Options{Package: "scan"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(src); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if !strings.Contains(src, "for wf0 :=") {
		t.Errorf("wavefront loop missing:\n%s", src)
	}
}

// runGenerated compiles and runs a generated main package with the Go
// toolchain and returns its stdout.
func runGenerated(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module generated\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s\n--- source ---\n%s", err, out, src)
	}
	return string(out)
}

func TestGeneratedRollingSumRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	results := analyzeAll(t, pbparser.RollingSumSrc)
	// Demo input: data[k] = k%7+1 for k=0..7 → values 1..8 with wrap:
	// [1 2 3 4 5 6 7 1]; inclusive prefix sums sum to Σ (8-i)·a_i.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 1}
	prefix := 0.0
	wantSum := 0.0
	for _, v := range vals {
		prefix += v
		wantSum += prefix
	}
	for rule := 0; rule <= 1; rule++ {
		cfg := choice.NewConfig()
		cfg.SetSelector("pbc.RollingSum", choice.NewSelector(rule))
		src, err := Generate(results, Options{Package: "main", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		out := runGenerated(t, src)
		got := strings.TrimSpace(strings.Split(out, "\n")[0])
		exp := fmt.Sprintf("B checksum %.6f", wantSum)
		if got != exp {
			t.Fatalf("rule %d: generated program printed %q, want %q", rule, got, exp)
		}
	}
}

func TestGeneratedMatrixMultiplyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	results := analyzeAll(t, pbparser.MatrixMultiplySrc)
	// Compute expected checksum for the demo inputs: 8x8 mats with
	// data[k] = k%7+1 in row-major (y, x) order.
	a := make([][]float64, 8)
	b := make([][]float64, 8)
	k := 0
	for y := 0; y < 8; y++ {
		a[y] = make([]float64, 8)
		for x := 0; x < 8; x++ {
			a[y][x] = float64(k%7) + 1
			k++
		}
	}
	k = 0
	for y := 0; y < 8; y++ {
		b[y] = make([]float64, 8)
		for x := 0; x < 8; x++ {
			b[y][x] = float64(k%7) + 1
			k++
		}
	}
	sum := 0.0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			s := 0.0
			for j := 0; j < 8; j++ {
				s += a[y][j] * b[j][x]
			}
			sum += s
		}
	}
	for _, sel := range []choice.Selector{
		choice.NewSelector(0),
		{Levels: []choice.Level{{Cutoff: 4, Choice: 0}, {Cutoff: choice.Inf, Choice: 1}}},
		{Levels: []choice.Level{{Cutoff: 4, Choice: 0}, {Cutoff: choice.Inf, Choice: 2}}},
		{Levels: []choice.Level{{Cutoff: 4, Choice: 0}, {Cutoff: choice.Inf, Choice: 3}}},
	} {
		cfg := choice.NewConfig()
		cfg.SetSelector("pbc.MatrixMultiply", sel)
		src, err := Generate(results, Options{Package: "main", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		out := runGenerated(t, src)
		exp := fmt.Sprintf("AB checksum %.6f", sum)
		if got := strings.TrimSpace(strings.Split(out, "\n")[0]); got != exp {
			t.Fatalf("selector %v: printed %q, want %q", sel, got, exp)
		}
	}
}

func TestGeneratedMergeSortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	// The DSL merge sort: macro recursion, transform calls, for/if
	// bodies, indexed assignments, short-circuit conditions.
	results := analyzeAll(t, pbparser.MergeSortSrc)
	cfg := choice.NewConfig()
	cfg.SetSelector("pbc.MergeSortDSL", choice.Selector{Levels: []choice.Level{
		{Cutoff: 4, Choice: 0},
		{Cutoff: choice.Inf, Choice: 1},
	}})
	src, err := Generate(results, Options{Package: "main", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// The demo main sorts [1 2 3 4 5 6 7 1]; checksum is order-invariant,
	// so verify sortedness by emitting a checker main instead.
	src = strings.Replace(src, "func main() {", `func main() {
	in := NewMat(8)
	vals := []float64{5, 3, 9, 1, 7, 2, 8, 4}
	copy(in.data, vals)
	out := PB_MergeSortDSL(in)
	for i := 1; i < 8; i++ {
		if out.Get(i) < out.Get(i-1) {
			fmt.Println("UNSORTED")
			return
		}
	}
	fmt.Println("SORTED", pbSum(out))
}

func unusedMain() {`, 1)
	out := runGenerated(t, src)
	if !strings.Contains(out, "SORTED 39") {
		t.Fatalf("generated merge sort printed %q", out)
	}
}

func TestGeneratedSummedAreaRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	// Lexicographic wavefront emission: the 2-D prefix-sum recurrence.
	results := analyzeAll(t, pbparser.SummedAreaSrc)
	src, err := Generate(results, Options{Package: "main"})
	if err != nil {
		t.Fatal(err)
	}
	src = strings.Replace(src, "func main() {", `func main() {
	in := NewMat(3, 2) // w=3, h=2
	for k := range in.data {
		in.data[k] = float64(k + 1) // rows: 1 2 3 / 4 5 6
	}
	out := PB_SummedArea(in)
	// B[2,1] = total = 21; B[1,0] = 1+2 = 3; B[0,1] = 1+4 = 5.
	fmt.Println("SAT", out.Get(2, 1), out.Get(1, 0), out.Get(0, 1))
}

func unusedMain() {`, 1)
	out := runGenerated(t, src)
	if !strings.Contains(out, "SAT 21 3 5") {
		t.Fatalf("generated summed-area printed %q", out)
	}
}

func TestGeneratedHeat1DRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain invocation in -short mode")
	}
	results := analyzeAll(t, pbparser.Heat1DSrc)
	src, err := Generate(results, Options{Package: "main"})
	if err != nil {
		t.Fatal(err)
	}
	src = strings.Replace(src, "func main() {", `func main() {
	in := NewMat(5)
	in.data[2] = 4
	out := PB_Heat1D(in) // B is [n, 5 versions]
	// After one step: [0, 1, 2, 1, 0].
	fmt.Println("HEAT", out.Get(1, 1), out.Get(2, 1), out.Get(3, 1), out.Get(0, 1))
}

func unusedMain() {`, 1)
	out := runGenerated(t, src)
	if !strings.Contains(out, "HEAT 1 2 1 0") {
		t.Fatalf("generated heat printed %q", out)
	}
}
