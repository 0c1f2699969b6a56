package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/parser"
)

// benchPrograms parses benchmark/programs/*.pbcc — the set a boot_cold
// op analyzes — keyed by file stem.
func benchPrograms(t testing.TB) map[string]*ast.Program {
	t.Helper()
	files, err := filepath.Glob("../../../benchmark/programs/*.pbcc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark programs (%v)", err)
	}
	out := map[string]*ast.Program{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".pbcc")] = prog
	}
	return out
}

// analyzeAll analyzes every non-template transform of prog, as
// interp.New does.
func analyzeAll(t testing.TB, prog *ast.Program) {
	for _, tr := range prog.Transforms {
		if len(tr.Templates) > 0 {
			continue
		}
		if _, err := analysis.Analyze(prog, tr); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkAnalyze/<program> is the developer view of what interp.New
// costs per program: go test ./internal/pbc/analysis -run '^$' -bench Analyze -benchmem
func BenchmarkAnalyze(b *testing.B) {
	progs := benchPrograms(b)
	for _, name := range []string{"heat1d", "summedarea", "matmul", "mergesort", "rollingsum", "pointwise"} {
		prog := progs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analyzeAll(b, prog)
			}
		})
	}
}

// analyzeAllocCeilings is 1.5x the allocations analyzeAll measured per
// program when the symbolic layer moved off maps (825 / 679 / 561 / 238
// / 207 / 99, against 11 680 / 9 238 / 5 151 / 831 / 1 682 / 471 before):
// a regression to per-step allocation in symbolic or analysis trips it
// long before the benchmark's boot_cold bound does.
var analyzeAllocCeilings = map[string]float64{
	"heat1d":     1235,
	"summedarea": 1015,
	"matmul":     840,
	"mergesort":  355,
	"rollingsum": 310,
	"pointwise":  148,
}

func TestAnalyzeAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for name, prog := range benchPrograms(t) {
		ceiling, ok := analyzeAllocCeilings[name]
		if !ok {
			t.Errorf("%s: no allocation ceiling recorded", name)
			continue
		}
		got := testing.AllocsPerRun(20, func() { analyzeAll(t, prog) })
		if got > ceiling {
			t.Errorf("%s: %.0f allocations per analysis, ceiling %.0f", name, got, ceiling)
		}
		t.Logf("%s: %.0f allocations per analysis (ceiling %.0f)", name, got, ceiling)
	}
}
