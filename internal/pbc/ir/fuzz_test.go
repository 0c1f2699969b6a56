package ir_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/codegen"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/pbc/parser"
)

// FuzzBackends feeds arbitrary .pbcc text through the front end and both
// backends of the IR: every rule of every analyzed transform is lowered
// by jit.Compile with each size variable bound to 8, and the analyzed
// transforms are emitted by codegen.Generate. Rejections are fine; a
// panic is not — neither one that escapes nor one jit.Compile recovers
// into the "panic" construct, which would quietly leave the rule on the
// AST tier. Run with `go test ./internal/pbc/ir -fuzz=FuzzBackends`.
func FuzzBackends(f *testing.F) {
	for _, src := range []string{parser.RollingSumSrc, parser.MatrixMultiplySrc, parser.MergeSortSrc, parser.Heat1DSrc, parser.SummedAreaSrc} {
		f.Add(src)
	}
	for _, glob := range []string{"../../../testdata/*.pbcc", "../../../benchmark/programs/*.pbcc"} {
		files, _ := filepath.Glob(glob)
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Builtin calls with the wrong number of arguments, which ir.Build
	// must reject before a backend indexes the argument list.
	for _, body := range []string{"b = pow(a);", "b = min();", "b = max();", "b = sum();", "b = dot(a);"} {
		f.Add("transform T from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { " + body + " } }")
	}
	// A cell rule whose output index is the largest int64: its cell's
	// upper bound is one past it, which only a view may ask for.
	f.Add("transform T from A[n] to B[n] { to (B.cell(i) b) from (A.cell(i) a) { b = a; } " +
		"to (B.cell(i + 4611686018427387904 - 1 + 4611686018427387904) b) from (A.cell(i) a) { b = a; } }")
	// An index whose affine form only fits int64 before emitted Go puts
	// it over a common denominator.
	f.Add("transform T from A[n] to B[n] { to (B.cell(i) b) from (A.region(0, n) a) { " +
		"b = a.cell(4611686018427387904 - 1 + 4611686018427387904 + i/2); } }")
	g := gen.New(1)
	for range 40 {
		c, err := g.Next()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return // keeps each run short; the front end's own fuzzers cover size
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		var results []*analysis.Result
		for _, tr := range prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			res, err := analysis.Analyze(prog, tr)
			if err != nil {
				continue
			}
			results = append(results, res)
			sizes := map[string]int64{}
			for _, v := range res.SizeVars {
				sizes[v] = 8
			}
			for _, ri := range res.Rules {
				_, err := jit.Compile(res, ri, sizes)
				if u := (*ir.Unsupported)(nil); errors.As(err, &u) && u.Construct == "panic" {
					t.Fatalf("jit.Compile panicked on %s/%s: %s", tr.Name, ri.Rule.Name(), u.Detail)
				}
			}
		}
		if len(results) > 0 {
			codegen.Generate(results, codegen.Options{})
		}
	})
}
