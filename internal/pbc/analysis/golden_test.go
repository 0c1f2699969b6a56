package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/pbc/symbolic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current implementation")

// goldenGenCases is how many gen.Next programs of seed 1 the generated
// golden file covers.
const goldenGenCases = 200

// dumpResult renders everything the analysis decides about one
// transform: the three public renderings plus the fields they leave out
// (assumptions, per-rule applicable regions and dependency annotations,
// edge insertion order, step edges). The golden files pin this text, so
// a change to the symbolic layer that is meant to alter only cost cannot
// alter a proof, an ordering or a rendering unnoticed.
func dumpResult(b *strings.Builder, res *analysis.Result) {
	fmt.Fprintf(b, "min_input_size: %d\n", res.MinInputSize)
	fmt.Fprintf(b, "size_vars: %s\n", strings.Join(res.SizeVars, " "))
	names := make([]string, 0, len(res.Assume))
	for v := range res.Assume {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		vb := res.Assume[v]
		fmt.Fprintf(b, "assume %s: lo=%s hi=%s\n", v, boundString(vb.Lo), boundString(vb.Hi))
	}
	for _, name := range res.Order {
		mi := res.Matrices[name]
		dims := make([]string, len(mi.Dims))
		for i, d := range mi.Dims {
			dims[i] = d.String()
		}
		fmt.Fprintf(b, "matrix %s role=%d dims=[%s] domain=%s\n", name, mi.Role, strings.Join(dims, ", "), mi.Domain)
	}
	for _, ri := range res.Rules {
		fmt.Fprintf(b, "rule %d %s center=[%s]\n", ri.Rule.Index, ri.Kind, strings.Join(ri.CenterVars, ","))
		ms := make([]string, 0, len(ri.Applicable))
		for m := range ri.Applicable {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			fmt.Fprintf(b, "  applicable %s = %s\n", m, ri.Applicable[m])
		}
		for _, dep := range ri.Deps {
			fmt.Fprintf(b, "  dep %s %s", dep.Matrix, dep.Region)
			for d := range dep.Dir {
				fmt.Fprintf(b, " %s", dep.Dir[d])
				if dep.Offset[d] != nil {
					fmt.Fprintf(b, "(%s)", dep.Offset[d])
				}
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("-- grids\n")
	b.WriteString(res.RenderGrids())
	b.WriteString("-- graph\n")
	b.WriteString(res.RenderGraph())
	b.WriteString("-- edge order\n")
	for _, e := range res.Graph.Edges {
		fmt.Fprintf(b, "%d->%d", e.From.ID, e.To.ID)
		for _, a := range e.Annots {
			fmt.Fprintf(b, " %s", a)
			for d := range a.Offset {
				if a.Offset[d] != nil {
					fmt.Fprintf(b, "[%d:%s]", d, a.Offset[d])
				}
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("-- schedule\n")
	b.WriteString(res.RenderSchedule())
	for i, s := range res.Schedule {
		fmt.Fprintf(b, "step %d: cyclic=%v dim=%d dir=%d lex=%v\n", i, s.Cyclic, s.IterDim, s.IterDir, s.Lex)
	}
	fmt.Fprintf(b, "step_edges: %v\n", res.StepEdges)
}

func boundString(bd symbolic.Bound) string {
	if !bd.Set {
		return "-"
	}
	return bd.Val.String()
}

// dumpProgram analyzes every non-template transform of src, plus the
// instance main<targs> when given, and renders results and errors.
func dumpProgram(b *strings.Builder, src, main string, targs []int64) {
	prog, err := parser.Parse(src)
	if err != nil {
		fmt.Fprintf(b, "parse error: %v\n", err)
		return
	}
	dump := func(t *ast.Transform) {
		fmt.Fprintf(b, "== %s\n", t.Name)
		res, err := analysis.Analyze(prog, t)
		if err != nil {
			fmt.Fprintf(b, "error: %v\n", err)
			return
		}
		dumpResult(b, res)
	}
	for _, t := range prog.Transforms {
		if len(t.Templates) > 0 {
			continue
		}
		dump(t)
	}
	if len(targs) > 0 {
		t, ok := prog.Find(main)
		if !ok {
			fmt.Fprintf(b, "== %s: not found\n", main)
			return
		}
		inst, err := ast.Instantiate(t, targs)
		if err != nil {
			fmt.Fprintf(b, "== %s: instantiate error: %v\n", main, err)
			return
		}
		dump(inst)
	}
}

// corpusPrograms returns every hand-written program of the repository:
// testdata/*.pbcc, benchmark/programs/*.pbcc and the sources the
// examples/ binaries embed (parser.*Src).
func corpusPrograms(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{
		"example-rollingsum":     parser.RollingSumSrc,
		"example-matrixmultiply": parser.MatrixMultiplySrc,
		"example-mergesort":      parser.MergeSortSrc,
		"example-heat1d":         parser.Heat1DSrc,
		"example-summedarea":     parser.SummedAreaSrc,
	}
	for prefix, glob := range map[string]string{
		"testdata":  "../../../testdata/*.pbcc",
		"benchmark": "../../../benchmark/programs/*.pbcc",
	} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs under %s (%v)", glob, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[prefix+"-"+strings.TrimSuffix(filepath.Base(f), ".pbcc")] = string(src)
		}
	}
	return out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/pbc/analysis -run Golden -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestGoldenCorpus pins the full analysis of every hand-written program.
func TestGoldenCorpus(t *testing.T) {
	for name, src := range corpusPrograms(t) {
		var b strings.Builder
		dumpProgram(&b, src, "", nil)
		checkGolden(t, name, b.String())
	}
}

// TestGoldenGenerated pins the analysis of the first goldenGenCases
// programs of gen seed 1, deliberately invalid ones (whose golden text
// is the front end's error) included.
func TestGoldenGenerated(t *testing.T) {
	g := gen.New(1)
	var b strings.Builder
	for i := 0; i < goldenGenCases; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "#### %s\n", c.Name)
		dumpProgram(&b, c.Src, c.Main, c.TArgs)
	}
	checkGolden(t, "gen-seed1", b.String())
}
