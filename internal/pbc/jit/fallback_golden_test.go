package jit_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/pbc/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fallback_golden.txt from the current lowerer")

// goldenGenCases is how many gen.Next programs of seed 1 the golden
// covers, as in the analysis goldens.
const goldenGenCases = 200

// goldenSizes are the two size bindings the golden records every rule
// at. n binds every size variable of a generated or benchmark program;
// corpus gives the example corpus its own sizes, keyed by source.
var goldenSizes = []struct {
	title  string
	n      int64
	corpus map[string]map[string]int64
}{
	{"corpus at its fixed sizes, every other size variable 16", 16, map[string]map[string]int64{
		parser.RollingSumSrc:     {"n": 8},
		parser.MatrixMultiplySrc: {"w": 4, "c": 4, "h": 4},
		parser.MergeSortSrc:      {"n": 8, "a": 4, "b": 4},
		parser.Heat1DSrc:         {"n": 8},
		parser.SummedAreaSrc:     {"w": 4, "h": 4},
	}},
	{"every size variable 32, Merge's a and b 16", 32, map[string]map[string]int64{
		parser.RollingSumSrc:     {"n": 32},
		parser.MatrixMultiplySrc: {"w": 32, "c": 32, "h": 32},
		parser.MergeSortSrc:      {"n": 32, "a": 16, "b": 16},
		parser.Heat1DSrc:         {"n": 32},
		parser.SummedAreaSrc:     {"w": 32, "h": 32},
	}},
}

// goldenCorpus is the example corpus in golden order.
var goldenCorpus = []string{
	parser.RollingSumSrc, parser.MatrixMultiplySrc, parser.MergeSortSrc,
	parser.Heat1DSrc, parser.SummedAreaSrc,
}

// TestFallbackGolden pins what the bytecode tier makes of the example
// corpus, benchmark/programs/pointwise.pbcc and the first goldenGenCases
// programs of gen seed 1, once per entry of goldenSizes: every rule of
// every transform is run through Compile, and the outcome — the lowered
// program's full disassembly, or the typed construct it fell back on —
// is compared line by line against a committed golden file. Widening
// the lowerable fragment (a rule flips to "lowered"), narrowing it, or
// changing what a rule lowers to all fail this test until the golden is
// regenerated with -update and the diff reviewed.
func TestFallbackGolden(t *testing.T) {
	pointwise, err := os.ReadFile(filepath.Join("..", "..", "..", "benchmark", "programs", "pointwise.pbcc"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, gs := range goldenSizes {
		fmt.Fprintf(&b, "######## %s\n", gs.title)
		for _, src := range goldenCorpus {
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, tr := range prog.Transforms {
				if len(tr.Templates) > 0 {
					fmt.Fprintf(&b, "%s: template (instantiated per use, not lowered directly)\n", tr.Name)
					continue
				}
				res, err := analysis.Analyze(prog, tr)
				if err != nil {
					t.Fatalf("analyze %s: %v", tr.Name, err)
				}
				dumpRules(&b, res, gs.corpus[src])
			}
		}
		b.WriteString("#### benchmark/programs/pointwise.pbcc\n")
		dumpProgram(&b, string(pointwise), "", nil, gs.n)
		g := gen.New(1)
		for i := 0; i < goldenGenCases; i++ {
			c, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "#### %s\n", c.Name)
			if c.WantErr {
				b.WriteString("invalid program\n")
				continue
			}
			dumpProgram(&b, c.Src, c.Main, c.TArgs, gs.n)
		}
	}
	checkGolden(t, b.String())
}

// dumpRules records each rule of res lowered at sizes: its disassembly,
// or the construct it fell back on.
func dumpRules(b *strings.Builder, res *analysis.Result, sizes map[string]int64) {
	for _, ri := range res.Rules {
		p, cerr := jit.Compile(res, ri, sizes)
		if cerr == nil {
			fmt.Fprintf(b, "%s/%s: lowered\n", res.Transform.Name, ri.Rule.Name())
			for _, line := range strings.SplitAfter(p.Disassemble(), "\n") {
				if line != "" {
					b.WriteString("    " + line)
				}
			}
			continue
		}
		construct := cerr.Error()
		var u *ir.Unsupported
		if errors.As(cerr, &u) {
			construct = u.Construct
		}
		fmt.Fprintf(b, "%s/%s: fallback %s\n", res.Transform.Name, ri.Rule.Name(), construct)
	}
}

// dumpProgram lowers every non-template transform of src, plus the
// instance main<targs> when given, binding every size variable to n.
func dumpProgram(b *strings.Builder, src, main string, targs []int64, n int64) {
	prog, err := parser.Parse(src)
	if err != nil {
		fmt.Fprintf(b, "parse error: %v\n", err)
		return
	}
	dump := func(t *ast.Transform) {
		res, err := analysis.Analyze(prog, t)
		if err != nil {
			fmt.Fprintf(b, "%s: analysis error: %v\n", t.Name, err)
			return
		}
		sizes := map[string]int64{}
		for _, v := range res.SizeVars {
			sizes[v] = n
		}
		dumpRules(b, res, sizes)
	}
	for _, t := range prog.Transforms {
		if len(t.Templates) == 0 {
			dump(t)
		}
	}
	if len(targs) > 0 {
		t, ok := prog.Find(main)
		if !ok {
			fmt.Fprintf(b, "%s: not found\n", main)
			return
		}
		inst, err := ast.Instantiate(t, targs)
		if err != nil {
			fmt.Fprintf(b, "%s: instantiate error: %v\n", main, err)
			return
		}
		dump(inst)
	}
}

func checkGolden(t *testing.T, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "fallback_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	bad := 0
	for i := 0; (i < len(gotLines) || i < len(wantLines)) && bad < 20; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
			bad++
		}
	}
	t.Error("jit lowering changed; review and regenerate with: go test ./internal/pbc/jit -run TestFallbackGolden -update")
}
