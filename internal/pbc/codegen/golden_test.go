package codegen_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/codegen"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/ir"
	"petabricks/internal/pbc/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/emit from the current generator")

// goldenGenCases is how many gen.Next programs of seed 1 the generated
// golden covers, as in the analysis and bytecode goldens.
const goldenGenCases = 200

// goldenConfigs are the two configurations every program is emitted
// under: the default (rule 0 everywhere) and an extreme one that picks
// each transform's last rule below size 64 and its first from there on,
// so every selector renders as a two-level size branch.
var goldenConfigs = []struct {
	name string
	cfg  func(prog *ast.Program) *choice.Config
}{
	{"default", func(*ast.Program) *choice.Config { return nil }},
	{"extreme", func(prog *ast.Program) *choice.Config {
		cfg := choice.NewConfig()
		for _, t := range prog.Transforms {
			cfg.SetSelector("pbc."+t.Name, choice.Selector{Levels: []choice.Level{
				{Cutoff: 64, Choice: len(t.Rules) - 1},
				{Cutoff: choice.Inf, Choice: 0},
			}})
		}
		return cfg
	}},
}

// emitProgram analyzes every non-template transform of src, plus the
// instance main<targs> when given, and emits them under cfg. It returns
// the Go text, or a one-line account of why there is none.
func emitProgram(src, main string, targs []int64, cfgOf func(*ast.Program) *choice.Config) (string, bool) {
	prog, err := parser.Parse(src)
	if err != nil {
		return fmt.Sprintf("parse error: %v", err), false
	}
	var results []*analysis.Result
	add := func(t *ast.Transform) error {
		res, err := analysis.Analyze(prog, t)
		if err != nil {
			return fmt.Errorf("%s: analysis error: %v", t.Name, err)
		}
		results = append(results, res)
		return nil
	}
	for _, t := range prog.Transforms {
		if len(t.Templates) == 0 {
			if err := add(t); err != nil {
				return err.Error(), false
			}
		}
	}
	if len(targs) > 0 {
		t, ok := prog.Find(main)
		if !ok {
			return main + ": not found", false
		}
		inst, err := ast.Instantiate(t, targs)
		if err != nil {
			return fmt.Sprintf("%s: instantiate error: %v", main, err), false
		}
		if err := add(inst); err != nil {
			return err.Error(), false
		}
	}
	if len(results) == 0 {
		return "no transform to emit", false
	}
	code, err := codegen.Generate(results, codegen.Options{Package: "main", Config: cfgOf(prog)})
	var u *ir.Unsupported
	switch {
	case errors.As(err, &u):
		return fmt.Sprintf("unsupported %s in %s", u.Construct, u.Rule), false
	case err != nil:
		return "error: " + err.Error(), false
	}
	return code, true
}

// TestEmitGoldenCorpus pins the full Go text pbc -emit prints for the
// example corpus and benchmark/programs, at each golden config.
func TestEmitGoldenCorpus(t *testing.T) {
	progs := map[string]string{
		"example-rollingsum":     parser.RollingSumSrc,
		"example-matrixmultiply": parser.MatrixMultiplySrc,
		"example-mergesort":      parser.MergeSortSrc,
		"example-heat1d":         parser.Heat1DSrc,
		"example-summedarea":     parser.SummedAreaSrc,
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "benchmark", "programs", "*.pbcc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark programs (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs["benchmark-"+strings.TrimSuffix(filepath.Base(f), ".pbcc")] = string(src)
	}
	for name, src := range progs {
		for _, gc := range goldenConfigs {
			got, _ := emitProgram(src, "", nil, gc.cfg)
			checkGolden(t, name+"."+gc.name, got)
		}
	}
}

// TestEmitGoldenGenerated pins, for the first goldenGenCases programs of
// gen seed 1 at each golden config, one line per program: the SHA-256
// and length of the emitted text, or why nothing was emitted.
func TestEmitGoldenGenerated(t *testing.T) {
	var b strings.Builder
	for _, gc := range goldenConfigs {
		fmt.Fprintf(&b, "######## %s config\n", gc.name)
		g := gen.New(1)
		for i := 0; i < goldenGenCases; i++ {
			c, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			if c.WantErr {
				fmt.Fprintf(&b, "%s: invalid program\n", c.Name)
				continue
			}
			out, ok := emitProgram(c.Src, c.Main, c.TArgs, gc.cfg)
			if ok {
				out = fmt.Sprintf("sha256 %x, %d bytes", sha256.Sum256([]byte(out)), len(out))
			}
			fmt.Fprintf(&b, "%s: %s\n", c.Name, out)
		}
	}
	checkGolden(t, "gen-seed1", b.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "emit", name+".golden")
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
		t.Fatalf("%v (generate with go test ./internal/pbc/codegen -run EmitGolden -update)", err)
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
