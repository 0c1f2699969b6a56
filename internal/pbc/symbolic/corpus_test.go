package symbolic_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/pbc/symbolic"
)

// proofContext is the symbolic material of one analyzed transform: the
// endpoints of every region the analysis produced, and the assumption
// sets it reasoned under (sizes only, and sizes plus each cell rule's
// centers at >= 0).
type proofContext struct {
	name      string
	endpoints []*symbolic.Expr
	assumes   []symbolic.Assumptions
}

// corpusContexts analyzes the corpus of analysis' golden files — the
// hand-written programs and the first 200 programs of gen seed 1 — and
// returns one proofContext per transform that analyzes.
func corpusContexts(t testing.TB) []proofContext {
	t.Helper()
	corpusOnce.Do(func() { corpus = buildCorpusContexts(t) })
	return corpus
}

var (
	corpusOnce sync.Once
	corpus     []proofContext
)

func buildCorpusContexts(t testing.TB) []proofContext {
	srcs := map[string]string{
		"rollingsum":     parser.RollingSumSrc,
		"matrixmultiply": parser.MatrixMultiplySrc,
		"mergesort":      parser.MergeSortSrc,
		"heat1d":         parser.Heat1DSrc,
		"summedarea":     parser.SummedAreaSrc,
	}
	for _, glob := range []string{"../../../testdata/*.pbcc", "../../../benchmark/programs/*.pbcc"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs under %s (%v)", glob, err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[f] = string(raw)
		}
	}
	type inst struct {
		main  string
		targs []int64
	}
	insts := map[string]inst{}
	g := gen.New(1)
	for i := 0; i < 200; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		srcs[c.Name] = c.Src
		insts[c.Name] = inst{c.Main, c.TArgs}
	}
	var out []proofContext
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			continue // a deliberately invalid generated program
		}
		var ts []*ast.Transform
		for _, tr := range prog.Transforms {
			if len(tr.Templates) == 0 {
				ts = append(ts, tr)
			}
		}
		if in := insts[name]; len(in.targs) > 0 {
			if tr, ok := prog.Find(in.main); ok {
				if it, err := ast.Instantiate(tr, in.targs); err == nil {
					ts = append(ts, it)
				}
			}
		}
		for _, tr := range ts {
			res, err := analysis.Analyze(prog, tr)
			if err != nil {
				continue
			}
			out = append(out, contextOf(name+"/"+tr.Name, res))
		}
	}
	return out
}

func contextOf(name string, res *analysis.Result) proofContext {
	pc := proofContext{name: name, assumes: []symbolic.Assumptions{res.Assume}}
	seen := map[string]bool{}
	add := func(reg symbolic.Region) {
		for _, iv := range reg {
			for _, e := range []*symbolic.Expr{iv.Begin, iv.End} {
				if s := e.String(); !seen[s] {
					seen[s] = true
					pc.endpoints = append(pc.endpoints, e)
				}
			}
		}
	}
	for _, mi := range res.Matrices {
		add(mi.Domain)
	}
	for _, ri := range res.Rules {
		for _, reg := range ri.Applicable {
			add(reg)
		}
		for _, dep := range ri.Deps {
			add(dep.Region)
		}
		if ri.Kind == analysis.RuleCell {
			a := res.Assume
			for _, v := range ri.CenterVars {
				a = a.WithLo(v, 0)
			}
			pc.assumes = append(pc.assumes, a)
		}
	}
	for _, n := range res.Graph.Nodes {
		add(n.Region)
	}
	return pc
}

// TestCompareOnePassMatchesFourPass: deciding an affine pair from one
// interval of the difference must answer exactly what the equality
// check plus four one-sided proofs answered, on every pair of region
// endpoints the analysis of the corpus produces, under its assumptions.
func TestCompareOnePassMatchesFourPass(t *testing.T) {
	pairs, decided := 0, 0
	for _, pc := range corpusContexts(t) {
		for _, assume := range pc.assumes {
			for _, a := range pc.endpoints {
				for _, b := range pc.endpoints {
					got, want := symbolic.Compare(a, b, assume), symbolic.CompareFourPass(a, b, assume)
					if got != want {
						t.Fatalf("%s: Compare(%s, %s) = %v, four-pass reference %v (assumptions %v)", pc.name, a, b, got, want, assume)
					}
					pairs++
					if got != symbolic.OrderUnknown {
						decided++
					}
				}
			}
		}
	}
	if pairs < 10000 || decided < pairs/4 {
		t.Fatalf("corpus too thin: %d pairs, %d decided", pairs, decided)
	}
	t.Logf("%d pairs, %d decided", pairs, decided)
}

// TestSharedExprConcurrentUse: expressions carry their normal form from
// construction and nothing writes to one afterwards, so engine views
// may reason over shared analysis results at once. Eight goroutines
// compare, substitute into, normalize and render the same expressions;
// run under -race.
func TestSharedExprConcurrentUse(t *testing.T) {
	var pcs []proofContext
	for _, pc := range corpusContexts(t) {
		if len(pcs) < 12 && len(pc.endpoints) > 8 {
			pcs = append(pcs, pc)
		}
	}
	if len(pcs) == 0 {
		t.Fatal("no contexts")
	}
	type answer struct {
		ord      symbolic.Order
		sub, str string
	}
	run := func() []answer {
		var out []answer
		bind := map[string]*symbolic.Expr{"i": symbolic.Add(symbolic.Var("k"), symbolic.Const(1)), "n": symbolic.Min(symbolic.Var("n"), symbolic.Var("m"))}
		for _, pc := range pcs {
			assume := pc.assumes[len(pc.assumes)-1]
			for i, a := range pc.endpoints {
				b := pc.endpoints[(i+3)%len(pc.endpoints)]
				aff, ok := a.Affine()
				str := a.String()
				if ok {
					str += "|" + aff.String() + "|" + aff.Expr().String()
				}
				out = append(out, answer{symbolic.Compare(a, b, assume), a.Substitute(bind).String(), str})
				symbolic.SimplifyMinMax(symbolic.Max(a, b), assume)
			}
		}
		return out
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := run()
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("answer %d: got %+v, want %+v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
