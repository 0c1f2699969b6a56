package gen

import (
	"math/rand"
	"strings"
	"testing"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/parser"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 10; i++ {
		ca, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ca.Src != cb.Src || ca.Name != cb.Name {
			t.Fatalf("case %d: same seed produced different programs", i)
		}
	}
}

func TestGeneratorCasesValid(t *testing.T) {
	// Next self-validates (parse + analyze + smoke run); this asserts a
	// long streak has no self-check failures and every family shows up.
	n := 150
	if testing.Short() {
		n = 40
	}
	g := New(1)
	fams := map[string]int{}
	for i := 0; i < n; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		fams[c.Family]++
		if c.Name == "" || c.Main == "" || c.MakeInputs == nil {
			t.Fatalf("case %d: incomplete case %+v", i, c)
		}
	}
	if !testing.Short() {
		want := []string{"pointwise", "scan", "stencil", "area2d", "pipe", "recsplit", "template", "reduce", "inplace", "invalid"}
		for _, f := range want {
			if fams[f] == 0 {
				t.Errorf("family %s never generated in %d cases", f, n)
			}
		}
		if len(fams) != len(want) {
			t.Errorf("%d families generated, want %d: %v", len(fams), len(want), fams)
		}
	}
}

// TestInplaceVariants: each shape of the inplace family is well formed
// (or fails its run the way it says it will) and prints to a fixed
// point, on several expression draws.
func TestInplaceVariants(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := New(seed)
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < InplaceVariants; v++ {
			c := g.Inplace(v)
			if err := Validate(c, rng); err != nil {
				t.Errorf("seed %d variant %d: %v\n%s", seed, v, err, c.Src)
			}
			if (c.WantRunErr != "") != (v == 4) {
				t.Errorf("variant %d: WantRunErr = %q", v, c.WantRunErr)
			}
		}
	}
}

func TestGeneratedSourceRoundTripsThroughPrinter(t *testing.T) {
	// ast.Print must render generated programs back to source that
	// parses to the same program — the minimizer depends on this.
	g := New(3)
	rng := rand.New(rand.NewSource(3))
	seen := 0
	for seen < 25 {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c.WantErr {
			continue
		}
		seen++
		prog, err := parser.Parse(c.Src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		printed := ast.Print(prog)
		prog2, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("%s: printed source does not parse: %v\n%s", c.Name, err, printed)
		}
		if ast.Print(prog2) != printed {
			t.Fatalf("%s: printer not a fixed point", c.Name)
		}
		// The re-rendered program must still validate and run.
		c2 := *c
		c2.Src = printed
		if err := Validate(&c2, rng); err != nil {
			t.Fatalf("%s: printed source fails validation: %v\n%s", c.Name, err, printed)
		}
	}
}

func TestMainInstance(t *testing.T) {
	c := &Case{Main: "FzTpl", TArgs: []int64{3}}
	if got := c.MainInstance(); got != "FzTpl<3>" {
		t.Fatalf("MainInstance = %q", got)
	}
	c = &Case{Main: "FzScan"}
	if got := c.MainInstance(); got != "FzScan" {
		t.Fatalf("MainInstance = %q", got)
	}
}

func TestInvalidCasesAreRejectedNotPanicking(t *testing.T) {
	g := New(11)
	found := 0
	for i := 0; i < 400 && found < 10; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !c.WantErr {
			continue
		}
		found++
		if !strings.Contains(c.Src, "FzBad") {
			t.Fatalf("invalid case with unexpected source:\n%s", c.Src)
		}
	}
	if found < 5 {
		t.Fatalf("only %d invalid cases in 400 draws", found)
	}
}
