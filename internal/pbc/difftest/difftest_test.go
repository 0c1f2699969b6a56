package difftest

import (
	"fmt"
	"path/filepath"
	"testing"

	"petabricks/internal/pbc/gen"
)

// TestOracleCleanOnGeneratedCases is the heart of the PR: a stream of
// generated programs must agree bit-for-bit across the AST interpreter
// vs the compiled tiers, sequential vs pool, and all configurations.
func TestOracleCleanOnGeneratedCases(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	h := New(Options{Seed: 1})
	defer h.Close()
	g := gen.New(1)
	runs := 0
	for i := 0; i < n; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Check(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		runs += res.Runs
		for _, d := range res.Divergences {
			t.Errorf("divergence: %s\nconfig:\n%s\nsource:\n%s", d, d.Config, c.Src)
		}
	}
	if runs == 0 {
		t.Fatal("oracle executed zero runs")
	}
	t.Logf("%d cases, %d runs, 0 divergences", n, runs)
}

// TestInplaceVariantsMatchOracle runs every shape of the inplace family
// — nested-call combiners, strided destinations, a callee that must see
// zeros, a destination aliasing an argument, a mis-shaped result —
// through the whole matrix (tiers × scheduling × plans × configs ×
// warm/cold) on several expression draws. The random stream reaches
// each variant only now and then; this reaches all of them every time.
func TestInplaceVariantsMatchOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	h := New(Options{Seed: 1})
	defer h.Close()
	for _, seed := range seeds {
		g := gen.New(seed)
		for v := 0; v < gen.InplaceVariants; v++ {
			c := g.Inplace(v)
			c.Name = fmt.Sprintf("inplace-s%d-v%d", seed, v)
			res, err := h.Check(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if res.Runs == 0 {
				t.Errorf("%s: oracle executed zero runs", c.Name)
			}
			for _, d := range res.Divergences {
				t.Errorf("divergence: %s\nconfig:\n%s\nsource:\n%s", d, d.Config, c.Src)
			}
		}
	}
}

// TestInjectedBugCaughtMinimizedReplayable walks the acceptance story:
// a deliberately injected interpreter bug must be caught by the oracle,
// minimized, written as a corpus file, and replayable — reproducing
// under the fault and passing without it.
func TestInjectedBugCaughtMinimizedReplayable(t *testing.T) {
	faulty := New(Options{Seed: 1, Fault: FaultInterp})
	defer faulty.Close()
	g := gen.New(2)
	var c *gen.Case
	var d *Divergence
	for i := 0; i < 50 && d == nil; i++ {
		cand, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if cand.WantErr {
			continue
		}
		res, err := faulty.Check(cand)
		if err != nil {
			t.Fatalf("%s: %v", cand.Name, err)
		}
		if len(res.Divergences) > 0 {
			c, d = cand, res.Divergences[0]
		}
	}
	if d == nil {
		t.Fatal("injected interpreter bug was never caught")
	}

	repro, err := faulty.Minimize(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if repro.N > d.N {
		t.Fatalf("minimization grew n: %d > %d", repro.N, d.N)
	}
	// The injected fault perturbs flat cell 3, so the minimal
	// reproducer needs an output with more than 3 cells but shouldn't
	// be larger than that requires for 1-D families.
	t.Logf("minimized %s: n=%d (was %d), %d configs", repro.Case, repro.N, d.N, len(repro.Configs))

	path := filepath.Join(t.TempDir(), repro.Case+".json")
	if err := WriteRepro(path, repro); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}

	// Under the fault the reproducer must still diverge.
	if redo, err := faulty.Replay(loaded); err != nil {
		t.Fatal(err)
	} else if redo == nil {
		t.Fatal("minimized reproducer does not reproduce under the injected fault")
	}

	// On the real (bug-free) engine it must pass cleanly.
	clean := New(Options{Seed: 1})
	defer clean.Close()
	if redo, err := clean.Replay(loaded); err != nil {
		t.Fatal(err)
	} else if redo != nil {
		t.Fatalf("reproducer diverges on the clean engine: %s", redo)
	}
}

// TestCorpusRegressions replays every committed reproducer; each one
// records a bug that is fixed, so the oracle must pass on all of them.
func TestCorpusRegressions(t *testing.T) {
	h := New(Options{Seed: 1})
	defer h.Close()
	dir := filepath.Join("..", "..", "..", "testdata", "fuzz", "pbdiff")
	divs, paths, err := h.ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed reproducers")
	}
	for file, d := range divs {
		t.Errorf("%s: %s", file, d)
	}
	t.Logf("replayed %d reproducers", len(paths))
}

// TestInvalidCasesHandled routes WantErr cases through Check: the front
// end must reject them (an accepted invalid program is reported as a
// frontend divergence, a panic fails the test outright).
func TestInvalidCasesHandled(t *testing.T) {
	h := New(Options{Seed: 5})
	defer h.Close()
	g := gen.New(5)
	seen := 0
	for i := 0; i < 200 && seen < 8; i++ {
		c, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !c.WantErr {
			continue
		}
		seen++
		res, err := h.Check(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Divergences {
			t.Errorf("%s: %s", c.Name, d)
		}
	}
	if seen == 0 {
		t.Fatal("no invalid cases generated")
	}
}
