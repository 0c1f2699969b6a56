package autotuner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"petabricks/internal/choice"
)

// modelSpace declares a sort-like search space: one base algorithm, a
// good recursive algorithm, and a bad recursive algorithm.
func modelSpace() *choice.Space {
	sp := &choice.Space{}
	sp.AddSelector(choice.SelectorSpec{
		Transform:   "m",
		ChoiceNames: []string{"BASE", "GOOD", "BAD"},
		Recursive:   []bool{false, true, true},
		MaxLevels:   4,
	})
	return sp
}

// modelCost is an analytic execution model with a known optimum:
// BASE costs n², GOOD costs 20n + 2·C(n/2), BAD costs 300n + 2·C(n/2).
// The optimal algorithm uses GOOD above n≈40 and BASE below.
func modelCost(cfg *choice.Config, n int64) float64 {
	if n <= 1 {
		return 1
	}
	sel := cfg.Selector("m", 0)
	switch sel.Choose(n).Choice {
	case 0:
		return float64(n) * float64(n)
	case 1:
		return 20*float64(n) + 2*modelCost(cfg, n/2)
	default:
		return 300*float64(n) + 2*modelCost(cfg, n/2)
	}
}

func TestTuneFindsComposition(t *testing.T) {
	sp := modelSpace()
	cfg, rep, err := Tune(sp, EvaluatorFunc(modelCost), Options{
		MinSize: 8, MaxSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := cfg.Selector("m", 0)
	if sel.Choose(4096).Choice != 1 {
		t.Fatalf("top-level choice = %d, want GOOD(1); selector %s",
			sel.Choose(4096).Choice, sel.Render([]string{"BASE", "GOOD", "BAD"}))
	}
	if sel.Choose(8).Choice != 0 {
		t.Fatalf("small-size choice = %d, want BASE(0); selector %s",
			sel.Choose(8).Choice, sel.Render([]string{"BASE", "GOOD", "BAD"}))
	}
	// The tuned hybrid must beat every pure algorithm.
	tuned := modelCost(cfg, 4096)
	for c := 0; c < 3; c++ {
		pure := choice.NewConfig()
		pure.SetSelector("m", choice.NewSelector(c))
		if pc := modelCost(pure, 4096); tuned > pc {
			t.Errorf("tuned cost %g worse than pure %d cost %g", tuned, c, pc)
		}
	}
	if len(rep.Steps) == 0 || rep.Final == nil {
		t.Fatal("report incomplete")
	}
}

func TestTuneCutoffNearOptimum(t *testing.T) {
	sp := modelSpace()
	cfg, _, err := Tune(sp, EvaluatorFunc(modelCost), Options{
		MinSize: 8, MaxSize: 8192, Repeats: 2, CutoffCandidates: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := cfg.Selector("m", 0)
	// Analytic crossover is n = 40: BASE below, GOOD above. Accept a
	// generous band since the search is stochastic-ish and discrete.
	if sel.Choose(10).Choice != 0 {
		t.Errorf("n=10 should use BASE: %v", sel)
	}
	if sel.Choose(200).Choice != 1 {
		t.Errorf("n=200 should use GOOD: %v", sel)
	}
}

func TestTuneAvoidsBadChoice(t *testing.T) {
	sp := modelSpace()
	cfg, _, err := Tune(sp, EvaluatorFunc(modelCost), Options{MinSize: 8, MaxSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	sel := cfg.Selector("m", 0)
	for _, l := range sel.Levels {
		if l.Choice == 2 {
			t.Fatalf("tuned selector uses BAD: %v", sel)
		}
	}
}

func TestTunableRefinement(t *testing.T) {
	sp := &choice.Space{}
	sp.AddSelector(choice.SelectorSpec{
		Transform: "m", ChoiceNames: []string{"ONLY"}, MaxLevels: 1,
	})
	sp.AddTunable(choice.TunableSpec{Name: "blk", Min: 1, Max: 4096, Default: 1, LogScale: true})
	// Cost minimized at blk = 32.
	eval := EvaluatorFunc(func(cfg *choice.Config, n int64) float64 {
		v := float64(cfg.Int("blk", 1))
		d := math.Log2(v / 32)
		return float64(n) * (1 + d*d)
	})
	cfg, _, err := Tune(sp, eval, Options{MinSize: 64, MaxSize: 1024, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Int("blk", 1)
	if got < 16 || got > 64 {
		t.Fatalf("tuned blk = %d, want near 32", got)
	}
}

func TestLevelParamSweep(t *testing.T) {
	sp := &choice.Space{}
	sp.AddSelector(choice.SelectorSpec{
		Transform:   "m",
		ChoiceNames: []string{"MS"},
		Recursive:   []bool{true},
		MaxLevels:   2,
		LevelParams: []choice.TunableSpec{{Name: "k", Min: 2, Max: 16, Default: 2}},
	})
	// Cost minimized at k = 8 for large sizes.
	eval := EvaluatorFunc(func(cfg *choice.Config, n int64) float64 {
		k := float64(cfg.Selector("m", 0).Choose(n).Param("k", 2))
		d := math.Log2(k / 8)
		return float64(n) * (1 + d*d)
	})
	cfg, _, err := Tune(sp, eval, Options{MinSize: 64, MaxSize: 1024, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.Selector("m", 0).Choose(1024).Param("k", 2)
	if k < 4 || k > 16 {
		t.Fatalf("tuned k = %d, want near 8", k)
	}
}

func TestSeedPopulationCoversAllChoices(t *testing.T) {
	sp := modelSpace()
	pop := seedPopulation(sp)
	if len(pop) != 3 {
		t.Fatalf("population size %d, want 3", len(pop))
	}
	seen := map[int]bool{}
	for _, c := range pop {
		seen[c.cfg.Selector("m", 0).Choose(100).Choice] = true
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Fatalf("choice %d missing from seeds", i)
		}
	}
}

func TestConsistencyCheckHookFailure(t *testing.T) {
	sp := modelSpace()
	calls := 0
	_, _, err := Tune(sp, EvaluatorFunc(modelCost), Options{
		MinSize: 8, MaxSize: 64,
		Check: func(size int64, cfgs []*choice.Config) error {
			calls++
			if size >= 32 {
				return errors.New("boom")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("expected consistency failure to propagate")
	}
	if calls == 0 {
		t.Fatal("check hook never invoked")
	}
}

func TestInvalidSpaceRejected(t *testing.T) {
	sp := &choice.Space{Tunables: []choice.TunableSpec{{Name: "x", Min: 9, Max: 1, Default: 9}}}
	if _, _, err := Tune(sp, EvaluatorFunc(modelCost), Options{}); err == nil {
		t.Fatal("invalid space should be rejected")
	}
}

func TestNarySpreadBounds(t *testing.T) {
	for _, vals := range [][]int64{
		narySpread(1, 100, 50, 4),
		narySpread(16, 16, 16, 4),
		narySpread(1, 1<<20, 1, 6),
		narySpread(5, 3, 10, 2), // hi < lo clamps
	} {
		for _, v := range vals {
			if v < 1 {
				t.Fatalf("spread produced %d < 1", v)
			}
		}
	}
	vals := narySpread(1, 1000, 100, 5)
	if len(vals) < 3 {
		t.Fatalf("spread too small: %v", vals)
	}
}

type fakeProgram struct {
	outputs map[string]int // keyed by selector rendering
	fail    bool
}

// Run reports 1/(seed+1) seconds, so a best-of-trials measurement from
// seed 0 reads the last trial's.
func (f *fakeProgram) Run(cfg *choice.Config, size, seed int64) (any, float64, error) {
	if f.fail {
		return nil, 0, errors.New("run failed")
	}
	return fmt.Sprintf("%d-%d", size, seed), 1 / float64(seed+1), nil
}

func (f *fakeProgram) Same(a, b any, tol float64) bool { return a == b }

func TestWallClockMeasuresAndDisqualifies(t *testing.T) {
	w := &WallClock{P: &fakeProgram{}, Trials: 2}
	cost := w.Measure(choice.NewConfig(), 10)
	if cost < 0 || cost > 1 {
		t.Fatalf("wall clock cost = %g", cost)
	}
	if cost != 0.5 {
		t.Fatalf("wall clock cost = %g, want the faster trial's reported 0.5s", cost)
	}
	wf := &WallClock{P: &fakeProgram{fail: true}}
	if wf.Measure(choice.NewConfig(), 10) < 1e29 {
		t.Fatal("failing program should be disqualified")
	}
}

func TestConsistencyCheckSamePasses(t *testing.T) {
	hook := ConsistencyCheck(&fakeProgram{}, 0, 7)
	cfgs := []*choice.Config{choice.NewConfig(), choice.NewConfig()}
	if err := hook(100, cfgs); err != nil {
		t.Fatal(err)
	}
	failHook := ConsistencyCheck(&fakeProgram{fail: true}, 0, 7)
	if err := failHook(100, cfgs); err == nil {
		t.Fatal("failing run should error")
	}
}

func TestDedupeKeepsCheapest(t *testing.T) {
	a := choice.NewConfig()
	a.SetInt("x", 1)
	b := a.Clone()
	pop := dedupe([]candidate{{cfg: a, cost: 5}, {cfg: b, cost: 3}})
	if len(pop) != 1 || pop[0].cost != 3 {
		t.Fatalf("dedupe result %+v", pop)
	}
}

func TestReportRendering(t *testing.T) {
	sp := modelSpace()
	_, rep, err := Tune(sp, EvaluatorFunc(modelCost), Options{MinSize: 8, MaxSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Steps {
		if s.Best == "" || s.Size == 0 {
			t.Fatalf("bad step report %+v", s)
		}
	}
}

// Property: over randomized synthetic cost models, the tuned
// configuration never costs more than any pure single-algorithm seed at
// the final training size — the paper's headline claim ("autotuned
// hybrid programs are always better than any of the individual
// algorithms").
func TestTunedNeverLosesToSeedsProperty(t *testing.T) {
	sp := &choice.Space{}
	sp.AddSelector(choice.SelectorSpec{
		Transform:   "m",
		ChoiceNames: []string{"B0", "B1", "R0", "R1"},
		Recursive:   []bool{false, false, true, true},
		MaxLevels:   3,
	})
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random model: two base algorithms with random polynomial costs,
		// two recursive ones with random overheads.
		baseCoef := []float64{0.5 + rng.Float64()*4, 0.5 + rng.Float64()*4}
		baseExp := []float64{1 + rng.Float64(), 1 + rng.Float64()}
		recOver := []float64{5 + rng.Float64()*200, 5 + rng.Float64()*200}
		var cost func(cfg *choice.Config, n int64) float64
		var depth int
		cost = func(cfg *choice.Config, n int64) float64 {
			if n <= 1 || depth > 96 {
				return 1
			}
			c := cfg.Selector("m", 0).Choose(n).Choice
			switch c {
			case 0, 1:
				return baseCoef[c] * math.Pow(float64(n), baseExp[c])
			default:
				depth++
				defer func() { depth-- }()
				return recOver[c-2]*float64(n) + 2*cost(cfg, n/2)
			}
		}
		eval := EvaluatorFunc(func(cfg *choice.Config, n int64) float64 { return cost(cfg, n) })
		tuned, _, err := Tune(sp, eval, Options{MinSize: 16, MaxSize: 2048})
		if err != nil {
			return false
		}
		tc := cost(tuned, 2048)
		for c := 0; c < 4; c++ {
			pure := choice.NewConfig()
			pure.SetSelector("m", choice.NewSelector(c))
			if tc > cost(pure, 2048)*1.0000001 {
				t.Logf("seed %d: tuned %g loses to pure %d %g", seed, tc, c, cost(pure, 2048))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
