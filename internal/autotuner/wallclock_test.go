package autotuner

import (
	"errors"
	"testing"

	"petabricks/internal/choice"
)

// flakyProgram fails Run for every configuration whose selector picks
// the given choice, and succeeds (returning a constant output) for all
// others. It exercises the disqualification path of WallClock.Measure
// and the skip-failed-candidates path of ConsistencyCheck.
type flakyProgram struct {
	failChoice int
	runs       int
}

func (p *flakyProgram) Run(cfg *choice.Config, size, seed int64) (any, float64, error) {
	p.runs++
	if cfg.Selector("t", 0).Choose(size).Choice == p.failChoice {
		return nil, 0, errors.New("simulated kernel failure")
	}
	return int64(42), 1e-6, nil
}

func (p *flakyProgram) Same(a, b any, tol float64) bool {
	return a.(int64) == b.(int64)
}

func TestWallClockRunErrorDisqualifies(t *testing.T) {
	prog := &flakyProgram{failChoice: 1}
	w := &WallClock{P: prog, Trials: 3}
	bad := choice.NewConfig()
	bad.SetSelector("t", choice.NewSelector(1))
	if got := w.Measure(bad, 128); got != 1e30 {
		t.Fatalf("failing Run must score 1e30, got %g", got)
	}
	good := choice.NewConfig()
	good.SetSelector("t", choice.NewSelector(0))
	if got := w.Measure(good, 128); got >= 1e30 {
		t.Fatalf("succeeding Run must not be disqualified, got %g", got)
	}
}

// TestTuneSurvivesFailingCandidates runs the full tuning loop over a
// space where one choice always errors: tuning must neither panic nor
// return an error, and the winning configuration must not use the
// broken algorithm at the final training size — there it was measured,
// scored 1e30, and can never beat a working candidate. (Sizes the tuner
// never measured carry no such guarantee: a grafted level with a small
// cutoff may name any choice below the training range.)
func TestTuneSurvivesFailingCandidates(t *testing.T) {
	prog := &flakyProgram{failChoice: 1}
	sp := &choice.Space{}
	sp.AddSelector(choice.SelectorSpec{
		Transform:   "t",
		ChoiceNames: []string{"ok", "broken", "alt"},
		Recursive:   []bool{true, true, false},
		MaxLevels:   3,
	})
	cfg, rep, err := Tune(sp, &WallClock{P: prog, Trials: 1}, Options{
		MinSize: 16,
		MaxSize: 128,
		Check:   ConsistencyCheck(prog, 0, 5),
	})
	if err != nil {
		t.Fatalf("tuning with failing candidates errored: %v", err)
	}
	if cfg == nil || rep == nil {
		t.Fatal("tuning returned nil config/report")
	}
	if cfg.Selector("t", 0).Choose(128).Choice == 1 {
		t.Fatalf("tuned config uses the broken choice at the training size: %v", cfg.Sels["t"])
	}
	if got := (&WallClock{P: prog, Trials: 1}).Measure(cfg, 128); got >= 1e30 {
		t.Fatalf("winning config is disqualified at the training size: %g", got)
	}
	if prog.runs == 0 {
		t.Fatal("program never ran")
	}
}

// TestConsistencyCheckAllFail verifies the §3.5 hook reports an error —
// rather than panicking — when no candidate produces output.
func TestConsistencyCheckAllFail(t *testing.T) {
	prog := &flakyProgram{failChoice: 0}
	check := ConsistencyCheck(prog, 0, 1)
	cfgs := []*choice.Config{choice.NewConfig(), choice.NewConfig()}
	if err := check(64, cfgs); err == nil {
		t.Fatal("expected error when every candidate fails")
	}
}
