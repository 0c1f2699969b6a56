package harness

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
)

func TestSeriesAndRender(t *testing.T) {
	exp := Experiment{
		ID: "t", Title: "test", XLabel: "n", YLabel: "s",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.25}},
			{Name: "b", X: []float64{2}, Y: []float64{0.125}},
		},
		Notes: []string{"note"},
	}
	text := exp.Render()
	for _, want := range []string{"# t — test", "a", "b", "# note", "0.25", "0.125"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	s, ok := exp.FindSeries("a")
	if !ok || s.Final() != 0.25 {
		t.Fatal("FindSeries/Final broken")
	}
	if _, ok := exp.FindSeries("zz"); ok {
		t.Fatal("FindSeries should miss")
	}
	if _, ok := s.at(9); ok {
		t.Fatal("at should miss")
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	sec := timeIt(3, func() { calls++ })
	if calls != 3 || sec < 0 {
		t.Fatalf("timeIt calls=%d sec=%g", calls, sec)
	}
	timeIt(0, func() { calls++ })
	if calls != 4 {
		t.Fatal("timeIt with 0 trials should run once")
	}
}

func TestFig14Small(t *testing.T) {
	p := SortParams{
		Sizes: []int{128, 512}, TuneMax: 256, Trials: 1, Workers: 2, InsCap: 1 << 20,
	}
	exp, err := Fig14(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 5 {
		t.Fatalf("series = %d", len(exp.Series))
	}
	for _, s := range exp.Series {
		if len(s.Y) == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has nonpositive time", s.Name)
			}
		}
	}
	if !strings.Contains(exp.Render(), "tuned:") {
		t.Error("tuned config not reported")
	}
}

func TestFig15Small(t *testing.T) {
	p := MatMulParams{Sizes: []int{32, 64}, TuneMax: 32, Trials: 1, Workers: 2, BasicCap: 1 << 20}
	exp, err := Fig15(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 6 {
		t.Fatalf("series = %d", len(exp.Series))
	}
	found := false
	for _, n := range exp.Notes {
		if strings.Contains(n, "consistency OK") {
			found = true
		}
	}
	if !found {
		t.Error("consistency note missing")
	}
}

func TestFig12Small(t *testing.T) {
	p := EigenParams{Sizes: []int{32, 64}, TuneMax: 64, Trials: 1, Workers: 1}
	exp, err := Fig12(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 5 {
		t.Fatalf("series = %d", len(exp.Series))
	}
}

func TestFig11Small(t *testing.T) {
	p := PoissonParams{
		MaxLevel: 4, TargetAccuracy: 1e5,
		Accuracies: []float64{1e1, 1e5}, Trials: 1, DirectCap: 4, JacobiCap: 4,
	}
	exp, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 5 {
		t.Fatalf("series = %d", len(exp.Series))
	}
	okNote := false
	for _, n := range exp.Notes {
		if strings.Contains(n, "accuracy OK") {
			okNote = true
		}
	}
	if !okNote {
		t.Errorf("tuned solver missed its accuracy target: %v", exp.Notes)
	}
}

func TestFig16Small(t *testing.T) {
	p := ScalabilityParams{MaxWorkers: 2, SortN: 60000, MatMulN: 96, Trials: 1}
	exp, err := Fig16(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 2 {
		t.Fatalf("series = %d", len(exp.Series))
	}
	for _, s := range exp.Series {
		if len(s.X) != 2 {
			t.Fatalf("series %s points = %d", s.Name, len(s.X))
		}
	}
}

func TestArchTables(t *testing.T) {
	res, err := RunArchTables(100000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckTable1Shape(); err != nil {
		t.Errorf("table 1 shape: %v", err)
	}
	t1 := res.Table1()
	t2 := res.Table2()
	for _, want := range []string{"Mobile", "Xeon 1-way", "Xeon 8-way", "Niagara"} {
		if !strings.Contains(t1, want) || !strings.Contains(t2, want) {
			t.Errorf("tables missing %q", want)
		}
	}
	if !strings.Contains(t1, "average cross-train slowdown") {
		t.Error("table 1 summary missing")
	}
	// Each arch's config renders in paper notation.
	for _, cfg := range res.Configs {
		s := RenderSortConfig(cfg)
		if !strings.Contains(s, "(∞)") {
			t.Errorf("config render %q missing final level", s)
		}
	}
}

func TestSTLCutoffSmall(t *testing.T) {
	p := CutoffParams{N: 30000, Cutoffs: []int64{15, 60, 100, 150}, Trials: 1}
	exp, err := STLCutoff(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series[0].X) != 4 {
		t.Fatalf("points = %d", len(exp.Series[0].X))
	}
}

func TestFig16WallClockMode(t *testing.T) {
	// Force the wall-clock path (it is exercised regardless of host core
	// count; on a single-core machine the speedups just hover near 1),
	// on a scheduler of two cores, with more workers asked for than that.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	p := ScalabilityParams{MaxWorkers: 4, SortN: 50000, MatMulN: 64, Trials: 1, Mode: ModeWallClock}
	exp, err := Fig16(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 2 {
		t.Fatalf("series = %d", len(exp.Series))
	}
	// The sweep stops at the cores the scheduler runs on.
	const widest = 2
	for _, s := range exp.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has nonpositive speedup", s.Name)
			}
		}
		if len(s.X) != widest || s.X[len(s.X)-1] != float64(widest) {
			t.Errorf("series %s swept %v workers, want 1..%d", s.Name, s.X, widest)
		}
	}
	if want := fmt.Sprintf("at %d workers", widest); !strings.Contains(strings.Join(exp.Notes, "\n"), want) {
		t.Errorf("shape notes %q do not name the swept width (%q)", exp.Notes, want)
	}
}

func TestFig16ModelModeForced(t *testing.T) {
	p := ScalabilityParams{MaxWorkers: 8, SortN: 400000, MatMulN: 384, Mode: ModeModel}
	exp, err := Fig16(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range exp.Series {
		if s.Final() < 4 {
			t.Errorf("%s model speedup %.2f at 8 cores, want > 4", s.Name, s.Final())
		}
	}
}
