package bench

import (
	"math/rand"
	"sort"
	"testing"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// dslBenchmark parses src and returns its engine and the descriptor of
// transform name.
func dslBenchmark(t *testing.T, src, name string) (*interp.Engine, *Benchmark) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := interp.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range DSL(eng) {
		if b.Name == name {
			return eng, b
		}
	}
	t.Fatalf("no descriptor for %s", name)
	return nil, nil
}

func vec(vals ...float64) *matrix.Matrix { return matrix.FromSlice(vals) }

func TestTuneRollingSum(t *testing.T) {
	// The autotuner must discover that rule 1 (the Θ(n) scan) beats
	// rule 0 (the Θ(n²) direct sum) at scale — the paper's own framing
	// of the RollingSum example.
	e, b := dslBenchmark(t, parser.RollingSumSrc, "RollingSum")
	pool := runtime.NewPool(2)
	defer pool.Close()
	cfg, rep, _, err := Tune(b, pool, 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Selector(interp.SelectorName("RollingSum"), 0).Choose(4096).Choice; got != 1 {
		t.Fatalf("tuner picked rule %d at n=4096, want the linear rule 1\n%v", got, rep.Steps)
	}
	// The tuned configuration still computes correct results.
	out, err := e.WithConfig(cfg).Run1("RollingSum", vec(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.At1(2) != 6 {
		t.Fatalf("tuned run wrong: %v", out)
	}
}

func TestDSLMergeSortTuneFindsCutoff(t *testing.T) {
	// The end-to-end paper story in the DSL: the tuner must place the
	// recursive rule on top (selection sort is quadratic) with a base
	// level below.
	e, b := dslBenchmark(t, parser.MergeSortSrc, "MergeSortDSL")
	pool := runtime.NewPool(2)
	defer pool.Close()
	cfg, _, _, err := Tune(b, pool, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	sel := cfg.Selector(interp.SelectorName("MergeSortDSL"), 0)
	if sel.Choose(256).Choice != 1 {
		t.Fatalf("tuner should pick the recursive rule at n=256: %v", sel)
	}
	// The recursion must bottom out in the base rule at SOME level the
	// halving recursion actually reaches (levels below it may be
	// unreachable and arbitrary).
	hasBase := false
	for size := int64(256); size >= 1; size /= 2 {
		if sel.Choose(size).Choice == 0 {
			hasBase = true
			break
		}
	}
	if !hasBase {
		t.Fatalf("no reachable base-case level: %v", sel)
	}
	// The tuned configuration sorts correctly. Use the trained max size:
	// the tuner only guarantees the winning config terminates at sizes it
	// measured (an untrained size's halving chain may miss the base
	// level).
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, 256)
	for i := range data {
		data[i] = float64(rng.Intn(1000))
	}
	out, err := e.WithConfig(cfg).Run1("MergeSortDSL", vec(data...))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64{}, data...)
	sort.Float64s(want)
	for i, w := range want {
		if out.At1(i) != w {
			t.Fatalf("tuned sort wrong at %d: got %g, want %g", i, out.At1(i), w)
		}
	}
}

// TestTuneProgramLeavesCfg checks that a tuning candidate runs on its
// own configuration view: the engine's Cfg never changes, not even while
// the candidate runs (a concurrent reader watches it; under -race a
// write would also be reported), and the output equals a WithConfig
// run's.
func TestTuneProgramLeavesCfg(t *testing.T) {
	e, b := dslBenchmark(t, parser.RollingSumSrc, "RollingSum")
	base := e.Cfg
	cfg := choice.NewConfig()
	cfg.SetSelector(interp.SelectorName("RollingSum"), choice.NewSelector(1))
	ready, done, changed := make(chan struct{}), make(chan struct{}), make(chan bool)
	go func() {
		close(ready)
		seen := false
		for {
			select {
			case <-done:
				changed <- seen
				return
			default:
				seen = seen || e.Cfg != base
			}
		}
	}()
	pool := runtime.NewPool(2)
	defer pool.Close()
	<-ready
	var got Result
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		got, err = b.Run(pool, cfg, 64, 3, RunOpts{AccIndex: -1})
	}
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if <-changed || e.Cfg != base {
		t.Fatal("a candidate run replaced the engine's Cfg")
	}
	v := e.WithConfig(cfg)
	inputs, err := v.GenerateInputs("RollingSum", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.Run("RollingSum", inputs)
	if err != nil {
		t.Fatal(err)
	}
	outs := got.Out.(map[string]*matrix.Matrix)
	if len(outs) != len(want) {
		t.Fatalf("outputs %d, want %d", len(outs), len(want))
	}
	for k, m := range want {
		if !m.Equal(outs[k]) {
			t.Fatalf("output %s differs from the WithConfig run", k)
		}
	}
}

// TestDSLProgramRunsOnPool checks that a tuning candidate runs on the
// pool its descriptor's Run is handed, as a served run does: its
// execution plan's tasks execute on that pool, and the plan-tile grain,
// a dimension of every DSL search space, sets how many. A candidate that
// ignored the pool would run the serial step loop and execute no pool
// task, so the grain would go unread. The programs come from source
// files, the way pbserve and pbtune -src load them.
func TestDSLProgramRunsOnPool(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	// tasks runs one candidate of transform name in file at size n, with
	// rule 0 selected and the given grain, and counts the pool tasks it
	// executed.
	tasks := func(file, name string, n, grain int64) int64 {
		t.Helper()
		bs, err := LoadDSL("../../testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if b.Name != name {
				continue
			}
			cfg := choice.NewConfig()
			cfg.SetSelector(interp.SelectorName(name), choice.NewSelector(0))
			cfg.SetInt(interp.ParGrainKey, grain)
			before := pool.Executed()
			if _, err := b.Run(pool, cfg, int(n), 1, RunOpts{AccIndex: -1}); err != nil {
				t.Fatal(err)
			}
			return pool.Executed() - before
		}
		t.Fatalf("%s missing from %s", name, file)
		return 0
	}
	if got := tasks("rollingsum.pbcc", "RollingSum", 256, interp.DefaultParGrain); got <= 0 {
		t.Fatalf("a RollingSum candidate at n=256 executed %d pool tasks, want it to run on the pool", got)
	}
	coarse := tasks("matmul.pbcc", "MatrixMultiply", 32, 256)
	fine := tasks("matmul.pbcc", "MatrixMultiply", 32, 16)
	if fine <= coarse {
		t.Fatalf("MatrixMultiply at n=32: %d pool tasks at %s 16, %d at 256; the finer grain should cut more tiles",
			fine, interp.ParGrainKey, coarse)
	}
}
