package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"petabricks/internal/pbc/interp"
	"petabricks/internal/runtime"
)

var testEnv = env{dir: ".", seed: 1, nproc: 2}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloadSpecs) != 5 || len(endToEnd) != 3 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d layer metrics; want 5, 3 and at most 128",
			len(workloadSpecs), len(endToEnd), len(perLayer))
	}
	ws := workloads()
	for i, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, over 200", w.Name, len(w.Why))
		}
		if ws[i].name != w.Name {
			t.Errorf("workload %d is %q in workloads() and %q in the spec", i, ws[i].name, w.Name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q not allowed", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a layer metric has no bound", m.Name)
		}
	}
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -emit-spec > ../BENCHMARK.json`")
	}
}

// Every table program parses, runs at a tiny size on the tier and pool
// it is measured on, and agrees with the AST interpreter and its oracle.
func TestTableProgramsPassTheirOracles(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Shutdown()
	for _, table := range [][]entry{cellTable, taskTable, macroTable, bootTable, serveTable} {
		tiny := append([]entry(nil), table...)
		for i := range tiny {
			tiny[i].n = 16
		}
		refs, err := testEnv.references(tiny)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := testEnv.load(tiny, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r.view.Cfg.Int(interp.EngineKey, -1) != interp.EngineJIT {
				t.Errorf("%s: %s does not pin the bytecode tier", r.key, r.cfg)
			}
			out, err := r.run()
			if err != nil {
				t.Fatalf("%s: %v", r.key, err)
			}
			if !sameOutputs(out, refs[i]) {
				t.Errorf("%s: outputs differ from the AST interpreter", r.key)
			}
			if err := oracle(r.name, r.inputs, out); err != nil {
				t.Errorf("%s: %v", r.key, err)
			}
		}
	}
}

func TestOracleRejectsWrongOutputs(t *testing.T) {
	rs, err := testEnv.load([]entry{{"rs", "rollingsum.pbcc", "RollingSum", 8, "cell.cfg"}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rs[0].run()
	if err != nil {
		t.Fatal(err)
	}
	out["B"].SetAt1(3, out["B"].At1(3)+1)
	if oracle("RollingSum", rs[0].inputs, out) == nil {
		t.Error("a wrong prefix sum passed the oracle")
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestStealFromProcStat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stat")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	s0, t0 := cpuTicks(path)
	write("cpu  180 0 60 890 10 0 5 55 7 7\n")
	s1, t1 := cpuTicks(path)
	if s0 != 35 || t0 != 1000 || s1 != 55 || t1 != 1200 {
		t.Fatalf("ticks = %d/%d then %d/%d", s0, t0, s1, t1)
	}
	if got := stealPct(s0, t0, s1, t1); got != 10 {
		t.Errorf("steal = %v%%, want 10", got)
	}
	if s, tot := cpuTicks(filepath.Join(t.TempDir(), "absent")); s != 0 || tot != 0 {
		t.Error("a host without /proc/stat must report no steal")
	}
	write("cpu 1 2 3\n")
	if s, tot := cpuTicks(path); s != 0 || tot != 0 {
		t.Error("a stat line without a steal column must report no steal")
	}
}

func TestMeasureDiscardsStolenRounds(t *testing.T) {
	feed := func(steals ...float64) func() round {
		i := 0
		return func() round {
			r := round{stealPct: steals[i], p50: float64(i)}
			i++
			return r
		}
	}
	// Clean host: exactly the rounds asked for.
	kept, all := measure(feed(0, 1, 2, 0, 0), 3, 2)
	if len(kept) != 3 || len(all) != 3 {
		t.Fatalf("clean: kept %d of %d, want 3 of 3", len(kept), len(all))
	}
	// Two dirty rounds are re-run and left out; order is kept.
	kept, all = measure(feed(0, 30, 1, 9, 0, 0, 0), 4, 3)
	if len(all) != 6 {
		t.Fatalf("re-run: made %d rounds, want 6", len(all))
	}
	for i, want := range []float64{0, 2, 4, 5} {
		if kept[i].p50 != want {
			t.Errorf("re-run: kept[%d] is round %v, want %v", i, kept[i].p50, want)
		}
	}
	// A storm: the cap ends the run, the least stolen rounds are used.
	kept, all = measure(feed(40, 3, 0, 50, 8, 0), 4, 2)
	if len(all) != 6 || len(kept) != 4 {
		t.Fatalf("storm: kept %d of %d, want 4 of 6", len(kept), len(all))
	}
	got := map[float64]bool{}
	for _, r := range kept {
		got[r.stealPct] = true
	}
	if !got[0] || !got[3] || !got[8] || got[40] || got[50] {
		t.Errorf("storm: kept steals %v, want 0, 0, 3, 8", got)
	}
	if extraRounds(15) != 10 || extraRounds(1) != 1 {
		t.Errorf("extraRounds(15), (1) = %d, %d; want 10, 1", extraRounds(15), extraRounds(1))
	}
	// A run's value is the median over rounds of the round's statistic.
	if v := median(stat([]round{{p50: 5}, {p50: 100}, {p50: 4}}, round.p50ms)); v != 5 {
		t.Errorf("median over rounds = %v, want 5", v)
	}
}

func TestSelfTimeLeavesOutChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "op", Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "a", Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "b", Name: "b", Start: 40, End: 70}, // overlaps a by 10
		{ID: 4, Parent: 2, Layer: "c", Name: "c", Start: 10, End: 30},
		{ID: 5, Parent: 2, Layer: "c", Name: "c", Start: 45, End: 90}, // clipped to its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 15, 3: 30, 4: 20, 5: 45} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	rows, ops := summarize(spans)
	if ops != 1 || rows[0].Name != "c" || rows[0].Calls != 2 {
		t.Errorf("summary = %+v over %d ops; want c first, called twice, over 1 op", rows, ops)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", "y")) // an untraced run records nothing and must not crash
}

// A one-round run of each workload emits every declared end-to-end
// metric once, attempts ops and fails none.
func TestSmokeUntraced(t *testing.T) {
	defer func(d time.Duration, n int) { roundLength, setupRepeats = d, n }(roundLength, setupRepeats)
	roundLength, setupRepeats = 100*time.Millisecond, 1
	for _, w := range workloads() {
		res, err := runUntraced(testEnv, w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		requireMetrics(t, w.name, res, endToEnd)
	}
}

// A traced run emits every declared layer metric once and leaves a
// trace file. It takes ten seconds, so -short skips it.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke run skipped by -short")
	}
	w, _ := findWorkload("serve_small")
	res, err := runTraced(testEnv, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	requireMetrics(t, w.name, res, perLayer)
	if res.Metrics["server.coalesced"].Value != 0 || res.Metrics["server.shed"].Value != 0 {
		t.Error("serve_small must neither shed nor coalesce")
	}
	if _, err := os.Stat(filepath.Join("out", "trace-serve_small.json")); err != nil {
		t.Error(err)
	}
}

func requireMetrics(t *testing.T, workload string, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok || v.Unit != s.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s missing, in the wrong unit or not a number: %+v", workload, s.Name, v)
		}
	}
}
