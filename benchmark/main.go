// Command benchmark is the repository's benchmark: five workloads from
// an HTTP request down to a vm instruction, built to repeat on a small
// shared host. README.md in this directory says what it measures, for
// whom, and why it is shaped the way it is.
//
//	bash benchmark/run.sh --workload exec_cell --seed 1 --seconds 15 --trace 0
//
// sets the workload up, warms it, measures it untraced for that many
// one-second rounds while checking outputs, and prints every end-to-end
// metric by name with its unit, then one JSON object on the last line.
// With --trace 1 it measures every layer instead and writes
// out/trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"petabricks/internal/pbc/interp"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured. Only the smoke
// tests lower it.
var setupRepeats = 7

// tracedRounds is the length of the traced pass, and of the untraced
// pass beside it that trace.overhead_pct compares with.
const tracedRounds = 3

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", runSeconds, "one-second rounds to measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and a trace file")
		dir       = flag.String("dir", "benchmark", "the benchmark's own directory")
		emitSpec  = flag.Bool("emit-spec", false, "print BENCHMARK.json and exit")
		calibrate = flag.Int("calibrate", 0, "make N full runs of every workload back to back and print the spread table")
	)
	flag.Parse()
	switch {
	case *emitSpec:
		os.Stdout.Write(benchmarkJSON())
	case *calibrate > 0:
		if err := runCalibrate(*calibrate, *dir, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok || *seconds < 1 {
			fatal(fmt.Errorf("need --workload (one of %v) and --seconds >= 1", workloadNames()))
		}
		e := env{dir: *dir, seed: *seed, nproc: goruntime.NumCPU()}
		var res result
		var err error
		if *trace != 0 {
			res, err = runTraced(e, w)
		} else {
			res, err = runUntraced(e, w, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		report(res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadSpecs {
		out = append(out, w.Name)
	}
	return out
}

// report prints every metric by name with its unit, then the result as
// one JSON object on the last line.
func report(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// tally sums ops attempted and failed over rounds.
func tally(rs []round) (attempted, failed int) {
	for _, r := range rs {
		attempted += r.ops
		failed += r.failed
	}
	return attempted, failed
}

// runUntraced is a `--trace 0` run: set up setupRepeats times, measure
// the last set-up for `rounds` clean rounds, report the end-to-end
// metrics.
func runUntraced(e env, w workload, rounds int) (result, error) {
	// Set-up time must not include the reference outputs.
	refs, err := e.references(w.table)
	if err != nil {
		return result{}, err
	}
	var inst *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		if inst, err = w.setup(e, w, refs, nil); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	kept, all := measure(func() round { return runRound(inst) }, rounds, extraRounds(rounds))
	attempted, failed := tally(all)
	for i, r := range all {
		fmt.Printf("round %2d: %5d ops  p50 %8.4f ms  p90 %8.4f ms  %8.2f ops/s  cpu %8.4f ms/op  steal %5.2f%%\n",
			i+1, r.ops, r.p50, r.p90, r.perSecond, 1e3*r.cpu/float64(r.ops), r.stealPct)
	}
	vals := map[string]float64{
		"latency_p50_ms":  median(stat(kept, round.p50ms)),
		"alloc_kb_per_op": median(stat(kept, func(r round) float64 { return float64(r.allocB) / 1024 / float64(r.ops) })),
		"setup_s":         median(setups),
	}
	fmt.Printf("%s: %d rounds kept of %d, host steal %.2f%% (median of kept), %.0f ops per round\n",
		w.name, len(kept), len(all), median(stat(kept, func(r round) float64 { return r.stealPct })),
		median(stat(kept, func(r round) float64 { return float64(r.ops) })))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: units(endToEnd, vals)}, nil
}

// units attaches each spec's unit to its value; a spec without a value
// is a bug in this program.
func units(specs []metricSpec, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			panic("benchmark: no value for declared metric " + s.Name)
		}
		out[s.Name] = value{v, s.Unit}
	}
	if len(vals) != len(specs) {
		panic(fmt.Sprintf("benchmark: %d values for %d declared metrics", len(vals), len(specs)))
	}
	return out
}

// runTraced is a `--trace 1` run: the fixed probes of every layer, then
// the workload itself for tracedRounds untraced rounds and tracedRounds
// traced ones, alternating, with obs wired in and spans recorded during
// the traced ones only.
func runTraced(e env, w workload) (result, error) {
	refs, err := e.references(w.table)
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	if err := probeAll(e, vals); err != nil {
		return result{}, err
	}
	if err := probeWorkload(e, w, vals); err != nil {
		return result{}, err
	}

	plain, err := w.setup(e, w, refs, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer plain.close()
	t := newTracer()
	interp.Instrument(t.reg)
	traced, err := w.setup(e, w, refs, t)
	interp.Instrument(nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer traced.close()

	var plainRounds, withTrace []round
	count := map[string]float64{}
	for i := 0; i < tracedRounds; i++ {
		plainRounds = append(plainRounds, runRound(plain))
		interp.Instrument(t.reg)
		before := traced.counters()
		withTrace = append(withTrace, runRound(traced))
		for k, v := range traced.counters() {
			count[k] += v - before[k]
		}
		interp.Instrument(nil)
	}
	both := append(append([]round(nil), plainRounds...), withTrace...)
	attempted, failed := tally(both)
	tracedOps, _ := tally(withTrace)
	perOp := func(k string) float64 { return count[k] / float64(tracedOps) }
	vals["runtime.tasks_per_op"] = perOp("tasks")
	vals["runtime.steals_per_op"] = perOp("steals")
	vals["runtime.parks_per_op"] = perOp("parks")
	vals["runtime.wakes_per_op"] = perOp("wakes")
	vals["interp.plan_hits_per_op"] = perOp("plan_hits")
	vals["interp.compile_hits_per_op"] = perOp("compile_hits")
	vals["host.nproc"] = float64(e.nproc)
	vals["host.steal_pct"] = median(stat(both, func(r round) float64 { return r.stealPct }))
	dirty := 0
	for _, r := range both {
		if r.stealPct > maxStealPct {
			dirty++
		}
	}
	vals["host.rounds_discarded"] = float64(dirty)
	vals["go.gc_cycles"] = median(stat(plainRounds, func(r round) float64 { return float64(r.gcCycles) }))
	vals["go.allocs_per_op"] = median(stat(plainRounds, func(r round) float64 { return float64(r.mallocs) / float64(r.ops) }))
	vals["e2e.latency_p90_ms"] = median(stat(plainRounds, func(r round) float64 { return r.p90 }))
	vals["e2e.throughput_ops_s"] = median(stat(plainRounds, func(r round) float64 { return r.perSecond }))
	vals["e2e.cpu_ms_per_op"] = median(stat(plainRounds, func(r round) float64 { return 1e3 * r.cpu / float64(r.ops) }))
	vals["trace.overhead_pct"] = 100 * (median(stat(withTrace, round.p50ms))/median(stat(plainRounds, round.p50ms)) - 1)

	path, rows, err := t.write(e.dir, w.name)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s: trace of %d ops in %s; self time per op by call:\n", w.name, tracedOps, path)
	for _, r := range rows {
		fmt.Printf("  %-10s %-34s %9.4f ms %6.1f%%\n", r.Layer, r.Name, r.MsOp, r.Share)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: units(perLayer, vals)}, nil
}
