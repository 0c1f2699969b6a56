package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"petabricks/internal/artifact"
	"petabricks/internal/bench"
	"petabricks/internal/matrix"
	"petabricks/internal/obs"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/codegen"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/jit"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// This file measures single layers, each through its public functions
// only. probeAll holds the fixed probes, which read the same whatever
// workload a traced run was asked for; probeWorkload measures the run's
// own program table under other tiers and without a pool.

// medianMs calls f samples times and returns the median wall time of a
// call in milliseconds.
func medianMs(samples int, f func() error) (float64, error) {
	ms, err := interleavedMs(samples, f)
	if err != nil {
		return 0, err
	}
	return ms[0], nil
}

// interleavedMs calls each of fs in turn, samples times over, and
// returns the median wall time of each in milliseconds. Numbers that
// are compared with each other are measured this way: whatever the host
// does during the probe, it does to all of them.
func interleavedMs(samples int, fs ...func() error) ([]float64, error) {
	ms := make([][]float64, len(fs))
	for i := 0; i < samples; i++ {
		for j, f := range fs {
			t0 := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			ms[j] = append(ms[j], float64(time.Since(t0))/1e6)
		}
	}
	out := make([]float64, len(fs))
	for j := range fs {
		out[j] = median(ms[j])
	}
	return out, nil
}

// sweepsMs warms each table's runners and returns their median sweep
// times, interleaved.
func sweepsMs(samples int, tables ...[]*runner) ([]float64, error) {
	fs := make([]func() error, len(tables))
	for i, rs := range tables {
		if err := sweep(rs); err != nil {
			return nil, err
		}
		fs[i] = func() error { return sweep(rs) }
	}
	return interleavedMs(samples, fs...)
}

func probeAll(e env, vals map[string]float64) error {
	for _, probe := range []func(env, map[string]float64) error{
		probeExec, probeJIT, probeRuntime, probeKernels, probeFrontEnd, probeBoot, probeServe,
	} {
		if err := probe(e, vals); err != nil {
			return err
		}
	}
	return nil
}

// --- interp: the run's own table ------------------------------------------

// fallbackCount is how many rule compilations the vm has refused so far.
func fallbackCount() float64 {
	n := int64(0)
	for _, f := range interp.EngineStatsSnapshot().Fallbacks {
		if f.Tier == "jit" {
			n += f.Count
		}
	}
	return float64(n)
}

func probeWorkload(e env, w workload, vals map[string]float64) error {
	pool := runtime.NewPool(w.width(e))
	defer pool.Shutdown()
	jitted, err := e.load(w.table, pool, pinTier(interp.EngineJIT))
	if err != nil {
		return err
	}
	before := fallbackCount()
	if err := sweep(jitted); err != nil {
		return err
	}
	vals["interp.fallback_rules"] = fallbackCount() - before
	closures, err := e.load(w.table, pool, pinTier(interp.EngineClosure))
	if err != nil {
		return err
	}
	// Without a pool there are no tasks at all: what is left is the
	// per-cell work, so the rest of the pooled sweep is the task layer.
	seq, err := e.load(w.table, nil, nil)
	if err != nil {
		return err
	}
	ms, err := sweepsMs(30, jitted, closures, seq)
	if err != nil {
		return err
	}
	vals["interp.tier_jit_ms"], vals["interp.tier_closure_ms"], vals["interp.seq_ms"] = ms[0], ms[1], ms[2]
	vals["interp.task_share"] = 100 * (1 - ms[2]/ms[0])
	// The AST interpreter is a hundred times slower: fewer samples, alone.
	ast, err := e.load(w.table, pool, pinTier(interp.EngineInterp))
	if err != nil {
		return err
	}
	if ms, err = sweepsMs(6, ast); err != nil {
		return err
	}
	vals["interp.tier_ast_ms"] = ms[0]
	return nil
}

// --- interp: per-program medians of the exec tables --------------------------

func probeExec(e env, vals map[string]float64) error {
	// Each program is timed inside its sweep, as the op runs it, not in
	// a loop of its own, where it would find its own data in cache.
	for _, w := range workloads()[:3] { // exec_cell, exec_task, exec_macro
		pool := runtime.NewPool(w.width(e))
		rs, err := e.load(w.table, pool, nil)
		var ms []float64
		if err == nil {
			runs := make([]func() error, len(rs))
			for i, r := range rs {
				runs[i] = func() error { _, err := r.run(); return err }
			}
			if err = sweep(rs); err == nil {
				ms, err = interleavedMs(40, runs...)
			}
		}
		pool.Shutdown()
		if err != nil {
			return err
		}
		for i, r := range rs {
			vals["exec."+r.key+"_ms"] = ms[i]
		}
	}
	// The exec_cell and exec_task sweeps on one worker and on all: what
	// a second vCPU buys a data-parallel op on this host. Reported, never
	// gated: an op that needs both vCPUs at once does not repeat here.
	one, all := runtime.NewPool(1), runtime.NewPool(e.nproc)
	defer one.Shutdown()
	defer all.Shutdown()
	var tables [3][]*runner
	for i, t := range []struct {
		table []entry
		pool  *runtime.Pool
	}{{cellTable, one}, {cellTable, all}, {taskTable, all}} {
		var err error
		if tables[i], err = e.load(t.table, t.pool, nil); err != nil {
			return err
		}
	}
	ms, err := sweepsMs(40, tables[:]...)
	if err != nil {
		return err
	}
	vals["runtime.par_cell_ms"] = ms[1]
	vals["runtime.parallel_gain"] = ms[0] / ms[1]
	vals["runtime.par_task_ms"] = ms[2]
	return nil
}

// --- jit: Compile + RunCell, no engine ----------------------------------------

// lower compiles rule ruleIdx of a program file's transform directly and
// returns a frame with every ref bound to a zero matrix of the declared
// shape at size n.
func lower(e env, file, transform string, ruleIdx int, n int64) (*jit.Frame, error) {
	prog, err := e.parse(file)
	if err != nil {
		return nil, err
	}
	for _, t := range prog.Transforms {
		if t.Name != transform {
			continue
		}
		res, err := analysis.Analyze(prog, t)
		if err != nil {
			return nil, err
		}
		sizes := map[string]int64{}
		for _, v := range res.SizeVars {
			sizes[v] = n
		}
		p, err := jit.Compile(res, res.Rules[ruleIdx], sizes)
		if err != nil {
			return nil, err
		}
		f := p.NewFrame()
		mats := map[string]*matrix.Matrix{}
		for i, ref := range p.Refs {
			m, ok := mats[ref.Matrix]
			if !ok {
				dims := res.Matrices[ref.Matrix].Dims
				shape := make([]int, len(dims))
				for d, se := range dims {
					v, err := se.Eval(sizes)
					if err != nil {
						return nil, err
					}
					shape[len(dims)-1-d] = int(v)
				}
				m = matrix.New(shape...)
				mats[ref.Matrix] = m
			}
			f.BindMatrix(i, m)
		}
		return f, nil
	}
	return nil, fmt.Errorf("%s: no transform %s", file, transform)
}

func probeJIT(e env, vals map[string]float64) error {
	const n = 4096
	// Stencil: Heat1D's three-point rule over the interior of t = 1..4.
	st, err := lower(e, "heat1d.pbcc", "Heat1D", 1, n)
	if err != nil {
		return err
	}
	center := make([]int64, 2)
	ms, err := medianMs(20, func() error {
		for t := int64(1); t <= 4; t++ {
			for i := int64(1); i < n-1; i++ {
				center[0], center[1] = i, t
				if err := st.RunCell(center); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	vals["jit.cell_ns_stencil"] = ms * 1e6 / float64(4*(n-2))

	pw, err := lower(e, "pointwise.pbcc", "Pointwise", 0, n)
	if err != nil {
		return err
	}
	if ms, err = medianMs(20, func() error {
		for i := int64(0); i < n; i++ {
			center[0] = i
			if err := pw.RunCell(center[:1]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	vals["jit.cell_ns_pointwise"] = ms * 1e6 / n

	// Reduction: RollingSum's direct rule sums i+1 elements at cell i.
	const rn = 1024
	rd, err := lower(e, "rollingsum.pbcc", "RollingSum", 0, rn)
	if err != nil {
		return err
	}
	if ms, err = medianMs(20, func() error {
		for i := int64(0); i < rn; i++ {
			center[0] = i
			if err := rd.RunCell(center[:1]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	vals["jit.reduce_elem_ns"] = ms * 1e6 / float64(rn*(rn+1)/2)
	return nil
}

// --- runtime: the executor alone -----------------------------------------------

func probeRuntime(e env, vals map[string]float64) error {
	pool := runtime.NewPool(e.nproc)
	defer pool.Shutdown()
	const nodes = 1024
	chain, wide := runtime.NewGraphBuilder(nodes), runtime.NewGraphBuilder(nodes)
	for i := 1; i < nodes; i++ {
		chain.Edge(i-1, i)
		wide.Edge(0, i)
	}
	var perNode float64
	for _, b := range []*runtime.GraphBuilder{chain, wide} {
		g, err := b.Build()
		if err != nil {
			return err
		}
		ms, _ := medianMs(40, func() error {
			r := pool.NewRun(g, func(*runtime.Worker, int) {})
			if err := r.SubmitAll(nil); err != nil {
				return err
			}
			r.Wait()
			r.Release()
			return nil
		})
		perNode += ms * 1e6 / nodes / 2
	}
	vals["runtime.graph_node_ns"] = perNode

	// A fork-join of two empty functions, entered from outside the pool.
	nop := func(*runtime.Worker) {}
	const calls = 200
	ms, _ := medianMs(20, func() error {
		for i := 0; i < calls; i++ {
			pool.Do(nop, nop)
		}
		return nil
	})
	vals["runtime.spawn_join_ns"] = ms * 1e6 / calls
	// An empty function handed to a parked pool: the wake-up round trip.
	ms, _ = medianMs(20, func() error {
		for i := 0; i < calls; i++ {
			pool.Run(nop)
		}
		return nil
	})
	vals["runtime.wake_us"] = ms * 1e3 / calls
	return nil
}

// --- kernels: the native ceiling ---------------------------------------------------

func probeKernels(e env, vals map[string]float64) error {
	for _, k := range []struct {
		b        *bench.Benchmark
		n        int64
		key, dsl string
	}{
		{bench.MatMulBenchmark(), cellTable[1].n, "matmul", "matmul_base"},
		{bench.SortBenchmark(), macroTable[0].n, "sort", "mergesort"},
	} {
		cfg := k.b.Baseline()
		secs := make([]float64, 30)
		for i := range secs {
			res, err := k.b.Run(nil, cfg, int(k.n), e.seed, bench.RunOpts{})
			if err != nil {
				return err
			}
			secs[i] = res.Seconds
		}
		native := 1e3 * median(secs)
		vals["kernels."+k.key+"_native_ms"] = native
		vals["exec.vm_gap_"+k.key] = vals["exec."+k.dsl+"_ms"] / native
	}
	return nil
}

// --- parser, analysis, codegen, jit: the front end of a cold boot -------------------------------

// bootSamples is how often each boot-side probe is timed.
const bootSamples = 15

// probeFrontEnd times parsing, analysis, Go emission and lowering of
// the five boot programs, each alone, summed over the table.
func probeFrontEnd(e env, vals map[string]float64) error {
	const samples = bootSamples
	st, err := loadBootState(e, bootTable)
	if err != nil {
		return err
	}
	for i, r := range st.rs {
		src := st.srcs[i]
		vals["parser.src_bytes"] += float64(len(src))
		ms, err := medianMs(samples, func() error { _, err := parser.Parse(src); return err })
		if err != nil {
			return err
		}
		vals["parser.parse_ms"] += ms
		prog, _ := parser.Parse(src)
		var results []*analysis.Result
		ms, err = medianMs(samples, func() error {
			results = results[:0]
			for _, t := range prog.Transforms {
				res, err := analysis.Analyze(prog, t)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
			return nil
		})
		if err != nil {
			return err
		}
		vals["analysis.analyze_ms"] += ms
		for _, res := range results {
			vals["analysis.schedule_steps"] += float64(len(res.Schedule))
		}
		if ms, err = medianMs(samples, func() error { _, err := interp.New(prog); return err }); err != nil {
			return err
		}
		vals["interp.new_ms"] += ms

		// The pbc -emit path: Go source for the same program.
		var goSrc string
		if ms, err = medianMs(samples, func() error {
			goSrc, err = codegen.Generate(results, codegen.Options{Package: "gen", Config: r.view.Cfg})
			return err
		}); err != nil {
			return fmt.Errorf("codegen %s: %w", r.key, err)
		}
		vals["codegen.generate_ms"] += ms
		vals["codegen.go_bytes"] += float64(len(goSrc))

		// Lowering alone: every rule the vm accepts, at the boot size.
		sizes := map[string]int64{}
		lowerable := [][2]int{}
		for ti, res := range results {
			for _, v := range res.SizeVars {
				sizes[v] = r.n
			}
			for ri := range res.Rules {
				if p, err := jit.Compile(res, res.Rules[ri], sizes); err == nil {
					lowerable = append(lowerable, [2]int{ti, ri})
					vals["jit.bytecode_instrs"] += float64(len(p.Code))
				}
			}
		}
		ms, _ = medianMs(samples, func() error {
			for _, l := range lowerable {
				jit.Compile(results[l[0]], results[l[0]].Rules[l[1]], sizes)
			}
			return nil
		})
		vals["jit.lower_ms"] += ms
	}
	return nil
}

// --- interp, jit, artifact: the first run of a cold boot ----------------------------------------

// probeBoot splits the first run of the five boot programs by the
// engine's own counters, then times the whole sweep against memory, an
// empty directory and the directory it filled. It reads parser.parse_ms
// and interp.new_ms, so it runs after probeFrontEnd.
func probeBoot(e env, vals map[string]float64) error {
	const samples = bootSamples
	st, err := loadBootState(e, bootTable)
	if err != nil {
		return err
	}
	pool := runtime.NewPool(e.nproc)
	defer pool.Shutdown()
	outs := make(outputs, len(st.rs))

	// Plan build and rule compile from the always-on counters, first
	// execution as the remainder, against a store without a disk.
	mem := func() error { return st.bootSweep(nil, artifact.NewMemOnly(), pool, outs) }
	for i := range st.rs {
		var plan, comp, total []float64
		for s := 0; s < samples; s++ {
			p0, c0 := interp.PlanStats().BuildSeconds, interp.CompileSeconds()
			t0 := time.Now()
			if _, err := st.bootOnce(nil, i, artifact.NewMemOnly(), pool); err != nil {
				return err
			}
			total = append(total, time.Since(t0).Seconds())
			plan = append(plan, interp.PlanStats().BuildSeconds-p0)
			comp = append(comp, interp.CompileSeconds()-c0)
		}
		vals["interp.plan_build_ms"] += 1e3 * median(plan)
		vals["interp.compile_ms"] += 1e3 * median(comp)
		vals["interp.first_exec_ms"] += 1e3 * (median(total) - median(plan) - median(comp))
	}
	vals["interp.first_exec_ms"] -= vals["parser.parse_ms"] + vals["interp.new_ms"]

	// One instrumented cold sweep for the counts the registry keeps.
	reg := obs.NewRegistry()
	interp.Instrument(reg)
	err = mem()
	interp.Instrument(nil)
	if err != nil {
		return err
	}
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "pb_interp_plan_tasks":
			vals["interp.plan_tasks"] += s.Sum
		case "pb_jit_rules_compiled_total":
			vals["jit.rules_lowered"] += s.Value
		}
	}

	// The same sweep against memory, an empty directory, and the
	// directory it filled.
	memMs, err := medianMs(samples, mem)
	if err != nil {
		return err
	}
	base, err := e.scratch("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	var dirs []string
	coldMs, err := medianMs(samples, func() error {
		dir := filepath.Join(base, fmt.Sprint(len(dirs)))
		dirs = append(dirs, dir)
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			return err
		}
		return st.bootSweep(nil, store, pool, outs)
	})
	if err != nil {
		return err
	}
	vals["artifact.persist_ms"] = coldMs - memMs
	filepath.WalkDir(dirs[0], func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				vals["artifact.files"]++
				vals["artifact.disk_bytes"] += float64(info.Size())
			}
		}
		return nil
	})
	for i, r := range st.rs {
		dir := filepath.Join(base, "one-"+r.key)
		ms, err := medianMs(samples, func() error {
			os.RemoveAll(dir)
			store, err := artifact.Open(dir, artifact.Options{})
			if err != nil {
				return err
			}
			_, err = st.bootOnce(nil, i, store, pool)
			return err
		})
		if err != nil {
			return err
		}
		vals["boot."+r.key+"_ms"] = ms
	}
	// Warm: new store, new engines, same directory. Reads replace
	// writes; nothing may be built or lowered again.
	builds, lowered := interp.PlanStats().Builds, interp.EngineStatsSnapshot().Compiled["jit"]
	var store *artifact.Store
	warmMs, err := medianMs(samples, func() error {
		if store, err = artifact.Open(dirs[0], artifact.Options{}); err != nil {
			return err
		}
		return st.bootSweep(nil, store, pool, outs)
	})
	if err != nil {
		return err
	}
	if b, l := interp.PlanStats().Builds-builds, interp.EngineStatsSnapshot().Compiled["jit"]-lowered; b != 0 || l != 0 {
		return fmt.Errorf("warm boot built %d plans and lowered %d rules; want none", b, l)
	}
	vals["artifact.warm_boot_ms"] = warmMs
	vals["artifact.warm_speedup"] = coldMs / warmMs
	vals["artifact.disk_hits"] = float64(store.DiskHits())
	return nil
}

// --- server, bench, configstore: self times from outside ---------------------------------------

func probeServe(e env, vals map[string]float64) error {
	const samples = 100
	node, err := newServeNode(e, nil)
	if err != nil {
		return err
	}
	defer node.close()
	ts := httptest.NewServer(node.handler)
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	seed := e.seed * 7919
	var httpMs, handlerMs, runMs, execMs, bytes float64
	for _, r := range serveRequests() {
		b, _ := node.reg.Get(r.program)
		var n int
		var secs []float64
		ms, err := interleavedMs(samples,
			// Through a socket.
			func() (err error) {
				seed++
				_, n, err = post(hc, ts.URL, nil, r, seed)
				return err
			},
			// The handler alone, on a recorder.
			func() error {
				seed++
				body := fmt.Sprintf(`{"program":%q,"n":%d,"seed":%d}`, r.program, r.n, seed)
				rec := httptest.NewRecorder()
				node.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler: status %d", rec.Code)
				}
				return nil
			},
			// The registered benchmark alone, and inside it the kernel.
			func() error {
				seed++
				res, err := b.Run(node.pool, node.cfg, r.n, seed, bench.RunOpts{AccIndex: -1})
				secs = append(secs, res.Seconds)
				return err
			})
		if err != nil {
			return err
		}
		vals["serve."+r.key+"_ms"] = ms[0]
		httpMs += ms[0]
		handlerMs += ms[1]
		runMs += ms[2]
		execMs += 1e3 * median(secs)
		bytes += float64(n)
	}
	vals["server.http_ms"] = httpMs - handlerMs
	vals["server.handler_ms"] = handlerMs
	vals["server.self_ms"] = handlerMs - runMs
	vals["bench.run_ms"] = runMs
	vals["bench.inputgen_ms"] = runMs - execMs
	vals["server.exec_ms"] = execMs
	vals["server.exec_share"] = 100 * execMs / httpMs
	vals["server.json_bytes"] = bytes

	const lookups = 20000
	ms, _ := medianMs(5, func() error {
		for i := 0; i < lookups; i++ {
			if _, _, ok := node.store.Lookup("Heat1D", 64, e.nproc); !ok {
				return fmt.Errorf("configstore: Heat1D not in the store")
			}
		}
		return nil
	})
	vals["configstore.lookup_ns"] = ms * 1e6 / lookups

	// A burst from nproc clients at once: nothing may be shed (admission
	// has a slot per client) and nothing coalesced (it is off).
	var wg sync.WaitGroup
	errs := make([]error, e.nproc)
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			for i := 0; i < samples && errs[c] == nil; i++ {
				for _, r := range serveRequests() {
					if _, _, err := post(hc, ts.URL, nil, r, seed+int64(1+c*samples+i)); err != nil {
						errs[c] = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	rec := httptest.NewRecorder()
	node.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		Requests struct{ Shed float64 }
		Coalesce struct{ Followers float64 }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	vals["server.shed"] = stats.Requests.Shed
	vals["server.coalesced"] = stats.Coalesce.Followers
	return nil
}
