package main

import (
	"bytes"
	"encoding/json"
)

// This file is the single list of what the benchmark measures. main.go
// prints exactly these names, BENCHMARK.json at the repository root is
// generated from them (`-emit-spec`), and benchmark_test.go checks the two
// agree.

// runSeconds is how long one run measures: that many rounds of one
// second each. See README.md "Noise rules" for why rounds, and why 15.
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"exec_cell", "steady-state Engine.Run on a 1-worker pool at the default grain: the vm's per-cell loop does the work, the executor almost none"},
	{"exec_task", "the same cell rules cut into 250-2000 tasks per run (pbc.parGrain=4), 1-worker pool: task creation, dependency counting and queueing hold about a third of the op"},
	{"exec_macro", "multi-level selectors (MergeSortDSL, recursive MatrixMultiply): engine re-entry, closure-tier fallback, nested joins and allocation dominate"},
	{"boot_cold", "parse, analyse, plan, lower and persist five programs against an empty artifact directory, then run each once at small n: the compile pipeline does the work"},
	{"serve_small", "nproc closed-loop keep-alive HTTP clients sending five small requests per op: HTTP, JSON, admission, config lookup and input generation dominate"},
}

func bound(b float64) *float64 { return &b }

// endToEnd is reported by an untraced run (`--trace 0`), the same three
// on every workload. The bounds are the calibrated ones, and the three
// metrics calibration moved out of this list are at the end of perLayer
// as e2e.*: see README.md "Calibration".
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower", bound(0.25)},
	{"alloc_kb_per_op", "KiB", "lower", bound(0.02)},
	{"setup_s", "s", "lower", bound(0.25)},
}

func layer(name, unit, better string) metricSpec { return metricSpec{name, unit, better, nil} }

// perLayer is reported by a traced run (`--trace 1`). Names starting
// with the run's own layers (interp.tier_*, interp.seq_ms,
// interp.task_share, interp.*_per_op, runtime.*_per_op, host.*, go.*,
// trace.*) describe the workload the run was asked for; every other
// name is a fixed probe that reads the same in a traced run of any
// workload. README.md "Layer metrics" says which end-to-end metric each
// should move.
var perLayer = []metricSpec{
	// interp: per-program medians of the three exec tables.
	layer("exec.heat1d_ms", "ms", "lower"),
	layer("exec.matmul_base_ms", "ms", "lower"),
	layer("exec.rollingsum_direct_ms", "ms", "lower"),
	layer("exec.rollingsum_scan_ms", "ms", "lower"),
	layer("exec.pointwise_ms", "ms", "lower"),
	layer("exec.summedarea_fine_ms", "ms", "lower"),
	layer("exec.heat1d_fine_ms", "ms", "lower"),
	layer("exec.matmul_fine_ms", "ms", "lower"),
	layer("exec.mergesort_ms", "ms", "lower"),
	layer("exec.matmul_rec_ms", "ms", "lower"),
	// interp: the run's own table under each tier pin and without a pool.
	layer("interp.tier_ast_ms", "ms", "lower"),
	layer("interp.tier_closure_ms", "ms", "lower"),
	layer("interp.tier_jit_ms", "ms", "lower"),
	layer("interp.seq_ms", "ms", "lower"),
	layer("interp.task_share", "%", "lower"),
	layer("interp.fallback_rules", "count", "lower"),
	layer("interp.plan_hits_per_op", "count", "higher"),
	layer("interp.compile_hits_per_op", "count", "higher"),
	// jit: direct Compile + RunCell loops, no engine.
	layer("jit.cell_ns_stencil", "ns", "lower"),
	layer("jit.cell_ns_pointwise", "ns", "lower"),
	layer("jit.reduce_elem_ns", "ns", "lower"),
	layer("jit.bytecode_instrs", "count", "lower"),
	// runtime: pool counters of the run's op, then executor probes.
	layer("runtime.tasks_per_op", "count", "lower"),
	layer("runtime.steals_per_op", "count", "lower"),
	layer("runtime.parks_per_op", "count", "lower"),
	layer("runtime.wakes_per_op", "count", "lower"),
	layer("runtime.graph_node_ns", "ns", "lower"),
	layer("runtime.spawn_join_ns", "ns", "lower"),
	layer("runtime.wake_us", "us", "lower"),
	layer("runtime.par_cell_ms", "ms", "lower"),
	layer("runtime.par_task_ms", "ms", "lower"),
	layer("runtime.parallel_gain", "x", "higher"),
	// kernels: the native ceiling.
	layer("kernels.matmul_native_ms", "ms", "lower"),
	layer("kernels.sort_native_ms", "ms", "lower"),
	layer("exec.vm_gap_matmul", "x", "lower"),
	layer("exec.vm_gap_sort", "x", "lower"),
	// parser, analysis.
	layer("parser.parse_ms", "ms", "lower"),
	layer("parser.src_bytes", "B", "lower"),
	layer("analysis.analyze_ms", "ms", "lower"),
	layer("analysis.schedule_steps", "count", "lower"),
	layer("interp.new_ms", "ms", "lower"),
	// interp, jit: the compile side of a cold boot.
	layer("interp.plan_build_ms", "ms", "lower"),
	layer("interp.plan_tasks", "count", "lower"),
	layer("interp.compile_ms", "ms", "lower"),
	layer("jit.lower_ms", "ms", "lower"),
	layer("jit.rules_lowered", "count", "higher"),
	layer("interp.first_exec_ms", "ms", "lower"),
	layer("boot.heat1d_ms", "ms", "lower"),
	layer("boot.matmul_ms", "ms", "lower"),
	layer("boot.mergesort_ms", "ms", "lower"),
	layer("boot.rollingsum_ms", "ms", "lower"),
	layer("boot.summedarea_ms", "ms", "lower"),
	layer("codegen.generate_ms", "ms", "lower"),
	layer("codegen.go_bytes", "B", "lower"),
	// artifact.
	layer("artifact.persist_ms", "ms", "lower"),
	layer("artifact.disk_bytes", "B", "lower"),
	layer("artifact.files", "count", "lower"),
	layer("artifact.warm_boot_ms", "ms", "lower"),
	layer("artifact.warm_speedup", "x", "higher"),
	layer("artifact.disk_hits", "count", "higher"),
	// server, bench, configstore: self times measured from outside.
	layer("server.http_ms", "ms", "lower"),
	layer("server.handler_ms", "ms", "lower"),
	layer("server.self_ms", "ms", "lower"),
	layer("bench.run_ms", "ms", "lower"),
	layer("bench.inputgen_ms", "ms", "lower"),
	layer("server.exec_ms", "ms", "lower"),
	layer("server.exec_share", "%", "lower"),
	layer("configstore.lookup_ns", "ns", "lower"),
	layer("server.json_bytes", "B", "lower"),
	layer("server.shed", "count", "lower"),
	layer("server.coalesced", "count", "lower"),
	layer("serve.heat1d_ms", "ms", "lower"),
	layer("serve.rollingsum_ms", "ms", "lower"),
	layer("serve.summedarea_ms", "ms", "lower"),
	layer("serve.matmul_ms", "ms", "lower"),
	layer("serve.sort_ms", "ms", "lower"),
	// common.
	layer("host.nproc", "count", "higher"),
	layer("host.steal_pct", "%", "lower"),
	layer("host.rounds_discarded", "count", "lower"),
	layer("go.gc_cycles", "count", "lower"),
	layer("go.allocs_per_op", "count", "lower"),
	layer("trace.overhead_pct", "%", "lower"),
	// Demoted from the end-to-end list by calibration: reported, not
	// gated (README.md "Calibration").
	layer("e2e.latency_p90_ms", "ms", "lower"),
	layer("e2e.throughput_ops_s", "1/s", "higher"),
	layer("e2e.cpu_ms_per_op", "ms", "lower"),
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain data: cannot fail
	}
	return buf.Bytes()
}
