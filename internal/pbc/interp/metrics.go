package interp

import (
	"sync"
	"sync/atomic"

	"petabricks/internal/obs"
)

// interpMetrics is the engine's instrumentation: compile-cache traffic,
// schedule-shape choices, and per-transform execution histograms. It is
// installed package-wide (engines are created freely — per request, per
// fuzz case — so per-engine wiring would mostly measure construction).
type interpMetrics struct {
	reg *obs.Registry

	cacheHit  *obs.Counter // compiled-program cache hits
	cacheMiss *obs.Counter // compiled-program cache misses (new holder)
	fallback  *obs.Counter // rules that fell back to the AST interpreter

	schedMacro      *obs.Counter // invocations whose macro rules produced every output
	schedParallel   *obs.Counter // invocations on the parallel task schedule
	schedSequential *obs.Counter // invocations run sequentially (no pool)
	schedDegenerate *obs.Counter // pool available but no plan: sizes below MinInputSize, or the builder declined

	callInplace *obs.Counter // `b = T(…)` results the callee wrote into b
	callCopied  *obs.Counter // `b = T(…)` results copied into b (aliasing or shape)

	stepsPlain  *obs.Counter // independent-region schedule steps
	stepsCyclic *obs.Counter // cyclic wavefront steps
	stepsLex    *obs.Counter // lexicographic wavefront steps

	planHit   *obs.Counter   // execution-plan cache hits
	planMiss  *obs.Counter   // execution-plan cache misses (plan materialized)
	planEvict *obs.Counter   // execution-plan cache evictions (FIFO bound)
	planTiles *obs.Histogram // tasks per built plan (tiles + fences + steps)
	planBuild *obs.Counter   // plans constructed from the schedule

	jitCompiled  *obs.Counter // rules lowered to bytecode programs
	jitViewRules *obs.Counter // lowered programs carrying view refs (reduction loops)

	runHists      sync.Map // transform name -> *obs.Histogram
	bytecodeHists sync.Map // transform name -> *obs.Histogram
}

// im holds the installed metrics; a nil load is the disabled state and
// costs the hot path one atomic pointer load per transform invocation.
var im atomic.Pointer[interpMetrics]

// Instrument installs engine instrumentation on reg; Instrument(nil)
// disables it again. Affects every Engine in the process.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		im.Store(nil)
		return
	}
	m := &interpMetrics{reg: reg}
	m.cacheHit = reg.Counter("pb_interp_cache_hits_total", "Compiled-program cache hits.")
	m.cacheMiss = reg.Counter("pb_interp_cache_misses_total", "Compiled-program cache misses.")
	m.fallback = reg.Counter("pb_interp_compile_fallbacks_total", "Rules outside the compilable fragment (AST interpreter).")
	m.schedMacro = reg.Counter("pb_interp_schedules_total", "Transform invocations by schedule shape.", obs.L("shape", "macro"))
	m.schedParallel = reg.Counter("pb_interp_schedules_total", "Transform invocations by schedule shape.", obs.L("shape", "parallel"))
	m.schedSequential = reg.Counter("pb_interp_schedules_total", "Transform invocations by schedule shape.", obs.L("shape", "sequential"))
	m.schedDegenerate = reg.Counter("pb_interp_schedules_total", "Transform invocations by schedule shape.", obs.L("shape", "degenerate_sequential"))
	m.callInplace = reg.Counter("pb_interp_call_results_total", "Transform-call results assigned to a region, by how they got there.", obs.L("path", "inplace"))
	m.callCopied = reg.Counter("pb_interp_call_results_total", "Transform-call results assigned to a region, by how they got there.", obs.L("path", "copied"))
	m.stepsPlain = reg.Counter("pb_interp_steps_total", "Schedule steps executed by kind.", obs.L("kind", "plain"))
	m.stepsCyclic = reg.Counter("pb_interp_steps_total", "Schedule steps executed by kind.", obs.L("kind", "cyclic"))
	m.stepsLex = reg.Counter("pb_interp_steps_total", "Schedule steps executed by kind.", obs.L("kind", "lex"))
	m.planHit = reg.Counter("pb_interp_plan_cache_hits_total", "Execution-plan cache hits.")
	m.planMiss = reg.Counter("pb_interp_plan_cache_misses_total", "Execution-plan cache misses (plan built).")
	m.planEvict = reg.Counter("pb_interp_plan_cache_evictions_total", "Execution-plan cache entries evicted by the FIFO bound.")
	m.planTiles = reg.Histogram("pb_interp_plan_tasks", "Tasks per built execution plan (tiles, fences and step tasks).",
		obs.ExpBuckets(1, 2, 12))
	m.planBuild = reg.Counter("pb_plan_builds_total", "Execution plans constructed from the schedule (cache and disk both missed).")
	m.jitCompiled = reg.Counter("pb_jit_rules_compiled_total", "Rules lowered to flat-bytecode programs.")
	m.jitViewRules = reg.Counter("pb_jit_view_rules_total", "Lowered rule programs whose bytecode binds region views (reduction loops).")
	im.Store(m)
}

// runHist returns the execution-latency histogram for one transform,
// creating it on first use.
func (m *interpMetrics) runHist(name string) *obs.Histogram {
	if h, ok := m.runHists.Load(name); ok {
		return h.(*obs.Histogram)
	}
	h := m.reg.Histogram("pb_interp_run_seconds", "Top-level transform execution latency.",
		obs.LatencyBuckets, obs.L("transform", name))
	m.runHists.Store(name, h)
	return h
}

// bytecodeHist returns the per-transform bytecode-length histogram,
// creating it on first use; observed once per rule lowered.
func (m *interpMetrics) bytecodeHist(name string) *obs.Histogram {
	if h, ok := m.bytecodeHists.Load(name); ok {
		return h.(*obs.Histogram)
	}
	h := m.reg.Histogram("pb_jit_bytecode_len", "Instructions per lowered rule program.",
		obs.ExpBuckets(4, 2, 10), obs.L("transform", name))
	m.bytecodeHists.Store(name, h)
	return h
}
