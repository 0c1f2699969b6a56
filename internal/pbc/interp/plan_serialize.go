package interp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/runtime"
)

// This file splits the execution plan into a pure-data PlanDescriptor
// and a rehydration pass, making the plan tier serializable. A built
// plan holds live pointers — *analysis.Step, *analysis.Node,
// *analysis.RuleInfo — but everything those pointers carry into
// execution is identified by stable indices: the schedule position, the
// choice-graph node ID, and the AST rule index. The descriptor records
// those indices plus the data that is already flat (the CSR task graph,
// concrete tile bounds, lex orders), gob-serializes under
// artifact.KindPlan, and rehydrates against a live analysis in O(tasks)
// at load time. Validate mirrors the jit decoder's stance: every index
// in range, dep-counts consistent with successors, DAG acyclic —
// nothing unverified reaches the zero-check run arena.

// Plan task kinds, the discriminant of PlanTaskDesc (mirroring the
// three planTask shapes).
const (
	PlanTaskFence = iota // empty barrier joining a tiled step to a consumer
	PlanTaskStep         // run a whole schedule step (fallback granularity)
	PlanTaskTile         // run a pre-chosen rule over concrete bounds
)

// PlanTaskDesc is the pure-data form of one planTask.
type PlanTaskDesc struct {
	Kind int32
	// Step is the schedule index (PlanTaskStep only).
	Step int32
	// Node is the choice-graph node ID and Rule the chosen rule's stable
	// AST index (PlanTaskTile only).
	Node   int32
	Rule   int32
	Bounds [][2]int64
	Lex    []analysis.LexDim
}

// PlanDescriptor is the serializable form of a plan: the task list plus
// the CSR dependency graph exactly as the runtime's Run arena consumes
// it (successor offsets, successors, initial dep-counts).
type PlanDescriptor struct {
	Tasks    []PlanTaskDesc
	SuccOff  []int32
	Succs    []int32
	InitDeps []int32
}

// EncodePlan serializes a descriptor for the artifact disk tier.
func EncodePlan(d *PlanDescriptor) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return nil, fmt.Errorf("interp: encoding plan descriptor: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePlan deserializes a descriptor. It performs no validation —
// callers must run Validate (or rehydrate, which does) against the
// analysis the plan will execute under before anything runs.
func DecodePlan(payload []byte) (*PlanDescriptor, error) {
	d := &PlanDescriptor{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(d); err != nil {
		return nil, fmt.Errorf("interp: decoding plan descriptor: %w", err)
	}
	return d, nil
}

// describePlan flattens a freshly built plan into its descriptor, or
// reports ok=false for a shape that cannot be described (a task bound
// to state outside the stable-index spaces); such plans simply stay
// memory-only.
func describePlan(res *analysis.Result, p *plan) (*PlanDescriptor, bool) {
	stepIdx := make(map[*analysis.Step]int32, len(res.Schedule))
	for i, st := range res.Schedule {
		stepIdx[st] = int32(i)
	}
	d := &PlanDescriptor{
		Tasks:    make([]PlanTaskDesc, len(p.tasks)),
		SuccOff:  p.graph.SuccOff,
		Succs:    p.graph.Succs,
		InitDeps: p.graph.InitDeps,
	}
	for i := range p.tasks {
		t := &p.tasks[i]
		td := &d.Tasks[i]
		switch {
		case t.step != nil:
			si, ok := stepIdx[t.step]
			if !ok {
				return nil, false
			}
			td.Kind, td.Step = PlanTaskStep, si
		case t.node != nil:
			id := t.node.ID
			if id < 0 || id >= len(res.Graph.Nodes) || res.Graph.Nodes[id] != t.node || t.ri == nil {
				return nil, false
			}
			td.Kind = PlanTaskTile
			td.Node = int32(id)
			td.Rule = int32(t.ri.Rule.Index)
			td.Bounds = t.bounds
			td.Lex = t.lex
		default:
			td.Kind = PlanTaskFence
		}
	}
	return d, true
}

// Validate checks a decoded descriptor against the analysis it claims
// to schedule, mirroring the jit decoder's validation stance: the run
// arena and runCells perform zero bounds checks, so every index must be
// proven in range and the graph proven a consistent DAG here. Returns
// the first inconsistency found.
func (d *PlanDescriptor) Validate(res *analysis.Result) error {
	n := len(d.Tasks)
	if len(d.SuccOff) != n+1 {
		return fmt.Errorf("interp: plan descriptor: %d tasks but %d successor offsets", n, len(d.SuccOff))
	}
	if len(d.InitDeps) != n {
		return fmt.Errorf("interp: plan descriptor: %d tasks but %d dep-counts", n, len(d.InitDeps))
	}
	if d.SuccOff[0] != 0 || int(d.SuccOff[n]) != len(d.Succs) {
		return fmt.Errorf("interp: plan descriptor: successor offsets do not span the edge list")
	}
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		if d.SuccOff[i] > d.SuccOff[i+1] || int(d.SuccOff[i+1]) > len(d.Succs) {
			return fmt.Errorf("interp: plan descriptor: successor offsets not monotone at task %d", i)
		}
		for _, s := range d.Succs[d.SuccOff[i]:d.SuccOff[i+1]] {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("interp: plan descriptor: successor %d of task %d out of range", s, i)
			}
			if int(s) == i {
				return fmt.Errorf("interp: plan descriptor: task %d depends on itself", i)
			}
			indeg[s]++
		}
	}
	ready := make([]int32, 0, n)
	for i, deg := range indeg {
		if deg != d.InitDeps[i] {
			return fmt.Errorf("interp: plan descriptor: task %d dep-count %d inconsistent with successors (%d)", i, d.InitDeps[i], deg)
		}
		if deg == 0 {
			ready = append(ready, int32(i))
		}
	}
	visited := 0
	for len(ready) > 0 {
		t := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		visited++
		for _, s := range d.Succs[d.SuccOff[t]:d.SuccOff[t+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if visited != n {
		return fmt.Errorf("interp: plan descriptor: dependency graph has a cycle (%d of %d tasks reachable)", visited, n)
	}
	for i := range d.Tasks {
		if err := d.Tasks[i].validate(res); err != nil {
			return fmt.Errorf("interp: plan descriptor: task %d: %w", i, err)
		}
	}
	return nil
}

func (td *PlanTaskDesc) validate(res *analysis.Result) error {
	switch td.Kind {
	case PlanTaskFence:
		return nil
	case PlanTaskStep:
		if td.Step < 0 || int(td.Step) >= len(res.Schedule) {
			return fmt.Errorf("schedule index %d out of range", td.Step)
		}
		return nil
	case PlanTaskTile:
		if td.Node < 0 || int(td.Node) >= len(res.Graph.Nodes) {
			return fmt.Errorf("node %d out of range", td.Node)
		}
		node := res.Graph.Nodes[td.Node]
		if node.Cell == nil {
			return fmt.Errorf("node %d has no choice cell", td.Node)
		}
		ri := findRule(node.Cell, int(td.Rule))
		if ri == nil {
			return fmt.Errorf("node %d has no rule with index %d", td.Node, td.Rule)
		}
		if len(td.Bounds) != len(ri.CenterVars) {
			return fmt.Errorf("rank %d bounds for rank-%d rule r%d", len(td.Bounds), len(ri.CenterVars), td.Rule)
		}
		if td.Lex != nil && len(td.Lex) != len(td.Bounds) {
			return fmt.Errorf("lex order of %d dimensions for a rank-%d tile", len(td.Lex), len(td.Bounds))
		}
		seen := 0
		for _, ld := range td.Lex {
			if ld.Dim < 0 || ld.Dim >= len(td.Bounds) {
				return fmt.Errorf("lex dimension %d out of range", ld.Dim)
			}
			if seen>>ld.Dim&1 != 0 {
				return fmt.Errorf("lex dimension %d repeated", ld.Dim)
			}
			seen |= 1 << ld.Dim
			if ld.Dir != 1 && ld.Dir != -1 {
				return fmt.Errorf("lex direction %d (want ±1)", ld.Dir)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown task kind %d", td.Kind)
	}
}

// findRule returns the cell's rule with the given stable AST index.
func findRule(gc *analysis.GridCell, idx int) *analysis.RuleInfo {
	for _, ri := range gc.Rules {
		if ri.Rule.Index == idx {
			return ri
		}
	}
	return nil
}

// rehydrate validates the descriptor and rebinds it against a live
// analysis: schedule indices back to *Step, node IDs back to *Node,
// rule indices back to *RuleInfo, and the CSR arrays directly into a
// runtime.TaskGraph (the Run arena reads exactly these three slices).
// The result is indistinguishable from a freshly built plan.
func (d *PlanDescriptor) rehydrate(res *analysis.Result) (*plan, error) {
	if err := d.Validate(res); err != nil {
		return nil, err
	}
	tasks := make([]planTask, len(d.Tasks))
	for i := range d.Tasks {
		td := &d.Tasks[i]
		switch td.Kind {
		case PlanTaskStep:
			tasks[i] = planTask{step: res.Schedule[td.Step]}
		case PlanTaskTile:
			node := res.Graph.Nodes[td.Node]
			tasks[i] = planTask{
				node:   node,
				ri:     findRule(node.Cell, int(td.Rule)),
				bounds: td.Bounds,
				lex:    td.Lex,
			}
		}
	}
	g := &runtime.TaskGraph{SuccOff: d.SuccOff, Succs: d.Succs, InitDeps: d.InitDeps}
	return &plan{graph: g, tasks: tasks}, nil
}

// --- Always-on plan-tier counters ------------------------------------------

// PlanCounters is the process-wide plan-tier traffic snapshot: how many
// plans were constructed from the schedule, how many were warm-started
// from persisted descriptors, and the cumulative construction time.
// Like the tier compilation stats these are always on (the obs metrics
// mirror them when Instrument installs a registry); pbserve surfaces
// them in /v1/stats' artifacts section and coldwarm_smoke.sh asserts a
// rebooted node does zero constructions.
type PlanCounters struct {
	Builds       int64   `json:"builds"`
	WarmLoads    int64   `json:"warm_loads"`
	BuildSeconds float64 `json:"build_seconds"`
}

var planCtr struct {
	builds     atomic.Int64
	warmLoads  atomic.Int64
	buildNanos atomic.Int64
}

// compileNanos accumulates wall time spent lowering rules to jit
// bytecode; the repository benchmark reads the delta as
// interp.compile_ms to split a cold boot into plan-construction vs
// compile vs execute time.
var compileNanos atomic.Int64

// PlanStats returns the current plan-tier counters.
func PlanStats() PlanCounters {
	return PlanCounters{
		Builds:       planCtr.builds.Load(),
		WarmLoads:    planCtr.warmLoads.Load(),
		BuildSeconds: float64(planCtr.buildNanos.Load()) / 1e9,
	}
}

// CompileSeconds returns the cumulative wall time this process has
// spent lowering rules from source to bytecode (warm bytecode loads are
// not compiles and do not count).
func CompileSeconds() float64 {
	return float64(compileNanos.Load()) / 1e9
}
