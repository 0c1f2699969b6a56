package interp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sync/atomic"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/runtime"
)

// This file persists a built plan under artifact.KindPlan and reloads
// it. A plan's tasks are already pure data (planTask addresses steps,
// nodes and rules by stable index), so the disk image is the task list
// itself plus the dependency edges read off the CSR graph. Loading
// mirrors the jit decoder's stance — the run arena and runCells perform
// no bounds checks, so every task is checked against the analysis it
// will run under, and the graph is rebuilt by runtime.GraphBuilder,
// which rejects cycles, from edges checked to be in range and not
// self-edges. Tile bounds are taken as stored: proving that the tiles
// cover their nodes' regions would cost a plan build.

// planImage is a plan as the disk tier stores it: its tasks and its
// dependency edges, edge i running from task From[i] to task To[i].
type planImage struct {
	Tasks    []planTask
	From, To []int32
}

// encodePlan serializes a built plan for the disk tier.
func encodePlan(p *plan) ([]byte, error) {
	g := p.graph
	from := make([]int32, len(g.Succs))
	for t := range p.tasks {
		for e := g.SuccOff[t]; e < g.SuccOff[t+1]; e++ {
			from[e] = int32(t)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&planImage{Tasks: p.tasks, From: from, To: g.Succs}); err != nil {
		return nil, fmt.Errorf("interp: encoding plan: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePlan reloads a persisted plan against the analysis it will run
// under, returning the first inconsistency found. A plan encodePlan
// wrote reloads deep-equal to the one it was given.
func decodePlan(payload []byte, res *analysis.Result) (*plan, error) {
	var img planImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, fmt.Errorf("interp: decoding plan: %w", err)
	}
	for i := range img.Tasks {
		if err := img.Tasks[i].validate(res); err != nil {
			return nil, fmt.Errorf("interp: plan task %d: %w", i, err)
		}
	}
	n := len(img.Tasks)
	if len(img.From) != len(img.To) {
		return nil, fmt.Errorf("interp: plan: %d edge sources but %d targets", len(img.From), len(img.To))
	}
	gb := runtime.NewGraphBuilder(n)
	for i, from := range img.From {
		to := img.To[i]
		if from < 0 || int(from) >= n || to < 0 || int(to) >= n {
			return nil, fmt.Errorf("interp: plan: edge %d→%d out of range for %d tasks", from, to, n)
		}
		if from == to {
			return nil, fmt.Errorf("interp: plan: task %d depends on itself", from)
		}
		gb.Edge(int(from), int(to))
	}
	g, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("interp: plan: %w", err)
	}
	return &plan{graph: g, tasks: img.Tasks}, nil
}

// validate checks that t names state res has, in the shape the executor
// runs it.
func (t *planTask) validate(res *analysis.Result) error {
	switch t.Kind {
	case planFence:
		return nil
	case planStep:
		if t.Step < 0 || int(t.Step) >= len(res.Schedule) {
			return fmt.Errorf("schedule index %d out of range", t.Step)
		}
		return nil
	case planTile:
		if t.Node < 0 || int(t.Node) >= len(res.Graph.Nodes) {
			return fmt.Errorf("node %d out of range", t.Node)
		}
		cell := res.Graph.Nodes[t.Node].Cell
		if cell == nil {
			return fmt.Errorf("node %d has no choice cell", t.Node)
		}
		if t.Rule < 0 || int(t.Rule) >= len(res.Rules) || !slices.Contains(cell.Rules, res.Rules[t.Rule]) {
			return fmt.Errorf("node %d has no rule with index %d", t.Node, t.Rule)
		}
		if rank := len(res.Rules[t.Rule].CenterVars); len(t.Bounds) != rank {
			return fmt.Errorf("rank %d bounds for rank-%d rule r%d", len(t.Bounds), rank, t.Rule)
		}
		if t.Lex != nil && len(t.Lex) != len(t.Bounds) {
			return fmt.Errorf("lex order of %d dimensions for a rank-%d tile", len(t.Lex), len(t.Bounds))
		}
		seen := 0
		for _, ld := range t.Lex {
			if ld.Dim < 0 || ld.Dim >= len(t.Bounds) {
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
		return fmt.Errorf("unknown task kind %d", t.Kind)
	}
}

// --- Always-on plan-tier counters ------------------------------------------

// PlanCounters is the process-wide plan-tier traffic snapshot: how many
// plans were constructed from the schedule, how many were reloaded from
// the disk tier, and the cumulative construction time.
// Like the tier compilation stats these are always on (the obs metrics
// mirror them when Instrument installs a registry); the repository
// benchmark reads plan construction time from them.
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
