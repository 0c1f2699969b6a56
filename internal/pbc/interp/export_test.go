package interp

import (
	"fmt"
	"math/rand"

	"petabricks/internal/artifact"
	"petabricks/internal/matrix"
)

// BindShapes exposes the shape binder to the external test package
// (which may import the program generator; this package cannot). It
// binds one input set twice — through the transform's compiled solve
// order and through the symbolic reference solver — and reports both
// results, plus whether the transform has a compiled integer form at
// all (without one the first result is the symbolic fallback).
func BindShapes(e *Engine, name string, targs []int64, inputs map[string]*matrix.Matrix) (fast, ref map[string]int64, fastErr, refErr error, compiled bool) {
	if len(targs) > 0 {
		inst, err := e.instantiate(name, targs)
		if err != nil {
			return nil, nil, err, err, false
		}
		name = inst
	}
	ti, ok := e.transform(name)
	if !ok {
		panic("BindShapes: unknown transform " + name)
	}
	ins := ti.positional(inputs)
	sizes := make([]int64, len(ti.sizeVars))
	if fastErr = ti.bind(ins, sizes); fastErr == nil {
		fast = map[string]int64{}
		for i, v := range ti.sizeVars {
			fast[v] = sizes[i]
		}
	}
	ref, refErr = ti.bindSymbolic(ins)
	return fast, ref, fastErr, refErr, ti.fast
}

// PoisonRecycled makes every matrix handed to recycle — call
// temporaries, nested intermediates, copied fallback results — fill
// with NaN before its storage returns to the free list, so a stale view
// of one shows up as a wrong output. Not safe to flip while engines run.
func PoisonRecycled(on bool) { poisonRecycled = on }

// DeclinePlans makes the plan builder decline every schedule, so pooled
// invocations take the serial step loop. Not safe to flip while engines
// run.
func DeclinePlans(on bool) { declinePlans = on }

// Artifacts returns the engine's artifact store.
func (e *Engine) Artifacts() *artifact.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.arts
}

// resetTierStats clears the registry; test helper.
func resetTierStats() {
	s := &tierStats
	s.mu.Lock()
	s.compiled = nil
	s.fallbacks = nil
	s.dropped = false
	s.mu.Unlock()
}

// RunShuffled runs a transform as a pooled Run would, but serially: the
// macro rules the configuration picks run first, then the plan's tasks
// run one at a time on the calling thread, in a topological order of
// the plan's graph drawn by Kahn's algorithm with a random pick, seeded
// by seed, among the ready tasks. So a task whose dependency edge is
// missing runs before its producer in some seeds even on one core.
// tasks is the plan's task count, 0 when the run took the step loop
// (degenerate sizes, a declined plan). Calls made by rule bodies run as
// in an unpooled Run.
func (e *Engine) RunShuffled(name string, targs []int64, inputs map[string]*matrix.Matrix, seed int64) (out map[string]*matrix.Matrix, tasks int, err error) {
	if len(targs) > 0 {
		if name, err = e.instantiate(name, targs); err != nil {
			return nil, 0, err
		}
	}
	ti, ok := e.transform(name)
	if !ok {
		return nil, 0, fmt.Errorf("unknown transform %q", name)
	}
	ex, err := e.newExec(ti, ti.positional(inputs), nil, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	for _, step := range ex.res.Schedule {
		for _, node := range step.Nodes {
			if ri := ex.chooseMacro(ex.res.Grids[node.Matrix]); ri != nil && !ex.skips(node) {
				if err := ex.runMacro(ri); err != nil {
					return nil, 0, err
				}
				ex.markDone(node)
			}
		}
	}
	var p *plan
	if ex.sizesMeetAssumption() {
		p = ex.planFor()
	}
	if p == nil {
		for _, step := range ex.res.Schedule {
			if err := ex.runStep(step, nil); err != nil {
				return nil, 0, err
			}
		}
	} else {
		g := p.graph
		deps := append([]int32(nil), g.InitDeps...)
		var ready []int
		for i, d := range deps {
			if d == 0 {
				ready = append(ready, i)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			i := ready[k]
			ready[k] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			if err := ex.runPlanTask(&p.tasks[i], nil); err != nil {
				return nil, 0, err
			}
			for _, s := range g.Succs[g.SuccOff[i]:g.SuccOff[i+1]] {
				if deps[s]--; deps[s] == 0 {
					ready = append(ready, int(s))
				}
			}
		}
		tasks = len(p.tasks)
	}
	out = make(map[string]*matrix.Matrix, ti.nOut)
	for i, m := range ex.outputs() {
		out[ti.decls[ti.nIn+i].Name] = m
	}
	ex.release()
	return out, tasks, nil
}
