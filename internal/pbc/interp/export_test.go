package interp

import (
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
