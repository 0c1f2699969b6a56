package interp

import (
	"fmt"

	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/symbolic"
)

// Space derives the configuration search space of a transform from its
// analysis: one selector whose choices are the transform's rules (macro
// rules marked recursive, since they re-enter the transform), plus the
// declared tunables.
func Space(res *analysis.Result) *choice.Space {
	t := res.Transform
	names := make([]string, len(t.Rules))
	recursive := make([]bool, len(t.Rules))
	for i, ri := range res.Rules {
		names[i] = fmt.Sprintf("r%d", i)
		recursive[i] = ri.Kind == analysis.RuleMacro
	}
	sp := &choice.Space{}
	sp.AddSelector(choice.SelectorSpec{
		Transform:   SelectorName(t.Name),
		ChoiceNames: names,
		Recursive:   recursive,
		MaxLevels:   3,
	})
	for _, td := range t.Tunables {
		sp.AddTunable(choice.TunableSpec{
			Name: SelectorName(t.Name) + "." + td.Name,
			Min:  td.Min, Max: td.Max, Default: td.Defalt,
			LogScale: true,
		})
	}
	// The plan-tile grain is searchable like any declared cutoff (it
	// trades scheduling overhead for load balance). Only a pooled run
	// builds a plan, so only a candidate timed on a pool reads it, and
	// only for a step the plan may tile.
	if tilesByGrain(res) {
		sp.AddTunable(choice.TunableSpec{
			Name:     ParGrainKey,
			Min:      1,
			Max:      1 << 16,
			Default:  DefaultParGrain,
			LogScale: true,
		})
	}
	return sp
}

// tilesByGrain reports whether some schedule step may be tiled by the
// plan-tile grain. Two kinds never are: a rank-1 cyclic step, which the
// plan runs as one serial task, and a region of at most one cell, which
// never holds the 2·grain cells a tile split needs. A step not provably
// one of them counts as tiled.
func tilesByGrain(res *analysis.Result) bool {
	for _, st := range res.Schedule {
		for _, n := range st.Nodes {
			if st.Cyclic && st.Lex == nil && len(n.Region) == 1 {
				continue
			}
			one := true
			for _, iv := range n.Region {
				ext, ok := symbolic.Sub(iv.End, iv.Begin).IsConst()
				one = one && ok && ext.Cmp(symbolic.RatInt(1)) <= 0
			}
			if !one {
				return true
			}
		}
	}
	return false
}

// GenerateInputs builds the training inputs of one transform at the
// given size: via its generator transform when declared, else uniform
// random matrices with every size variable bound to size.
func (e *Engine) GenerateInputs(name string, size, seed int64) (map[string]*matrix.Matrix, error) {
	res, ok := e.Analysis(name)
	if !ok {
		return nil, fmt.Errorf("interp: unknown transform %q", name)
	}
	t := res.Transform
	if t.Generator != "" {
		return e.generatorInputs(res, size, seed)
	}
	rng := matrix.Rand(seed)
	defer matrix.PutRand(rng)
	sizes := map[string]int64{}
	for _, v := range res.SizeVars {
		sizes[v] = size
	}
	inputs := map[string]*matrix.Matrix{}
	for _, d := range t.From {
		mi := res.Matrices[d.Name]
		dims := make([]int, len(mi.Dims))
		for i, se := range mi.Dims {
			v, err := se.Eval(sizes)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("interp: cannot size input %s at training size %d", d.Name, size)
			}
			dims[i] = int(v)
		}
		rev := make([]int, len(dims))
		for i := range dims {
			rev[i] = dims[len(dims)-1-i]
		}
		m := matrix.New(rev...)
		m.Each(func([]int, float64) float64 { return float64(rng.Intn(1 << 16)) })
		inputs[d.Name] = m
	}
	return inputs, nil
}

// generatorInputs runs the declared generator transform to produce the
// training inputs. The generator's single input is a seed matrix of the
// requested size; its outputs must match the tuned transform's inputs by
// name.
func (e *Engine) generatorInputs(res *analysis.Result, size, seed int64) (map[string]*matrix.Matrix, error) {
	gen := res.Transform.Generator
	gres, ok := e.Analysis(gen)
	if !ok {
		return nil, fmt.Errorf("interp: generator transform %q not found", gen)
	}
	rng := matrix.Rand(seed)
	genInputs := map[string]*matrix.Matrix{}
	for _, d := range gres.Transform.From {
		nd := len(gres.Matrices[d.Name].Dims)
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = int(size)
		}
		m := matrix.New(dims...)
		m.Each(func([]int, float64) float64 { return float64(rng.Intn(1 << 16)) })
		genInputs[d.Name] = m
	}
	matrix.PutRand(rng)
	outs, err := e.Run(gen, genInputs)
	if err != nil {
		return nil, fmt.Errorf("interp: generator %s: %w", gen, err)
	}
	inputs := map[string]*matrix.Matrix{}
	for _, d := range res.Transform.From {
		m, ok := outs[d.Name]
		if !ok {
			return nil, fmt.Errorf("interp: generator %s does not produce input %q", gen, d.Name)
		}
		inputs[d.Name] = m
	}
	return inputs, nil
}
