package interp

import (
	"fmt"
	"math/rand"

	"petabricks/internal/autotuner"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
)

// TuneOptions configures autotuning of a DSL transform.
type TuneOptions struct {
	// MinSize/MaxSize bound the doubling training sizes.
	MinSize, MaxSize int64
	// Seed drives training-input generation.
	Seed int64
	// CheckTol enables §3.5 consistency checking with the given
	// tolerance when >= 0 (exact equality at 0).
	CheckTol float64
}

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
	// The engine's parallel-iteration grain is searchable like any
	// declared cutoff (it trades scheduling overhead for load balance).
	sp.AddTunable(choice.TunableSpec{
		Name:     ParGrainKey,
		Min:      1,
		Max:      1 << 16,
		Default:  DefaultParGrain,
		LogScale: true,
	})
	return sp
}

// TuneProgram adapts transform name to the autotuner's Program
// interface. Training inputs come from the transform's `generator`
// transform when declared (the paper's generator keyword: "a transform
// to be used to supply input data during training"), and from uniform
// random data otherwise. Each candidate runs on a WithConfig view, so
// tuning never touches e.Cfg and concurrent traffic on e is never
// perturbed.
func (e *Engine) TuneProgram(name string) autotuner.Program {
	return &dslProgram{eng: e, name: name}
}

type dslProgram struct {
	eng  *Engine
	name string
}

// Run implements autotuner.Program.
func (p *dslProgram) Run(cfg *choice.Config, size, seed int64) (any, error) {
	e := p.eng.WithConfig(cfg)
	inputs, err := e.GenerateInputs(p.name, size, seed)
	if err != nil {
		return nil, err
	}
	return e.Run(p.name, inputs)
}

// Same implements autotuner.Program.
func (p *dslProgram) Same(a, b any, tol float64) bool {
	x, y := a.(map[string]*matrix.Matrix), b.(map[string]*matrix.Matrix)
	if len(x) != len(y) {
		return false
	}
	for k, m := range x {
		o, ok := y[k]
		if !ok || !m.AlmostEqual(o, tol) {
			return false
		}
	}
	return true
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
	rng := rand.New(rand.NewSource(seed))
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
	rng := rand.New(rand.NewSource(seed))
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

// Tune wall-clock-autotunes one transform of the engine's program and
// installs + returns the tuned configuration.
func (e *Engine) Tune(name string, opt TuneOptions) (*choice.Config, *autotuner.Report, error) {
	res, ok := e.Analysis(name)
	if !ok {
		return nil, nil, fmt.Errorf("interp: unknown transform %q", name)
	}
	sp := Space(res)
	prog := e.TuneProgram(name)
	tuneOpts := autotuner.Options{
		MinSize: opt.MinSize,
		MaxSize: opt.MaxSize,
	}
	if opt.CheckTol >= 0 {
		tuneOpts.Check = autotuner.ConsistencyCheck(prog, opt.CheckTol, opt.Seed+1)
	}
	// Each candidate is timed once.
	cfg, rep, err := autotuner.Tune(sp, &autotuner.WallClock{P: prog, Trials: 1, Seed: opt.Seed}, tuneOpts)
	if err != nil {
		return nil, nil, err
	}
	e.Cfg = cfg
	return cfg, rep, nil
}
