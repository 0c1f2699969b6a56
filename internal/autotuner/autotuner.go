// Package autotuner implements the PetaBricks autotuning system (§3.3):
// a population-based, bottom-up tuner that builds multi-level hybrid
// algorithms by doubling the training input size, extending the fastest
// candidates with new levels, refining cutoffs and tunable parameters
// with n-ary search, and dropping slow candidates — plus the automated
// consistency checking of §3.5.
package autotuner

import (
	"fmt"
	"math"
	"sort"

	"petabricks/internal/choice"
)

// Evaluator measures the cost of running a configuration on an input of
// a given size. The wall-clock evaluator runs the real program; the
// simarch package provides deterministic machine-model evaluators for
// the cross-architecture experiments.
type Evaluator interface {
	// Measure returns the cost (seconds, or model cost units) of one run
	// of the program under cfg on an input of size n. Lower is better.
	Measure(cfg *choice.Config, n int64) float64
}

// parentCount is how many of the fastest candidates spawn new levels
// at each step.
const parentCount = 3

// Options configures a tuning run.
type Options struct {
	// MinSize is the first training input size (paper: "starts with a
	// small training input"). Default 64.
	MinSize int64
	// MaxSize is the final training input size; each step doubles.
	MaxSize int64
	// Population caps the candidate population per step. Default 8.
	Population int
	// Repeats re-runs the whole size sweep, seeding from the previous
	// result ("it repeats the entire training process … a small number
	// of times"). Default 1 extra pass.
	Repeats int
	// CutoffCandidates is the fan-out of the n-ary cutoff search.
	// Default 4.
	CutoffCandidates int
	// Check, when non-nil, is invoked per size step with every surviving
	// candidate configuration for consistency checking (§3.5).
	Check func(size int64, cfgs []*choice.Config) error
}

func (o Options) withDefaults() Options {
	if o.MinSize <= 0 {
		o.MinSize = 64
	}
	if o.MaxSize < o.MinSize {
		o.MaxSize = o.MinSize
	}
	if o.Population <= 0 {
		o.Population = 8
	}
	if o.Repeats < 0 {
		o.Repeats = 1
	}
	if o.CutoffCandidates <= 0 {
		o.CutoffCandidates = 4
	}
	return o
}

// StepReport records one training-size step.
type StepReport struct {
	Size       int64
	BestCost   float64
	Population int
	Best       string // rendered best selector(s)
}

// Report summarizes a tuning run.
type Report struct {
	Steps []StepReport
	Final *choice.Config
}

// candidate pairs a configuration with its last measured cost.
type candidate struct {
	cfg  *choice.Config
	cost float64
}

// Tune runs the §3.3 algorithm over the given configuration space and
// returns the tuned configuration.
func Tune(space *choice.Space, eval Evaluator, opt Options) (*choice.Config, *Report, error) {
	opt = opt.withDefaults()
	if err := space.Validate(); err != nil {
		return nil, nil, err
	}
	if m := tm.Load(); m != nil {
		m.runs.Inc()
	}
	pop := seedPopulation(space)
	report := &Report{}
	var sizes []int64
	for s := opt.MinSize; s < opt.MaxSize; s *= 2 {
		sizes = append(sizes, s)
	}
	sizes = append(sizes, opt.MaxSize)
	for pass := 0; pass <= opt.Repeats; pass++ {
		for _, size := range sizes {
			pop = step(space, eval, opt, pop, size)
			if opt.Check != nil {
				cfgs := make([]*choice.Config, len(pop))
				for i, c := range pop {
					cfgs[i] = c.cfg
				}
				if err := opt.Check(size, cfgs); err != nil {
					return nil, nil, fmt.Errorf("autotuner: consistency check failed at size %d: %w", size, err)
				}
			}
			report.Steps = append(report.Steps, StepReport{
				Size:       size,
				BestCost:   pop[0].cost,
				Population: len(pop),
				Best:       renderBest(space, pop[0].cfg),
			})
		}
		// The next pass restarts the sweep from the evolved population.
	}
	best := pop[0].cfg.Clone()
	report.Final = best
	return best, report, nil
}

// seedPopulation builds the initial population: one single-algorithm
// configuration per choice of every selector ("This population is seeded
// with all single-algorithm implementations").
func seedPopulation(space *choice.Space) []candidate {
	base := space.DefaultConfig()
	var pop []candidate
	maxChoices := 1
	for _, s := range space.Selectors {
		if s.NumChoices() > maxChoices {
			maxChoices = s.NumChoices()
		}
	}
	for c := 0; c < maxChoices; c++ {
		cfg := base.Clone()
		for _, s := range space.Selectors {
			idx := c % s.NumChoices()
			sel := choice.NewSelector(idx)
			if len(s.LevelParams) > 0 {
				for _, p := range s.LevelParams {
					sel.Levels[0] = sel.Levels[0].WithParam(p.Name, p.Default)
				}
			}
			cfg.SetSelector(s.Transform, sel)
		}
		pop = append(pop, candidate{cfg: cfg, cost: math.Inf(1)})
	}
	return pop
}

// step evaluates, mutates, and culls the population at one input size
// (one tuning generation).
func step(space *choice.Space, eval Evaluator, opt Options, pop []candidate, size int64) []candidate {
	// Measure the incoming population at the new size.
	for i := range pop {
		pop[i].cost = eval.Measure(pop[i].cfg, size)
	}
	sortByCost(pop)
	// Mutate the fastest parents.
	parents := pop
	if len(parents) > parentCount {
		parents = parents[:parentCount]
	}
	var children []candidate
	for _, par := range parents {
		for _, mut := range mutate(space, par.cfg, size, opt) {
			children = append(children, candidate{cfg: mut, cost: eval.Measure(mut, size)})
		}
	}
	measured := len(pop) + len(children)
	pop = append(pop, children...)
	pop = dedupe(pop)
	sortByCost(pop)
	if len(pop) > opt.Population {
		pop = pop[:opt.Population]
	}
	recordGeneration(measured, pop[0].cost)
	return pop
}

// mutate generates new candidates from cfg at the current size:
// new top levels per recursive choice ("new algorithm candidates are
// generated by adding levels to the fastest members"), n-ary cutoff
// refinements, per-level parameter sweeps, and tunable refinements.
func mutate(space *choice.Space, cfg *choice.Config, size int64, opt Options) []*choice.Config {
	var out []*choice.Config
	for _, spec := range space.Selectors {
		cur := cfg.Selector(spec.Transform, 0)
		// (a) Add a level: sizes >= size/2 switch to a recursive choice.
		if len(cur.Levels) < spec.MaxLevels {
			for _, rc := range spec.RecursiveChoices() {
				ns := addTopLevel(cur, size/2, rc, spec)
				if ns != nil {
					c := cfg.Clone()
					c.SetSelector(spec.Transform, *ns)
					out = append(out, c)
				}
			}
		}
		// (b) n-ary search on every boundary cutoff between levels.
		for li := 0; li < len(cur.Levels)-1; li++ {
			lowCut := int64(1)
			if li > 0 {
				lowCut = cur.Levels[li-1].Cutoff
			}
			hiCut := size
			if li+2 < len(cur.Levels) {
				hiCut = cur.Levels[li+1].Cutoff
			}
			curCut := cur.Levels[li].Cutoff
			for _, nc := range narySpread(lowCut+1, hiCut, curCut, int64(opt.CutoffCandidates)) {
				if nc == curCut {
					continue
				}
				ns := cur.Clone()
				ns.Levels[li].Cutoff = nc
				nrm := ns.Normalize()
				c := cfg.Clone()
				c.SetSelector(spec.Transform, nrm)
				out = append(out, c)
			}
		}
		// (e) Replace the top-level choice in place (any menu entry).
		for ci := 0; ci < spec.NumChoices(); ci++ {
			top := cur.Levels[len(cur.Levels)-1]
			if ci == top.Choice {
				continue
			}
			ns := cur.Clone()
			ns.Levels[len(ns.Levels)-1].Choice = ci
			c := cfg.Clone()
			c.SetSelector(spec.Transform, ns.Normalize())
			out = append(out, c)
		}
		// (c) Per-level parameter sweep on the top level.
		for _, p := range spec.LevelParams {
			curTop := cur.Levels[len(cur.Levels)-1]
			for _, v := range narySpread(p.Min, p.Max, curTop.Param(p.Name, p.Default), 3) {
				if v == curTop.Param(p.Name, p.Default) {
					continue
				}
				ns := cur.Clone()
				ns.Levels[len(ns.Levels)-1] = ns.Levels[len(ns.Levels)-1].WithParam(p.Name, v)
				c := cfg.Clone()
				c.SetSelector(spec.Transform, ns)
				out = append(out, c)
			}
		}
	}
	// (d) Tunable refinements (e.g. sequential cutoffs, block sizes).
	for _, tn := range space.Tunables {
		cur := cfg.Int(tn.Name, tn.Default)
		for _, v := range narySpread(tn.Min, tn.Max, cur, 3) {
			if v == cur {
				continue
			}
			c := cfg.Clone()
			c.SetInt(tn.Name, tn.Clamp(v))
			out = append(out, c)
		}
	}
	return out
}

// addTopLevel returns cur with inputs >= boundary handled by choice rc,
// or nil when the mutation is a no-op.
func addTopLevel(cur choice.Selector, boundary int64, rc int, spec choice.SelectorSpec) *choice.Selector {
	if boundary < 2 {
		return nil
	}
	top := cur.Levels[len(cur.Levels)-1]
	if top.Choice == rc {
		return nil // already that algorithm on top
	}
	ns := cur.Clone()
	ns.Levels[len(ns.Levels)-1].Cutoff = boundary
	newTop := choice.Level{Cutoff: choice.Inf, Choice: rc}
	for _, p := range spec.LevelParams {
		newTop = newTop.WithParam(p.Name, p.Default)
	}
	ns.Levels = append(ns.Levels, newTop)
	nrm := ns.Normalize()
	return &nrm
}

// narySpread returns up to n candidate values geometrically spread over
// [lo, hi], biased around cur (the n-ary search of §3.3).
func narySpread(lo, hi, cur, n int64) []int64 {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if cur < lo {
		cur = lo
	}
	if cur > hi {
		cur = hi
	}
	set := map[int64]bool{}
	var out []int64
	add := func(v int64) {
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		if !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	// Geometric neighbours of the current value plus global probes.
	add(cur / 2)
	add(cur * 2)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n+1))
	v := float64(lo)
	for i := int64(0); i < n; i++ {
		v *= ratio
		add(int64(v))
	}
	return out
}

func sortByCost(pop []candidate) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].cost < pop[j].cost })
}

// dedupe removes configurations that are exactly equal, keeping the
// cheaper measurement.
func dedupe(pop []candidate) []candidate {
	var out []candidate
	for _, c := range pop {
		dup := false
		for i := range out {
			if out[i].cfg.Equal(c.cfg) {
				if c.cost < out[i].cost {
					out[i] = c
				}
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

func renderBest(space *choice.Space, cfg *choice.Config) string {
	s := ""
	for _, spec := range space.Selectors {
		if s != "" {
			s += "; "
		}
		s += spec.Transform + ": " + cfg.Selector(spec.Transform, 0).Render(spec.ChoiceNames)
	}
	return s
}
