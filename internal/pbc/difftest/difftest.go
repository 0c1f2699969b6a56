// Package difftest is the differential oracle for generated PetaBricks
// programs: it executes each program many ways — both execution tiers
// (the AST interpreter, and the default one: the flat-bytecode vm),
// sequential vs work-stealing pool, several
// configurations including extreme cutoffs, repeated runs — and demands
// bit-identical outputs everywhere. The generator (internal/pbc/gen)
// guarantees that every choice computes the same exact-integer result,
// so ANY disagreement is a real engine bug. Divergences minimize to
// replayable corpus files under testdata/fuzz/pbdiff.
package difftest

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"petabricks/internal/artifact"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/gen"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// Fault selects a deliberate harness-level bug for oracle self-tests:
// the acceptance story "an injected interpreter bug is caught and
// minimized" without dirtying production code. The zero Fault runs the
// real engine unmodified.
type Fault int

// FaultInterp perturbs the outputs of interpreter-path runs (flat cell 3
// gets +1 when the first output has more than 3 cells), simulating an
// interpreter miscompute the oracle must catch.
const FaultInterp Fault = 1

// Options configures a harness.
type Options struct {
	Workers int   // pool size for the parallel axes (default 4)
	Configs int   // random configs beyond default+extreme (default 2)
	Repeats int   // runs per axis; >1 catches nondeterminism (default 2)
	Seed    int64 // seed for inputs and random configs
	MaxN    int   // largest problem size exercised (default 14)
	Fault   Fault
	// NoWarmCold disables the warm/cold persistence axis: by default
	// every case also runs once against an empty persistent artifact
	// store (cold) and once against the same store reopened (warm), and
	// the two runs must be bit-identical — the restart path is part of
	// the oracle matrix, not a separate test.
	NoWarmCold bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Configs <= 0 {
		o.Configs = 2
	}
	if o.Repeats <= 0 {
		o.Repeats = 2
	}
	if o.MaxN <= 0 {
		o.MaxN = 14
	}
	return o
}

// Divergence is one oracle violation, with everything needed to label
// and reproduce it.
type Divergence struct {
	Case   string
	Family string
	N      int
	Config string // serialized choice.Config
	// RefConfig is set for cross-config divergences: the serialized
	// config whose (agreed-on) answer Config disagreed with.
	RefConfig string
	Axis      string // which execution axis disagreed with the reference
	Detail    string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s n=%d axis=%s: %s", d.Case, d.N, d.Axis, d.Detail)
}

// Result summarizes one Check call.
type Result struct {
	Runs        int
	Divergences []*Divergence
}

// Harness owns the worker pool and runs cases through the oracle
// matrix. Close must be called to drain the pool.
type Harness struct {
	opts Options
	pool *runtime.Pool
}

// New creates a harness with its own work-stealing pool.
func New(opts Options) *Harness {
	opts = opts.withDefaults()
	return &Harness{opts: opts, pool: runtime.NewPool(opts.Workers)}
}

// Close shuts the pool down.
func (h *Harness) Close() { h.pool.Shutdown() }

// axis is one way of executing a program.
type axis struct {
	engine int  // interp.EngineInterp / EngineJIT
	pool   bool // work-stealing pool (memoized plans) vs sequential
}

func (a axis) String() string {
	s := "interp"
	if a.engine == interp.EngineJIT {
		s = "jit"
	}
	if a.pool {
		return s + "/pool"
	}
	return s + "/seq"
}

// axes is the execution matrix — both execution tiers run sequentially
// and on the pool; axes[0] (interpreter, sequential) is the reference.
var axes = [4]axis{
	{interp.EngineInterp, false},
	{interp.EngineJIT, false},
	{interp.EngineInterp, true},
	{interp.EngineJIT, true},
}

// subject is an executable program: engine plus entry point.
type subject struct {
	eng     *interp.Engine
	main    string
	targs   []int64
	selName string // config selector key of the main instance
	prog    *ast.Program
	// wantRunErr, when set, is gen.Case.WantRunErr: every run must fail
	// with one and the same error containing this text.
	wantRunErr string
}

func (h *Harness) newSubject(src, main string, targs []int64) (*subject, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	eng, err := interp.New(prog)
	if err != nil {
		return nil, err
	}
	s := &subject{eng: eng, main: main, targs: targs, prog: prog}
	inst := main
	if len(targs) > 0 {
		inst = (&gen.Case{Main: main, TArgs: targs}).MainInstance()
	}
	s.selName = interp.SelectorName(inst)
	return s, nil
}

// runOnce executes the subject once under a config and axis.
func (h *Harness) runOnce(s *subject, inputs map[string]*matrix.Matrix, cfg *choice.Config, ax axis) (map[string]*matrix.Matrix, error) {
	c := cfg.Clone()
	c.SetInt(interp.EngineKey, int64(ax.engine))
	view := s.eng.WithConfig(c) // the subject's own engine has no pool
	if ax.pool {
		view.Pool = h.pool
	}
	var outs map[string]*matrix.Matrix
	var err error
	if len(s.targs) > 0 {
		outs, err = view.RunTemplate(s.main, s.targs, inputs)
	} else {
		outs, err = view.Run(s.main, inputs)
	}
	if err == nil && h.opts.Fault == FaultInterp && ax.engine == interp.EngineInterp {
		perturb(outs)
	}
	return outs, err
}

// perturb injects the deliberate interpreter bug of FaultInterp.
func perturb(outs map[string]*matrix.Matrix) {
	names := make([]string, 0, len(outs))
	for k := range outs {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return
	}
	m := outs[names[0]]
	if m.Count() > 3 {
		d := m.Data()
		d[3]++
	}
}

// compareOuts returns a human-readable description of the first
// difference between two output sets, or "" when bit-identical.
func compareOuts(ref, got map[string]*matrix.Matrix) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("output count %d vs %d", len(ref), len(got))
	}
	names := make([]string, 0, len(ref))
	for k := range ref {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := ref[name], got[name]
		if b == nil {
			return fmt.Sprintf("output %s missing", name)
		}
		if fmt.Sprint(a.Shape()) != fmt.Sprint(b.Shape()) {
			return fmt.Sprintf("output %s shape %v vs %v", name, a.Shape(), b.Shape())
		}
		// Cell by cell rather than Matrix.Equal, whose |a-b| > 0 test is
		// blind to a NaN on one side — which is exactly what a read of
		// poisoned recycled storage produces.
		ad, bd := a.Copy().Data(), b.Copy().Data()
		for i := range ad {
			if ad[i] != bd[i] && !(math.IsNaN(ad[i]) && math.IsNaN(bd[i])) {
				return fmt.Sprintf("output %s differs at flat cell %d: %g vs %g (max |Δ| %g)",
					name, i, ad[i], bd[i], a.MaxAbsDiff(b))
			}
		}
	}
	return ""
}

// inputSeed derives a per-(case, n) input seed from the harness seed so
// every run of the same point in the matrix sees identical inputs.
func (h *Harness) inputSeed(name string, n int) int64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%s|%d|%d", name, n, h.opts.Seed)
	return int64(f.Sum64() & (1<<62 - 1))
}

// Check runs one generated case through the full oracle matrix:
// problem sizes × configs × axes × repeats. The returned error reports
// infrastructure failures (a valid case that fails to build); oracle
// violations land in Result.Divergences.
func (h *Harness) Check(c *gen.Case) (*Result, error) {
	res := &Result{}
	if c.WantErr {
		// The front end must reject the case without panicking; both
		// are checked here (a panic would fail the calling test/driver).
		if err := gen.Validate(c, rand.New(rand.NewSource(1))); err != nil {
			res.Divergences = append(res.Divergences, &Divergence{
				Case: c.Name, Family: c.Family,
				Axis: "frontend", Detail: err.Error(),
			})
		}
		return res, nil
	}
	s, err := h.newSubject(c.Src, c.Main, c.TArgs)
	if err != nil {
		return nil, fmt.Errorf("difftest: building %s: %w", c.Name, err)
	}
	s.wantRunErr = c.WantRunErr
	rng := rand.New(rand.NewSource(h.inputSeed(c.Name, 0)))
	cfgs := h.makeConfigs(s, rng)
	ns := h.pickSizes(c, rng)
	for _, n := range ns {
		inputs := c.MakeInputs(n, rand.New(rand.NewSource(h.inputSeed(c.Name, n))))
		divs, runs := h.checkPoint(s, inputs, cfgs)
		if !h.opts.NoWarmCold {
			wcDivs, wcRuns, err := h.checkWarmCold(c, inputs)
			if err != nil {
				return nil, fmt.Errorf("difftest: warm/cold axis for %s: %w", c.Name, err)
			}
			divs = append(divs, wcDivs...)
			runs += wcRuns
			wpDivs, wpRuns, err := h.checkWarmPlan(c, inputs)
			if err != nil {
				return nil, fmt.Errorf("difftest: warm-plan axis for %s: %w", c.Name, err)
			}
			divs = append(divs, wpDivs...)
			runs += wpRuns
		}
		res.Runs += runs
		for _, d := range divs {
			d.Case, d.Family, d.N = c.Name, c.Family, n
			res.Divergences = append(res.Divergences, d)
		}
	}
	return res, nil
}

// checkWarmCold runs one case twice through the jit tier against a
// persistent artifact store: once cold (empty directory — every rule is
// lowered and persisted) and once warm (same directory reopened by a
// fresh subject — persisted bytecode is loaded instead of lowered). The
// outputs must be bit-identical, and when the cold run persisted
// anything, the warm run must actually have loaded it — a silent
// fall-through to recompilation would leave the restart path untested.
func (h *Harness) checkWarmCold(c *gen.Case, inputs map[string]*matrix.Matrix) ([]*Divergence, int, error) {
	dir, err := os.MkdirTemp("", "pbdiff-arts-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	ax := axis{engine: interp.EngineJIT}
	run := func() (map[string]*matrix.Matrix, error, *artifact.Store) {
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			return nil, err, nil
		}
		s, err := h.newSubject(c.Src, c.Main, c.TArgs)
		if err != nil {
			return nil, err, nil
		}
		s.eng.UseArtifacts(store)
		outs, err := h.runOnce(s, inputs, choice.NewConfig(), ax)
		return outs, err, store
	}

	coldOuts, coldErr, coldStore := run()
	if coldStore == nil {
		return nil, 0, coldErr
	}
	warmOuts, warmErr, warmStore := run()
	if warmStore == nil {
		return nil, 1, warmErr
	}
	var divs []*Divergence
	switch {
	case (coldErr == nil) != (warmErr == nil):
		divs = append(divs, &Divergence{
			Axis:   "jit/warmcold",
			Detail: fmt.Sprintf("error status differs between cold and warm run: %v vs %v", coldErr, warmErr),
		})
	case coldErr == nil:
		if diff := compareOuts(coldOuts, warmOuts); diff != "" {
			divs = append(divs, &Divergence{
				Axis:   "jit/warmcold",
				Detail: "warm-started run disagrees with cold run: " + diff,
			})
		}
		if coldStore.Len() > 0 && warmStore.DiskHits() == 0 {
			divs = append(divs, &Divergence{
				Axis: "jit/warmcold",
				Detail: fmt.Sprintf("cold run persisted %d artifacts but the warm run loaded none (%d misses)",
					coldStore.Len(), warmStore.DiskMisses()),
			})
		}
	}
	return divs, 2, nil
}

// checkWarmPlan is the plan-tier sibling of checkWarmCold: the pooled
// jit axis runs cold (plans constructed and persisted) and then warm (a
// fresh subject against the reopened disk tier, reloading plans instead
// of constructing). The warm run must be bit-identical to the cold one,
// and when the cold run persisted plans the warm run must actually have
// reloaded at least one. Persisted plan entries are then corrupted
// inside their packs — one truncation, one bit flip — and each
// corrupted store must yield a typed rejection plus a rebuild that
// still matches the cold outputs: a wrong schedule is the one outcome
// that is never acceptable. (The
// exhaustive truncation/bit-flip sweep lives in the interp package's
// corruption property test; this axis keeps every fuzzed case honest
// at bounded cost.)
func (h *Harness) checkWarmPlan(c *gen.Case, inputs map[string]*matrix.Matrix) ([]*Divergence, int, error) {
	dir, err := os.MkdirTemp("", "pbdiff-plans-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	ax := axis{engine: interp.EngineJIT, pool: true}
	run := func() (map[string]*matrix.Matrix, error, *artifact.Store, interp.PlanCounters) {
		before := interp.PlanStats()
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			return nil, err, nil, interp.PlanCounters{}
		}
		s, err := h.newSubject(c.Src, c.Main, c.TArgs)
		if err != nil {
			return nil, err, nil, interp.PlanCounters{}
		}
		s.eng.UseArtifacts(store)
		outs, err := h.runOnce(s, inputs, choice.NewConfig(), ax)
		after := interp.PlanStats()
		delta := interp.PlanCounters{
			Builds:    after.Builds - before.Builds,
			WarmLoads: after.WarmLoads - before.WarmLoads,
		}
		return outs, err, store, delta
	}

	coldOuts, coldErr, coldStore, _ := run()
	if coldStore == nil {
		return nil, 0, coldErr
	}
	planFiles := 0
	for _, e := range coldStore.List() {
		if e.Kind == artifact.KindPlan {
			planFiles++
		}
	}
	warmOuts, warmErr, warmStore, warmDelta := run()
	if warmStore == nil {
		return nil, 1, warmErr
	}
	runs := 2
	var divs []*Divergence
	switch {
	case (coldErr == nil) != (warmErr == nil):
		divs = append(divs, &Divergence{
			Axis:   "jit/warmplan",
			Detail: fmt.Sprintf("error status differs between cold and warm run: %v vs %v", coldErr, warmErr),
		})
	case coldErr == nil:
		if diff := compareOuts(coldOuts, warmOuts); diff != "" {
			divs = append(divs, &Divergence{
				Axis:   "jit/warmplan",
				Detail: "plan-reloaded run disagrees with cold run: " + diff,
			})
		}
		if planFiles > 0 && warmDelta.WarmLoads == 0 {
			divs = append(divs, &Divergence{
				Axis: "jit/warmplan",
				Detail: fmt.Sprintf("cold run persisted %d plans but the warm run reloaded none (built %d)",
					planFiles, warmDelta.Builds),
			})
		}
	}
	if coldErr != nil || planFiles == 0 || len(divs) > 0 {
		return divs, runs, nil
	}

	// Corruption property: a damaged plan must never become a
	// wrong schedule — only a typed rejection followed by a rebuild
	// that reproduces the cold outputs exactly. Each variant damages
	// the plan entries inside the packs the previous run left indexed
	// (a rebuild commits a new pack).
	latest := coldStore
	corrupt := func(label string, mutate func(raw []byte, e artifact.EntryInfo) []byte) error {
		for _, e := range latest.List() {
			if e.Kind != artifact.KindPlan {
				continue
			}
			path := filepath.Join(dir, e.Pack)
			raw, err := os.ReadFile(path)
			if err != nil {
				continue // already quarantined by an earlier variant
			}
			if err := os.WriteFile(path, mutate(raw, e), 0o644); err != nil {
				return err
			}
		}
		outs, err, store, delta := run()
		if store == nil {
			return err
		}
		latest = store
		runs++
		switch {
		case err != nil:
			divs = append(divs, &Divergence{
				Axis:   "jit/warmplan",
				Detail: fmt.Sprintf("run against %s plans failed: %v", label, err),
			})
		default:
			if diff := compareOuts(coldOuts, outs); diff != "" {
				divs = append(divs, &Divergence{
					Axis:   "jit/warmplan",
					Detail: fmt.Sprintf("run against %s plans disagrees with cold run: %s", label, diff),
				})
			}
			if store.CorruptCount() == 0 {
				divs = append(divs, &Divergence{
					Axis:   "jit/warmplan",
					Detail: fmt.Sprintf("%s plans were not rejected (no corruption recorded)", label),
				})
			}
			if delta.Builds == 0 && delta.WarmLoads == 0 {
				divs = append(divs, &Divergence{
					Axis:   "jit/warmplan",
					Detail: fmt.Sprintf("after %s, no plan was rebuilt or reloaded", label),
				})
			}
		}
		return nil
	}
	if err := corrupt("truncated", func(raw []byte, e artifact.EntryInfo) []byte {
		return raw[:min(int64(len(raw)), e.Offset+e.Size/2)]
	}); err != nil {
		return divs, runs, err
	}
	if err := corrupt("bit-flipped", func(raw []byte, e artifact.EntryInfo) []byte {
		if e.Size == 0 || e.Offset+e.Size > int64(len(raw)) {
			return raw
		}
		mut := append([]byte(nil), raw...)
		mut[e.Offset+e.Size-1] ^= 0x10
		return mut
	}); err != nil {
		return divs, runs, err
	}
	return divs, runs, nil
}

// pickSizes selects the problem sizes for a case: the minimum, one
// small, and one mid-size value (deduplicated).
func (h *Harness) pickSizes(c *gen.Case, rng *rand.Rand) []int {
	lo := c.MinN
	hi := h.opts.MaxN
	if hi < lo+2 {
		hi = lo + 2
	}
	set := map[int]bool{lo: true, lo + 1: true, lo + 2 + rng.Intn(hi-lo-1): true}
	var ns []int
	for n := range set {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

// checkPoint runs the full config × axis × repeat matrix for one
// (program, inputs) point and reports divergences.
func (h *Harness) checkPoint(s *subject, inputs map[string]*matrix.Matrix, cfgs []*choice.Config) ([]*Divergence, int) {
	var divs []*Divergence
	runs := 0
	var firstGood map[string]*matrix.Matrix
	var firstGoodCfg string
	for _, cfg := range cfgs {
		cfgText := configText(cfg)
		var refOuts map[string]*matrix.Matrix
		var refErr error
		for ai, ax := range axes {
			for rep := 0; rep < h.opts.Repeats; rep++ {
				outs, err := h.runOnce(s, inputs, cfg, ax)
				runs++
				if s.wantRunErr != "" && (err == nil || !strings.Contains(err.Error(), s.wantRunErr)) {
					divs = append(divs, &Divergence{
						Config: cfgText, Axis: ax.String(),
						Detail: fmt.Sprintf("error %v, want one containing %q", err, s.wantRunErr),
					})
					continue
				}
				if ai == 0 && rep == 0 {
					refOuts, refErr = outs, err
					continue
				}
				if s.wantRunErr != "" && refErr != nil && err.Error() != refErr.Error() {
					divs = append(divs, &Divergence{
						Config: cfgText, Axis: ax.String(),
						Detail: fmt.Sprintf("error text differs from %s: %q vs %q", axes[0], err, refErr),
					})
					continue
				}
				// Error status must agree exactly; messages may differ
				// across schedules (first-error wins in parallel runs),
				// so only nil-ness is compared.
				if (err == nil) != (refErr == nil) {
					divs = append(divs, &Divergence{
						Config: cfgText, Axis: ax.String(),
						Detail: fmt.Sprintf("error status differs from %s: %v vs %v", axes[0], err, refErr),
					})
					continue
				}
				if err != nil {
					continue
				}
				if diff := compareOuts(refOuts, outs); diff != "" {
					divs = append(divs, &Divergence{
						Config: cfgText, Axis: ax.String(),
						Detail: fmt.Sprintf("disagrees with %s: %s", axes[0], diff),
					})
				}
			}
		}
		// Cross-config: configs that error (e.g. a base-less selector
		// hitting the recursion limit) are legal, but every config that
		// succeeds must produce the same answer — the paper's core
		// claim that choices never change the result.
		if refErr == nil {
			if firstGood == nil {
				firstGood, firstGoodCfg = refOuts, cfgText
			} else if diff := compareOuts(firstGood, refOuts); diff != "" {
				divs = append(divs, &Divergence{
					Config: cfgText, RefConfig: firstGoodCfg, Axis: "config",
					Detail: fmt.Sprintf("disagrees with another config's output: %s", diff),
				})
			}
		}
	}
	return divs, runs
}

// makeConfigs builds the config axis: the default config, an extreme
// config (cutoff 1 boundaries, last-rule-first, grain 1), and
// opts.Configs random ones.
func (h *Harness) makeConfigs(s *subject, rng *rand.Rand) []*choice.Config {
	cfgs := []*choice.Config{choice.NewConfig()}

	selNames := h.selectorNames(s)
	extreme := choice.NewConfig()
	for name, nr := range selNames {
		extreme.SetSelector(name, choice.Selector{Levels: []choice.Level{
			{Cutoff: 2, Choice: nr - 1},
			{Cutoff: choice.Inf, Choice: 0},
		}})
	}
	extreme.SetInt(interp.ParGrainKey, 1)
	cfgs = append(cfgs, extreme)

	cutoffs := []int64{2, 3, 4, 8, 64, 1 << 30}
	for i := 0; i < h.opts.Configs; i++ {
		cfg := choice.NewConfig()
		for name, nr := range selNames {
			if rng.Intn(4) == 0 {
				continue // leave this transform at its default
			}
			nLevels := 1 + rng.Intn(2)
			var levels []choice.Level
			cut := cutoffs[rng.Intn(3)]
			for l := 0; l < nLevels; l++ {
				co := int64(choice.Inf)
				if l < nLevels-1 {
					co = cut
					cut *= int64(2 + rng.Intn(8))
				}
				levels = append(levels, choice.Level{Cutoff: co, Choice: rng.Intn(nr)})
			}
			cfg.SetSelector(name, choice.Selector{Levels: levels})
		}
		switch rng.Intn(3) {
		case 0:
			cfg.SetInt(interp.ParGrainKey, 1)
		case 1:
			cfg.SetInt(interp.ParGrainKey, int64(1+rng.Intn(8)))
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// selectorNames maps config selector keys to the rule count of their
// transform, for every transform reachable in the subject (template
// mains use their instance name).
func (h *Harness) selectorNames(s *subject) map[string]int {
	out := map[string]int{}
	for _, t := range s.prog.Transforms {
		if len(t.Templates) > 0 {
			if t.Name == s.main && len(s.targs) > 0 {
				out[s.selName] = len(t.Rules)
			}
			continue
		}
		out[interp.SelectorName(t.Name)] = len(t.Rules)
	}
	return out
}

func configText(cfg *choice.Config) string {
	var sb strings.Builder
	_ = cfg.Write(&sb)
	return sb.String()
}
