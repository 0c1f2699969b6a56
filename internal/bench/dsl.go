package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"petabricks/internal/autotuner"
	"petabricks/internal/choice"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// LoadDSL parses a PetaBricks source file and returns DSL's descriptors
// for its program.
func LoadDSL(path string) ([]*Benchmark, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	eng, err := interp.New(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := DSL(eng)
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no servable transforms", path)
	}
	return out, nil
}

// DSL returns one Benchmark per non-template transform of eng's program
// that takes inputs, each executing through the interpreter under the
// caller-supplied configuration and pool. Served runs and tuning
// candidates alike run on a WithConfig view of eng carrying the pool
// they are handed, so a candidate is timed on the executor it will be
// served on and never touches eng.Cfg; the views share eng's caches, so
// repeated (transform, sizes, config) traffic replays memoized
// execution plans. Inputs come from interp.Engine.GenerateInputs, so
// the served path and the tuned path see identical instances for a
// given (n, seed).
func DSL(eng *interp.Engine) []*Benchmark {
	var out []*Benchmark
	for _, t := range eng.Prog.Transforms {
		if len(t.Templates) > 0 {
			continue // template transforms are instantiated per call site
		}
		res, ok := eng.Analysis(t.Name)
		if !ok || len(res.Transform.From) == 0 {
			continue // generators with no inputs are not servable entry points
		}
		name := t.Name
		out = append(out, &Benchmark{
			Name: name,
			Run: func(pool *runtime.Pool, cfg *choice.Config, n int, seed int64, _ RunOpts) (Result, error) {
				e := view(eng, pool, cfg)
				inputs, err := e.GenerateInputs(name, int64(n), seed)
				if err != nil {
					return Result{}, err
				}
				start := time.Now()
				outs, err := e.Run(name, inputs)
				if err != nil {
					return Result{}, err
				}
				sec := time.Since(start).Seconds()
				return Result{Seconds: sec, Checksum: matrixChecksum(outs)}, nil
			},
			Space: func() *choice.Space { return interp.Space(res) },
			Program: func(pool *runtime.Pool) autotuner.Program {
				return &dslProgram{eng: eng, pool: pool, name: name}
			},
			Baseline: choice.NewConfig,
			CheckTol: 1e-9,
			MinSize:  8,
			Trials:   1,
		})
	}
	return out
}

// view is eng under cfg on pool.
func view(eng *interp.Engine, pool *runtime.Pool, cfg *choice.Config) *interp.Engine {
	e := eng.WithConfig(cfg)
	e.Pool = pool
	return e
}

// dslProgram adapts one transform to the autotuner's Program interface.
// Training inputs come from the transform's `generator` transform when
// declared (the paper's generator keyword: "a transform to be used to
// supply input data during training"), and from uniform random data
// otherwise.
type dslProgram struct {
	eng  *interp.Engine
	pool *runtime.Pool
	name string
}

// Run implements autotuner.Program.
func (p *dslProgram) Run(cfg *choice.Config, size, seed int64) (any, error) {
	e := view(p.eng, p.pool, cfg)
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

// matrixChecksum fingerprints a named-matrix result set deterministically
// (position-weighted so permuted outputs do not collide).
func matrixChecksum(outs map[string]*matrix.Matrix) float64 {
	names := make([]string, 0, len(outs))
	for k := range outs {
		names = append(names, k)
	}
	sort.Strings(names)
	sum := 0.0
	pos := 1.0
	for _, k := range names {
		outs[k].Walk(func(_ []int, v float64) { sum += v * pos; pos++ })
	}
	return sum
}
