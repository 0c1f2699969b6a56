package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

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

// LoadDSLTransform returns DSL's descriptor for transform name of the
// source file at path, or for its first servable transform when name is
// empty.
func LoadDSLTransform(path, name string) (*Benchmark, error) {
	bs, err := LoadDSL(path)
	if err != nil {
		return nil, err
	}
	for _, b := range bs {
		if name == "" || b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%s: no servable transform %q", path, name)
}

// DSL returns one Benchmark per non-template transform of eng's program
// that takes inputs, each executing through the interpreter under the
// caller-supplied configuration and pool. Served runs and tuning
// candidates alike run on a WithConfig view of eng carrying the pool
// they are handed, so a candidate is timed on the executor it will be
// served on and never touches eng.Cfg; the views share eng's caches, so
// repeated (transform, sizes, config) traffic replays memoized
// execution plans. Inputs come from interp.Engine.GenerateInputs — the
// transform's `generator` transform when declared (the paper's "a
// transform to be used to supply input data during training"), uniform
// random data otherwise — so the served path and the tuned path see
// identical instances for a given (n, seed).
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
				e := eng.WithConfig(cfg)
				e.Pool = pool
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
				return Result{Seconds: sec, Checksum: matrixChecksum(outs), Out: outs}, nil
			},
			Space:    func() *choice.Space { return interp.Space(res) },
			Same:     sameMatrices,
			Baseline: choice.NewConfig,
			CheckTol: 1e-9,
			MinSize:  8,
			// One timing at a small training size is noisy enough to
			// crown a quadratic base rule; best of three is not.
			Trials: 3,
		})
	}
	return out
}

// sameMatrices reports whether two named-matrix result sets agree
// within tol.
func sameMatrices(a, b any, tol float64) bool {
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
