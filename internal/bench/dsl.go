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

// LoadDSL parses a PetaBricks source file and returns one Benchmark per
// non-template transform, each executing through the interpreter under
// the caller-supplied configuration. Training inputs come from the
// transform's generator when declared, otherwise uniform random data —
// the same rule Engine.Tune uses — so the served path and the tuned
// path see identical instances for a given (n, seed). When the caller
// supplies a pool, requests run on the parallel scheduler; the engine is
// shared across requests, so repeated (transform, sizes, config) traffic
// replays memoized execution plans instead of re-deriving the task DAG.
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
	var out []*Benchmark
	for _, t := range prog.Transforms {
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
				return Result{Seconds: sec, Checksum: matrixChecksum(outs)}, nil
			},
			Space: func() *choice.Space {
				res, _ := eng.Analysis(name)
				return interp.Space(res)
			},
			Program: func(*runtime.Pool) autotuner.Program {
				return eng.TuneProgram(name)
			},
			Baseline: choice.NewConfig,
			CheckTol: 1e-9,
			MinSize:  8,
			Trials:   1,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no servable transforms", path)
	}
	return out, nil
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
