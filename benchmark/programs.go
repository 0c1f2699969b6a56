package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"petabricks/internal/choice"
	"petabricks/internal/linalg"
	"petabricks/internal/matrix"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
	"petabricks/internal/runtime"
)

// This file holds the program tables of the workloads, how a table
// entry is loaded into a runnable engine view, and how its outputs are
// checked: against the AST interpreter without a pool, which in turn is
// checked against hand-written oracles where one exists. The tier under
// test never produces its own reference.

// entry is one row of a workload's program table. Sizes are the
// quiet-host op times of README.md "Workloads"; configurations are
// fixed files, never tuned, because a tuner's search depends on timings
// and cannot repeat.
type entry struct {
	key  string // metric-name part, e.g. exec.<key>_ms
	file string // under programs/
	name string // transform
	n    int64  // every size variable
	cfg  string // under configs/
}

var (
	cellTable = []entry{
		{"heat1d", "heat1d.pbcc", "Heat1D", 8192, "cell.cfg"},
		{"matmul_base", "matmul.pbcc", "MatrixMultiply", 64, "cell.cfg"},
		{"rollingsum_direct", "rollingsum.pbcc", "RollingSum", 1024, "cell.cfg"},
		{"rollingsum_scan", "rollingsum.pbcc", "RollingSum", 8192, "cell_scan.cfg"},
		{"pointwise", "pointwise.pbcc", "Pointwise", 16384, "cell.cfg"},
	}
	taskTable = []entry{
		{"summedarea_fine", "summedarea.pbcc", "SummedArea", 128, "task.cfg"},
		{"heat1d_fine", "heat1d.pbcc", "Heat1D", 4096, "task.cfg"},
		{"matmul_fine", "matmul.pbcc", "MatrixMultiply", 32, "task.cfg"},
	}
	macroTable = []entry{
		{"mergesort", "mergesort.pbcc", "MergeSortDSL", 1024, "macro.cfg"},
		{"matmul_rec", "matmul.pbcc", "MatrixMultiply", 32, "macro.cfg"},
	}
	bootTable = []entry{
		{"heat1d", "heat1d.pbcc", "Heat1D", 256, "macro.cfg"},
		{"matmul", "matmul.pbcc", "MatrixMultiply", 16, "macro.cfg"},
		{"mergesort", "mergesort.pbcc", "MergeSortDSL", 64, "macro.cfg"},
		{"rollingsum", "rollingsum.pbcc", "RollingSum", 256, "macro.cfg"},
		{"summedarea", "summedarea.pbcc", "SummedArea", 32, "macro.cfg"},
	}
	// serveTable lists the DSL requests of serve_small; the fifth
	// request of its op is the native sort kernel (serveSortN).
	serveTable = []entry{
		{"heat1d", "heat1d.pbcc", "Heat1D", 64, "serve.cfg"},
		{"rollingsum", "rollingsum.pbcc", "RollingSum", 64, "serve.cfg"},
		{"summedarea", "summedarea.pbcc", "SummedArea", 8, "serve.cfg"},
		{"matmul", "matmul.pbcc", "MatrixMultiply", 8, "serve.cfg"},
	}
)

const serveSortN = 64

// env is what a run was asked for.
type env struct {
	dir   string // the benchmark's own directory
	seed  int64
	nproc int
}

func (e env) source(file string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(e.dir, "programs", file))
	return string(raw), err
}

func (e env) config(file string) (*choice.Config, error) {
	cfg, err := choice.Load(filepath.Join(e.dir, "configs", file))
	if err != nil {
		return nil, fmt.Errorf("config %s: %w", file, err)
	}
	return cfg, nil
}

// scratch returns a new empty directory under the benchmark's out/, the
// only place the benchmark writes.
func (e env) scratch(pattern string) (string, error) {
	out := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, pattern)
}

// parse reads and parses one program file.
func (e env) parse(file string) (*ast.Program, error) {
	src, err := e.source(file)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return prog, nil
}

// runner is one table entry bound to an engine view and its inputs.
type runner struct {
	entry
	view   *interp.Engine
	inputs map[string]*matrix.Matrix
}

func (r *runner) run() (map[string]*matrix.Matrix, error) { return r.view.Run(r.name, r.inputs) }

// load builds one engine per program file and a runner per entry, each
// with the entry's configuration after edit (nil: as on file) and
// inputs generated from the seed.
func (e env) load(table []entry, pool *runtime.Pool, edit func(*choice.Config)) ([]*runner, error) {
	engines := map[string]*interp.Engine{}
	var out []*runner
	for _, en := range table {
		eng, ok := engines[en.file]
		if !ok {
			prog, err := e.parse(en.file)
			if err != nil {
				return nil, err
			}
			if eng, err = interp.New(prog); err != nil {
				return nil, fmt.Errorf("%s: %w", en.file, err)
			}
			engines[en.file] = eng
		}
		cfg, err := e.config(en.cfg)
		if err != nil {
			return nil, err
		}
		if edit != nil {
			edit(cfg)
		}
		view := eng.WithConfig(cfg)
		view.Pool = pool
		inputs, err := view.GenerateInputs(en.name, en.n, e.seed)
		if err != nil {
			return nil, err
		}
		out = append(out, &runner{entry: en, view: view, inputs: inputs})
	}
	return out, nil
}

// pinTier returns a config edit that pins pbc.engine.
func pinTier(tier int64) func(*choice.Config) {
	return func(c *choice.Config) { c.SetInt(interp.EngineKey, tier) }
}

// sweep runs every runner once.
func sweep(rs []*runner) error {
	for _, r := range rs {
		if _, err := r.run(); err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
	}
	return nil
}

// references computes the expected outputs of a table on the AST
// interpreter without a pool, under each entry's own selectors, and
// checks them against the hand-written oracles.
func (e env) references(table []entry) (outputs, error) {
	rs, err := e.load(table, nil, pinTier(interp.EngineInterp))
	if err != nil {
		return nil, err
	}
	refs := make(outputs, len(rs))
	for i, r := range rs {
		if refs[i], err = r.run(); err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.key, err)
		}
		if err := oracle(r.name, r.inputs, refs[i]); err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.key, err)
		}
	}
	return refs, nil
}

// oracle checks one transform's outputs against an implementation that
// shares no code with the compiler: nil when they agree or when the
// transform has no oracle. Inputs are integers below 2^16, so every sum
// here is exact in float64 and equality is exact.
func oracle(transform string, in, out map[string]*matrix.Matrix) error {
	switch transform {
	case "MergeSortDSL":
		want := append([]float64(nil), in["A"].Data()...)
		sort.Float64s(want)
		if !slices.Equal(out["B"].Data(), want) {
			return fmt.Errorf("output is not the sorted permutation of the input")
		}
	case "MatrixMultiply":
		a, b := in["A"], in["B"]
		want := matrix.New(a.Size(0), b.Size(1))
		linalg.MulBasic(want, a, b)
		if !sameMatrix(out["AB"], want) {
			return fmt.Errorf("output differs from linalg.MulBasic")
		}
	case "RollingSum":
		a, sum := in["A"].Data(), 0.0
		want := make([]float64, len(a))
		for i, v := range a {
			sum += v
			want[i] = sum
		}
		if !slices.Equal(out["B"].Data(), want) {
			return fmt.Errorf("output differs from the prefix sums")
		}
	}
	return nil
}

func sameMatrix(a, b *matrix.Matrix) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Dims() != b.Dims() {
		return false
	}
	for d := 0; d < a.Dims(); d++ {
		if a.Size(d) != b.Size(d) {
			return false
		}
	}
	if a.IsContiguous() && b.IsContiguous() {
		return slices.Equal(a.Data(), b.Data())
	}
	return a.Equal(b)
}

// sameOutputs reports whether got holds every matrix of want, bit for
// bit: tiers, plans and pools may change latency, never an output.
func sameOutputs(got, want map[string]*matrix.Matrix) bool {
	for name, w := range want {
		if !sameMatrix(got[name], w) {
			return false
		}
	}
	return len(got) == len(want)
}

// checksum is the position-weighted fingerprint pbserve reports for a
// DSL run (internal/bench), recomputed here from reference outputs.
func checksum(outs map[string]*matrix.Matrix) float64 {
	names := make([]string, 0, len(outs))
	for k := range outs {
		names = append(names, k)
	}
	sort.Strings(names)
	sum, pos := 0.0, 1.0
	for _, k := range names {
		outs[k].Walk(func(_ []int, v float64) { sum += v * pos; pos++ })
	}
	return sum
}
