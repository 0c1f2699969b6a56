// Package gen generates random, well-formed PetaBricks programs for
// differential testing. Every generated program is built so that ALL of
// its algorithmic choices compute bit-identical outputs: rule bodies use
// only exact integer arithmetic (+, -, *, min, max, abs, comparisons)
// over small values, so reassociation, rule choice, schedule, and the
// interpreter/compiler split can never change the answer. That property
// is what the difftest oracle checks.
//
// A small fraction of cases are deliberately invalid (non-affine
// regions, zero-division in size arithmetic, unknown matrices…); those
// carry WantErr and assert the front end fails cleanly instead of
// panicking.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/interp"
	"petabricks/internal/pbc/parser"
)

// Case is one generated program plus everything needed to execute it.
type Case struct {
	Name   string
	Family string
	Src    string
	Main   string  // transform to invoke
	TArgs  []int64 // template arguments when Main is a template transform
	MinN   int     // smallest problem size the program supports
	// WantErr marks deliberately invalid programs: parsing or analysis
	// must return an error (and must not panic).
	WantErr bool
	// WantRunErr marks well-formed programs that must fail at run time:
	// every execution, whatever the tier, schedule or config, returns an
	// error containing this text — and the same error everywhere.
	WantRunErr string
	// MakeInputs builds random inputs for problem size n, keyed by the
	// Main transform's from-matrix names.
	MakeInputs func(n int, rng *rand.Rand) map[string]*matrix.Matrix
}

// MainInstance returns the transform name the engine executes: the
// template instance name for template cases, Main otherwise. Config
// selectors for the case key off this name.
func (c *Case) MainInstance() string {
	if len(c.TArgs) == 0 {
		return c.Main
	}
	s := c.Main + "<"
	for i, a := range c.TArgs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", a)
	}
	return s + ">"
}

// Generator produces a deterministic stream of Cases from a seed.
type Generator struct {
	rng *rand.Rand
	seq int
}

// New returns a generator; the same seed yields the same case stream.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Next generates and self-validates one case. A validation failure
// means the generator itself is buggy (it must emit well-formed
// programs by construction), so it is returned as an error rather than
// silently retried.
func (g *Generator) Next() (*Case, error) {
	g.seq++
	var c *Case
	switch pick := g.rng.Intn(20); {
	case pick < 3:
		c = g.pointwise()
	case pick < 5:
		c = g.scan()
	case pick < 7:
		c = g.stencil(false)
	case pick < 9:
		c = g.area2d()
	case pick < 11:
		c = g.pipe()
	case pick < 13:
		c = g.recsplit()
	case pick < 14:
		c = g.stencil(true)
	case pick < 16:
		c = g.reduce()
	case pick < 18:
		c = g.Inplace(g.rng.Intn(InplaceVariants))
	default:
		c = g.invalid()
	}
	c.Name = fmt.Sprintf("%s-%03d", c.Family, g.seq)
	if err := Validate(c, g.rng); err != nil {
		return nil, fmt.Errorf("gen: self-check failed for %s: %w\nsource:\n%s", c.Name, err, c.Src)
	}
	return c, nil
}

// Validate checks that a case does what it claims: valid cases must
// parse, analyze, and run under the default configuration (WantRunErr
// cases must fail that run with the stated error); WantErr cases must
// be rejected by the parser or the analyzer.
func Validate(c *Case, rng *rand.Rand) error {
	prog, err := parser.Parse(c.Src)
	if c.WantErr {
		if err != nil {
			return nil
		}
		if _, err := interp.New(prog); err != nil {
			return nil
		}
		return fmt.Errorf("expected a front-end error, got none")
	}
	if err != nil {
		return err
	}
	eng, err := interp.New(prog)
	if err != nil {
		return err
	}
	n := c.MinN + 2
	inputs := c.MakeInputs(n, rng)
	if len(c.TArgs) > 0 {
		_, err = eng.RunTemplate(c.Main, c.TArgs, inputs)
	} else {
		_, err = eng.Run(c.Main, inputs)
	}
	if c.WantRunErr != "" {
		if err == nil || !strings.Contains(err.Error(), c.WantRunErr) {
			return fmt.Errorf("smoke run at n=%d: error %v, want one containing %q", n, err, c.WantRunErr)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("smoke run at n=%d: %w", n, err)
	}
	return nil
}

// vecInputs builds 1-D inputs of length n with small integer values.
func vecInputs(names ...string) func(n int, rng *rand.Rand) map[string]*matrix.Matrix {
	return func(n int, rng *rand.Rand) map[string]*matrix.Matrix {
		out := map[string]*matrix.Matrix{}
		for _, nm := range names {
			m := matrix.New(n)
			for i := 0; i < n; i++ {
				m.SetAt1(i, float64(rng.Intn(7)-3))
			}
			out[nm] = m
		}
		return out
	}
}

// gridInputs builds 2-D inputs of DSL shape [w, h] = [n, n+1]
// (storage is row-major [h, w]) with small integer values.
func gridInputs(names ...string) func(n int, rng *rand.Rand) map[string]*matrix.Matrix {
	return func(n int, rng *rand.Rand) map[string]*matrix.Matrix {
		out := map[string]*matrix.Matrix{}
		for _, nm := range names {
			m := matrix.New(n+1, n)
			m.Each(func([]int, float64) float64 { return float64(rng.Intn(7) - 3) })
			out[nm] = m
		}
		return out
	}
}
