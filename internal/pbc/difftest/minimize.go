package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"petabricks/internal/choice"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/gen"
)

// Minimize shrinks a diverging case to the smallest reproducer it can
// find — smallest problem size, fewest rules, fewest transforms, one or
// two configs — and packages it as a self-contained Repro. Rules are
// only ever dropped from the tail of a transform so the surviving
// rules keep their indices and the recorded config's selector still
// means the same thing.
func (h *Harness) Minimize(c *gen.Case, d *Divergence) (*Repro, error) {
	cfgs, err := reproConfigs(d)
	if err != nil {
		return nil, err
	}
	src := c.Src

	// 1. Smallest problem size that still diverges, scanning up from
	// the program's minimum (n is small, so linear is fine).
	n := d.N
	for cand := c.MinN; cand < d.N; cand++ {
		if h.diverges(c, src, cand, cfgs) {
			n = cand
			break
		}
	}

	// 2. Drop trailing rules per transform while divergence persists.
	prog, err := h.parseFor(src)
	if err == nil {
		for _, t := range prog.Transforms {
			for len(t.Rules) > 1 {
				saved := t.Rules
				t.Rules = t.Rules[:len(t.Rules)-1]
				cand := ast.Print(prog)
				if h.diverges(c, cand, n, cfgs) {
					src = cand
					continue
				}
				t.Rules = saved
				break
			}
		}
	}

	// 3. Drop transforms unreachable from Main.
	if prog, err = h.parseFor(src); err == nil {
		keep := reachable(prog, c.Main)
		var kept []*ast.Transform
		for _, t := range prog.Transforms {
			if keep[t.Name] {
				kept = append(kept, t)
			}
		}
		if len(kept) < len(prog.Transforms) {
			prog.Transforms = kept
			cand := ast.Print(prog)
			if h.diverges(c, cand, n, cfgs) {
				src = cand
			}
		}
	}

	inputs := c.MakeInputs(n, rand.New(rand.NewSource(h.inputSeed(c.Name, n))))
	r := &Repro{
		Case:    c.Name,
		Family:  c.Family,
		Main:    c.Main,
		TArgs:   c.TArgs,
		N:       n,
		Src:     src,
		Configs: configStrings(cfgs),
		Inputs:  map[string]ReproMat{},
		Axis:    d.Axis,
		Detail:  d.Detail,

		WantRunErr: c.WantRunErr,
	}
	for name, m := range inputs {
		cm := m.Copy()
		r.Inputs[name] = ReproMat{Dims: cm.Shape(), Data: cm.Data()}
	}
	return r, nil
}

// diverges re-runs the oracle on a candidate (source, n, configs) and
// reports whether any divergence remains. Build failures mean the
// candidate shrink was invalid, not a reproducer.
func (h *Harness) diverges(c *gen.Case, src string, n int, cfgs []*choice.Config) bool {
	s, err := h.newSubject(src, c.Main, c.TArgs)
	if err != nil {
		return false
	}
	s.wantRunErr = c.WantRunErr
	inputs := c.MakeInputs(n, rand.New(rand.NewSource(h.inputSeed(c.Name, n))))
	divs, _ := h.checkPoint(s, inputs, cfgs)
	return len(divs) > 0
}

func (h *Harness) parseFor(src string) (*ast.Program, error) {
	s, err := h.newSubject(src, "", nil)
	if err != nil {
		return nil, err
	}
	return s.prog, nil
}

// reproConfigs parses the divergence's config (plus the reference
// config for cross-config divergences) back into Config values.
func reproConfigs(d *Divergence) ([]*choice.Config, error) {
	cfg, err := choice.Read(strings.NewReader(d.Config))
	if err != nil {
		return nil, fmt.Errorf("difftest: bad divergence config: %w", err)
	}
	cfgs := []*choice.Config{cfg}
	if d.RefConfig != "" {
		ref, err := choice.Read(strings.NewReader(d.RefConfig))
		if err != nil {
			return nil, fmt.Errorf("difftest: bad reference config: %w", err)
		}
		cfgs = append([]*choice.Config{ref}, cfgs...)
	}
	return cfgs, nil
}

func configStrings(cfgs []*choice.Config) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = configText(c)
	}
	return out
}

// reachable returns the transforms reachable from main: main itself
// plus every transform whose name appears as a call in a reachable
// rule body.
func reachable(prog *ast.Program, main string) map[string]bool {
	byName := map[string]*ast.Transform{}
	for _, t := range prog.Transforms {
		byName[t.Name] = t
	}
	keep := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if keep[name] {
			return
		}
		t, ok := byName[name]
		if !ok {
			return
		}
		keep[name] = true
		for _, r := range t.Rules {
			for _, s := range r.Body {
				walkCalls(s, func(fn string) { visit(fn) })
			}
		}
	}
	visit(main)
	return keep
}

func walkCalls(n any, f func(fn string)) {
	switch t := n.(type) {
	case *ast.Assign:
		walkCalls(t.LHS, f)
		walkCalls(t.RHS, f)
	case *ast.Decl:
		walkCalls(t.Init, f)
	case *ast.If:
		walkCalls(t.Cond, f)
		for _, s := range t.Then {
			walkCalls(s, f)
		}
		for _, s := range t.Else {
			walkCalls(s, f)
		}
	case *ast.For:
		walkCalls(t.Init, f)
		walkCalls(t.Cond, f)
		walkCalls(t.Post, f)
		for _, s := range t.Body {
			walkCalls(s, f)
		}
	case *ast.ExprStmt:
		walkCalls(t.X, f)
	case *ast.Return:
		walkCalls(t.X, f)
	case *ast.Binary:
		walkCalls(t.L, f)
		walkCalls(t.R, f)
	case *ast.Unary:
		walkCalls(t.X, f)
	case *ast.Call:
		f(t.Fn)
		for _, a := range t.Args {
			walkCalls(a, f)
		}
	case *ast.Cond:
		walkCalls(t.C, f)
		walkCalls(t.A, f)
		walkCalls(t.B, f)
	case *ast.Index:
		for _, a := range t.Args {
			walkCalls(a, f)
		}
	}
}
