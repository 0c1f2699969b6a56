// Package interp executes analyzed PetaBricks programs: it binds size
// variables from concrete inputs, walks the static schedule the
// analysis produced, selects rules per region through the tuned
// configuration (the same choice framework the native kernels use), and
// evaluates rule bodies over matrix views.
//
// Coordinate convention: PetaBricks orders coordinates (x, y) with x the
// fastest-varying (width) axis, while matrix.Matrix is (row, col) =
// (y, x); the interpreter reverses index order at every boundary.
package interp

import (
	"fmt"

	"petabricks/internal/matrix"
	"petabricks/internal/runtime"
)

// value is a rule-body value: a scalar, a matrix view, or an assignable
// cell reference.
type value struct {
	kind valueKind
	f    float64
	m    *matrix.Matrix
	// cell reference (assignable): matrix + row-major coords.
	ref  *matrix.Matrix
	idx  []int
	name string
}

type valueKind int

const (
	valScalar valueKind = iota
	valMatrix
	valCell
)

func scalar(f float64) value        { return value{kind: valScalar, f: f} }
func matval(m *matrix.Matrix) value { return value{kind: valMatrix, m: m} }
func cellref(m *matrix.Matrix, idx []int, name string) value {
	return value{kind: valCell, ref: m, idx: idx, name: name}
}

// num coerces the value to a scalar.
func (v value) num() (float64, error) {
	switch v.kind {
	case valScalar:
		return v.f, nil
	case valCell:
		return v.ref.Get(v.idx...), nil
	case valMatrix:
		if v.m.Count() == 1 {
			if v.m.Dims() == 0 {
				return v.m.Scalar(), nil
			}
			// The single element of a 1-element view sits at its base
			// offset; reading it flat avoids an index-slice allocation
			// (this coercion is hot for center-sized region bindings).
			return v.m.AtFlat(v.m.Offset()), nil
		}
		return 0, fmt.Errorf("matrix of %d elements used as a scalar", v.m.Count())
	}
	return 0, fmt.Errorf("bad value")
}

// mat coerces the value to a matrix view.
func (v value) mat() (*matrix.Matrix, error) {
	switch v.kind {
	case valMatrix:
		return v.m, nil
	case valCell:
		m := matrix.New()
		m.SetScalar(v.ref.Get(v.idx...))
		return m, nil
	default:
		return nil, fmt.Errorf("scalar used as a matrix")
	}
}

// env is a lexically-scoped environment of body bindings.
type env struct {
	parent *env
	vars   map[string]value
	// Set on the root scope only: worker is the scheduler thread the
	// body runs on (nil outside the pool), rule the diagnostic name of
	// the rule being interpreted.
	worker *runtime.Worker
	rule   string
}

// root returns the outermost scope.
func (e *env) root() *env {
	s := e
	for s.parent != nil {
		s = s.parent
	}
	return s
}

func newEnv(parent *env) *env { return &env{parent: parent, vars: map[string]value{}} }

func (e *env) lookup(name string) (value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return value{}, false
}

func (e *env) define(name string, v value) { e.vars[name] = v }

// assign sets an existing variable (walking scopes); false if not found.
func (e *env) assign(name string, v value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}
