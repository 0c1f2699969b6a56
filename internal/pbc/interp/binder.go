package interp

import (
	"fmt"
	"slices"
	"sort"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/symbolic"
)

// A tuned program re-enters its transforms hundreds of times per run
// (every selector level is a call), so everything about an invocation
// that depends only on the transform — which size variable is solved
// from which input dimension and with what coefficients, the sorted
// variable order of the cache key, the declaration list, the selector's
// config key — is derived once here, beside the analysis result, and
// executed per call with integer arithmetic over slices.

// transformInfo is the per-transform call descriptor.
type transformInfo struct {
	res     *analysis.Result
	selName string // SelectorName(transform)

	// sizeVars are the size variables the inputs bind, sorted — the
	// order of exec.sizeVals and of the cache key's size encoding.
	sizeVars []string
	// inputs is the static solve order: per From declaration, one step
	// per declared dimension. fast is false when some dimension is
	// outside the integer form (non-affine, fractional coefficients, two
	// unknowns); such transforms bind through the symbolic solver
	// instead.
	inputs [][]dimBind
	fast   bool

	// decls lists every matrix in exec.mats order: From, then To, then
	// Through. matIndex inverts it by name.
	decls     []*ast.MatrixDecl
	outDims   [][]intAffine // per To/Through declaration, DSL dim order
	matIndex  map[string]int
	nIn, nOut int
	// nodeMat maps a choice-graph node (by Node.ID) to the decls index
	// of its matrix, so schedule walks test the macro-computed set with
	// an index instead of a name.
	nodeMat []int
}

// dimBind is one step of the solve order: with rest evaluated over the
// variables bound so far, either check rest == actual (solve < 0) or
// bind sizeVars[solve] = (actual − rest) / coef.
type dimBind struct {
	se    *symbolic.Expr // declared size, for diagnostics
	rest  intAffine
	solve int
	coef  int64
}

// intAffine is konst + Σ coef·sizeVals[v] over integer coefficients.
// ok is false when the declared expression has no such form.
type intAffine struct {
	konst int64
	terms []intTerm
	ok    bool
}

type intTerm struct {
	v    int
	coef int64
}

func (a intAffine) eval(sizes []int64) int64 {
	v := a.konst
	for _, t := range a.terms {
		v += t.coef * sizes[t.v]
	}
	return v
}

func newTransformInfo(res *analysis.Result) *transformInfo {
	t := res.Transform
	ti := &transformInfo{
		res:      res,
		selName:  SelectorName(t.Name),
		fast:     true,
		matIndex: map[string]int{},
		nIn:      len(t.From),
		nOut:     len(t.To),
	}
	for _, ds := range [][]*ast.MatrixDecl{t.From, t.To, t.Through} {
		for _, d := range ds {
			ti.matIndex[d.Name] = len(ti.decls)
			ti.decls = append(ti.decls, d)
		}
	}
	for _, d := range t.From {
		for _, se := range res.Matrices[d.Name].Dims {
			if aff, ok := se.Affine(); ok {
				for i := 0; i < aff.NumTerms(); i++ {
					name, _ := aff.Term(i)
					ti.sizeVars = append(ti.sizeVars, name)
				}
			}
		}
	}
	sort.Strings(ti.sizeVars)
	ti.sizeVars = slices.Compact(ti.sizeVars)
	bound := make([]bool, len(ti.sizeVars))
	for _, d := range t.From {
		var steps []dimBind
		for _, se := range res.Matrices[d.Name].Dims {
			db := dimBind{se: se, solve: -1, rest: ti.intAffineOf(se)}
			if !db.rest.ok {
				ti.fast = false
			}
			// The first term over a variable not bound yet is the step's
			// unknown; the others stay in rest.
			known := db.rest.terms[:0]
			for _, t := range db.rest.terms {
				switch {
				case bound[t.v]:
					known = append(known, t)
				case db.solve < 0:
					db.solve, db.coef = t.v, t.coef
				default:
					ti.fast = false // two unknowns
				}
			}
			db.rest.terms = known
			if db.solve >= 0 {
				bound[db.solve] = true
			}
			steps = append(steps, db)
		}
		ti.inputs = append(ti.inputs, steps)
	}
	for _, d := range ti.decls[ti.nIn:] {
		dims := res.Matrices[d.Name].Dims
		forms := make([]intAffine, len(dims))
		for i, se := range dims {
			forms[i] = ti.intAffineOf(se)
		}
		ti.outDims = append(ti.outDims, forms)
	}
	ti.nodeMat = make([]int, len(res.Graph.Nodes))
	for _, n := range res.Graph.Nodes {
		ti.nodeMat[n.ID] = ti.matIndex[n.Matrix]
	}
	return ti
}

// intAffineOf folds se into integer-affine form over sizeVars. The form
// is not ok when se is not affine, has a fractional coefficient or
// constant, or mentions a variable no input binds.
func (ti *transformInfo) intAffineOf(se *symbolic.Expr) intAffine {
	aff, ok := se.Affine()
	if !ok || !aff.Const().IsInt() {
		return intAffine{}
	}
	out := intAffine{konst: aff.Const().Int(), ok: true}
	for i := 0; i < aff.NumTerms(); i++ {
		name, co := aff.Term(i)
		v, found := slices.BinarySearch(ti.sizeVars, name)
		if !found || !co.IsInt() {
			return intAffine{}
		}
		out.terms = append(out.terms, intTerm{v: v, coef: co.Int()})
	}
	return out
}

// positional orders by-name inputs as the From declarations; an input
// the caller did not supply stays nil and bind reports it.
func (ti *transformInfo) positional(inputs map[string]*matrix.Matrix) []*matrix.Matrix {
	ins := make([]*matrix.Matrix, ti.nIn)
	for i, d := range ti.decls[:ti.nIn] {
		ins[i] = inputs[d.Name]
	}
	return ins
}

// bind solves "declared dims = actual shape" for every input into sizes
// (len(sizeVars)). ins is positional in From order; a nil entry is an
// input the caller did not supply.
func (ti *transformInfo) bind(ins []*matrix.Matrix, sizes []int64) error {
	if !ti.fast {
		m, err := ti.bindSymbolic(ins)
		for i, v := range ti.sizeVars {
			sizes[i] = m[v]
		}
		return err
	}
	for i, steps := range ti.inputs {
		name, m := ti.decls[i].Name, ins[i]
		if m == nil {
			return ti.errMissing(name)
		}
		nd := m.Dims()
		if nd != len(steps) {
			return errRank(name, nd, len(steps))
		}
		for d := range steps {
			db := &steps[d]
			actual := int64(m.Size(nd - 1 - d)) // DSL order is reversed row-major
			rest := db.rest.eval(sizes)
			if db.solve < 0 {
				if rest != actual {
					return errMismatch(name, db.se, rest, actual)
				}
				continue
			}
			num := actual - rest
			if num%db.coef != 0 || num/db.coef < 0 {
				return errSolve(db.se, actual, ti.sizeVars[db.solve])
			}
			sizes[db.solve] = num / db.coef
		}
	}
	return nil
}

// bindSymbolic is the reference solver and the fallback for shapes the
// integer form cannot express: it unifies each declared size with the
// actual extent symbolically, solving single-unknown affine sizes
// exactly.
func (ti *transformInfo) bindSymbolic(ins []*matrix.Matrix) (map[string]int64, error) {
	sizes := map[string]int64{}
	for i, d := range ti.decls[:ti.nIn] {
		m := ins[i]
		if m == nil {
			return sizes, ti.errMissing(d.Name)
		}
		dims := ti.res.Matrices[d.Name].Dims
		nd := m.Dims()
		if nd != len(dims) {
			return sizes, errRank(d.Name, nd, len(dims))
		}
		for j, se := range dims {
			if err := unify(sizes, d.Name, se, int64(m.Size(nd-1-j))); err != nil {
				return sizes, err
			}
		}
	}
	return sizes, nil
}

// unify binds the free variable of the declared size expression against
// an actual extent.
func unify(sizes map[string]int64, matName string, se *symbolic.Expr, actual int64) error {
	aff, ok := se.Affine()
	if !ok {
		return fmt.Errorf("interp: non-affine size %s for %s", se, matName)
	}
	var unknown string
	for _, v := range aff.Vars() {
		if _, bound := sizes[v]; !bound {
			if unknown != "" {
				return fmt.Errorf("interp: size %s of %s has two unknowns", se, matName)
			}
			unknown = v
		}
	}
	if unknown == "" {
		got, err := se.Eval(sizes)
		if err != nil {
			return err
		}
		if got != actual {
			return errMismatch(matName, se, got, actual)
		}
		return nil
	}
	// Solve coef·v + rest = actual.
	coef := aff.Coeff(unknown)
	rest := aff.Sub(symbolic.AffineVar(unknown).Scale(coef)).Expr()
	restV, err := rest.Eval(sizes)
	if err != nil {
		return err
	}
	num := symbolic.RatInt(actual - restV).Div(coef)
	if !num.IsInt() || num.Int() < 0 {
		return errSolve(se, actual, unknown)
	}
	sizes[unknown] = num.Int()
	return nil
}

func (ti *transformInfo) errMissing(input string) error {
	return fmt.Errorf("interp: missing input %q for %s", input, ti.res.Transform.Name)
}

func errRank(input string, got, declared int) error {
	return fmt.Errorf("interp: input %s has %d dims, declared %d", input, got, declared)
}

func errMismatch(input string, se *symbolic.Expr, got, actual int64) error {
	return fmt.Errorf("interp: %s size mismatch: declared %s = %d, actual %d", input, se, got, actual)
}

func errSolve(se *symbolic.Expr, actual int64, unknown string) error {
	return fmt.Errorf("interp: cannot solve %s = %d for %s", se, actual, unknown)
}

// outShape appends the declared dims of output/intermediate matrix i of
// decls to the empty dims, in (row, col) storage order.
func (ex *exec) outShape(i int, dims []int) ([]int, error) {
	ti := ex.ti
	d := ti.decls[i]
	for j, f := range ti.outDims[i-ti.nIn] {
		var v int64
		if f.ok {
			v = f.eval(ex.sizeVals)
		} else {
			var err error
			if v, err = ti.res.Matrices[d.Name].Dims[j].Eval(ex.sizes()); err != nil {
				return nil, fmt.Errorf("interp: sizing %s: %w", d.Name, err)
			}
		}
		if v < 0 {
			return nil, fmt.Errorf("interp: negative size %d for %s", v, d.Name)
		}
		dims = append(dims, int(v))
	}
	slices.Reverse(dims) // DSL order to storage order
	return dims, nil
}
