package analysis

import (
	"errors"
	"fmt"
	"sort"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/symbolic"
	"petabricks/internal/pbc/token"
)

// MatrixInfo is the analyzed form of a matrix declaration.
type MatrixInfo struct {
	Decl   *ast.MatrixDecl
	Role   ast.Role
	Dims   []*symbolic.Expr
	Domain symbolic.Region // [0, dim) per dimension
}

// RuleKind distinguishes cell-granularity rules (applied repeatedly over
// a center domain) from macro rules (applied once to a whole region,
// like MatrixMultiply's recursive decompositions).
type RuleKind int

// Rule kinds.
const (
	RuleCell RuleKind = iota
	RuleMacro
)

func (k RuleKind) String() string {
	if k == RuleMacro {
		return "macro"
	}
	return "cell"
}

// Direction classifies a dependency's relation to the rule center along
// one dimension, as annotated on choice-dependency-graph edges.
type Direction int

// Directions. DirLT means the dependency reads cells strictly below the
// center; DirLE includes the center's own index (safe for reads of other
// matrices, but requiring intra-index ordering inside cycles); DirGT and
// DirGE are the mirror images; DirEq is an exact constant offset; DirAny
// an unconstrained span.
const (
	DirAny Direction = iota
	DirEq
	DirLT
	DirLE
	DirGT
	DirGE
)

func (d Direction) String() string {
	switch d {
	case DirEq:
		return "="
	case DirLT:
		return "<"
	case DirLE:
		return "<="
	case DirGT:
		return ">"
	case DirGE:
		return ">="
	default:
		return "*"
	}
}

// Dep is an analyzed rule dependency: which matrix it reads, the region
// read (in center/size variables), and its per-dimension direction and
// offset relative to the rule center.
type Dep struct {
	Ref    *ast.RegionRef
	Matrix string
	Region symbolic.Region
	// Dir and Offset have one entry per dimension of the read matrix.
	// Offset is non-nil only for DirEq.
	Dir    []Direction
	Offset []*symbolic.Expr
}

// RuleInfo is the analyzed form of one rule.
type RuleInfo struct {
	Rule *ast.Rule
	Kind RuleKind
	// CenterVars names the center variable per output dimension
	// (cell rules only).
	CenterVars []string
	// Applicable maps each written matrix to the symbolic region of
	// centers (cell rules) or cells (macro rules) the rule may compute.
	Applicable map[string]symbolic.Region
	Deps       []Dep
}

// Result is the full analysis of one transform.
type Result struct {
	Program   *ast.Program
	Transform *ast.Transform
	SizeVars  []string
	Assume    symbolic.Assumptions
	Matrices  map[string]*MatrixInfo
	Order     []string // matrix names in declaration order
	Rules     []*RuleInfo
	Grids     map[string]*ChoiceGrid
	Graph     *Graph
	Schedule  []*Step
	// StepEdges are cross-step dependencies as (producer, consumer)
	// schedule indices, deduplicated — the step-granular view of
	// Graph.Edges that the parallel scheduler and the plan builder wire
	// without re-deriving node→step membership per run.
	StepEdges [][2]int
	// MinInputSize is the size-variable lower bound the analysis assumed
	// to order the choice-grid boundaries (usually 1; stencils with
	// constant-offset dependencies may need 2 or more). For inputs below
	// it the interpreter clamps every region to the concrete domain, so
	// execution stays in bounds at the cost of possibly recomputing
	// boundary cells.
	MinInputSize int64

	sizeLo int64      // assumption level used while analyzing
	at     *token.Pos // the declaration or rule being analyzed, for Analyze's recover
}

// Analyze runs the full §3.1 pipeline on transform t of prog. Grid
// boundaries must be totally ordered under the size assumptions; when
// ordering fails at the default "sizes >= 1" (e.g. a 3-point stencil
// whose applicable region [1, n-1) is only orderable for n >= 2), the
// analysis retries under progressively stronger assumptions and records
// the one that worked in MinInputSize.
func Analyze(prog *ast.Program, t *ast.Transform) (res *Result, err error) {
	// Symbolic arithmetic panics with a typed value rather than wrap
	// past 64 bits and prove a false order; this is where that becomes
	// the program's error, at the declaration or rule being analyzed.
	at := t.Pos
	defer onOverflow(func(msg string) { res, err = nil, errf(at, "%s", msg) })
	var lastErr error
	for _, minSize := range []int64{1, 2, 4, 8, 16} {
		res, err := analyzeWith(prog, t, minSize, &at)
		if err == nil {
			res.MinInputSize = minSize
			return res, nil
		}
		lastErr = err
		var oe *orderingError
		if !errors.As(err, &oe) {
			return nil, err
		}
	}
	return nil, lastErr
}

// analyzeWith runs the pipeline with every size variable assumed >=
// minSize, keeping *at on the source position it is working on.
func analyzeWith(prog *ast.Program, t *ast.Transform, minSize int64, at *token.Pos) (*Result, error) {
	res := &Result{
		Program:   prog,
		Transform: t,
		Matrices:  map[string]*MatrixInfo{},
		Grids:     map[string]*ChoiceGrid{},
		Assume:    symbolic.Assumptions{},
		sizeLo:    minSize,
		at:        at,
	}
	if err := res.analyzeHeader(); err != nil {
		return nil, err
	}
	for _, r := range t.Rules {
		*at = r.Pos
		ri, err := res.analyzeRule(r)
		if err != nil {
			return nil, err
		}
		res.Rules = append(res.Rules, ri)
	}
	*at = t.Pos
	if err := res.buildGrids(); err != nil {
		return nil, err
	}
	if err := res.buildGraph(); err != nil {
		return nil, err
	}
	if err := res.buildSchedule(); err != nil {
		return nil, err
	}
	return res, nil
}

func (res *Result) analyzeHeader() error {
	t := res.Transform
	add := func(ds []*ast.MatrixDecl, role ast.Role) error {
		for _, d := range ds {
			if _, dup := res.Matrices[d.Name]; dup {
				return errf(d.Pos, "duplicate matrix %q", d.Name)
			}
			*res.at = d.Pos
			mi := &MatrixInfo{Decl: d, Role: role}
			for _, de := range d.EffectiveDims() {
				se, err := toSymbolic(de)
				if err != nil {
					return errf(d.Pos, "matrix %s: %v", d.Name, err)
				}
				mi.Dims = append(mi.Dims, se)
				mi.Domain = append(mi.Domain, symbolic.NewInterval(symbolic.Const(0), se))
				for _, v := range se.Vars() {
					res.addSizeVar(v)
				}
			}
			res.Matrices[d.Name] = mi
			res.Order = append(res.Order, d.Name)
		}
		return nil
	}
	if err := add(t.From, ast.RoleFrom); err != nil {
		return err
	}
	if err := add(t.To, ast.RoleTo); err != nil {
		return err
	}
	if err := add(t.Through, ast.RoleThrough); err != nil {
		return err
	}
	if len(t.To) == 0 {
		return errf(t.Pos, "transform %s has no outputs", t.Name)
	}
	if len(t.Rules) == 0 {
		return errf(t.Pos, "transform %s has no rules", t.Name)
	}
	return nil
}

func (res *Result) addSizeVar(v string) {
	for _, s := range res.SizeVars {
		if s == v {
			return
		}
	}
	res.SizeVars = append(res.SizeVars, v)
	sort.Strings(res.SizeVars)
	// Size variables are assumed >= sizeLo (1 by default; raised when
	// grid-boundary ordering needs it).
	lo := res.sizeLo
	if lo < 1 {
		lo = 1
	}
	// res.Assume is still private to this analysis, so it grows in place.
	res.Assume[v] = symbolic.VarBounds{Lo: symbolic.BoundAt(lo)}
}

// isMacroRef reports whether a to-ref writes a fixed region (no fresh
// center variables): whole matrices or regions in size variables only.
func (res *Result) isMacroRef(ref *ast.RegionRef) bool {
	switch ref.Kind {
	case ast.RegionAll:
		return true
	case ast.RegionRegion:
		for _, a := range ref.Args {
			aff, err := toAffine(a)
			if err != nil {
				return false
			}
			for i := 0; i < aff.NumTerms(); i++ {
				if v, _ := aff.Term(i); !res.isSizeVar(v) {
					return false
				}
			}
		}
		return true
	default:
		return false
	}
}

func (res *Result) isSizeVar(v string) bool {
	for _, s := range res.SizeVars {
		if s == v {
			return true
		}
	}
	return false
}

// analyzeRule normalizes the rule around its center and computes its
// applicable region and dependency annotations.
func (res *Result) analyzeRule(r *ast.Rule) (*RuleInfo, error) {
	if len(r.To) == 0 || len(r.From) == 0 {
		return nil, errf(r.Pos, "%s: rules need both to and from regions", r.Name())
	}
	macro := true
	for _, ref := range r.To {
		if _, ok := res.Matrices[ref.Matrix]; !ok {
			return nil, errf(ref.Pos, "%s writes unknown matrix %q", r.Name(), ref.Matrix)
		}
		if res.Matrices[ref.Matrix].Role == ast.RoleFrom {
			return nil, errf(ref.Pos, "%s writes input matrix %q", r.Name(), ref.Matrix)
		}
		if !res.isMacroRef(ref) {
			macro = false
		}
	}
	for _, ref := range r.From {
		if _, ok := res.Matrices[ref.Matrix]; !ok {
			return nil, errf(ref.Pos, "%s reads unknown matrix %q", r.Name(), ref.Matrix)
		}
	}
	if macro {
		return res.analyzeMacroRule(r)
	}
	return res.analyzeCellRule(r)
}

// analyzeMacroRule handles whole-region rules: the applicable region is
// the declared to-region; dependencies are whole regions (DirAny).
func (res *Result) analyzeMacroRule(r *ast.Rule) (*RuleInfo, error) {
	ri := &RuleInfo{Rule: r, Kind: RuleMacro, Applicable: map[string]symbolic.Region{}}
	for _, ref := range r.To {
		reg, err := res.refRegion(ref)
		if err != nil {
			return nil, err
		}
		if prev, ok := ri.Applicable[ref.Matrix]; ok {
			// Multiple to-refs on the same matrix: take the bounding box.
			ri.Applicable[ref.Matrix] = boundingBox(prev, reg).Simplify(res.Assume)
		} else {
			ri.Applicable[ref.Matrix] = reg
		}
	}
	for _, ref := range r.From {
		reg, err := res.refRegion(ref)
		if err != nil {
			return nil, err
		}
		dirs := make([]Direction, len(reg))
		offs := make([]*symbolic.Expr, len(reg))
		ri.Deps = append(ri.Deps, Dep{Ref: ref, Matrix: ref.Matrix, Region: reg, Dir: dirs, Offset: offs})
	}
	return ri, nil
}

// refRegion resolves a region reference to the symbolic region of the
// underlying matrix it touches, in the matrix's own coordinates.
// PetaBricks orders coordinates (x, y): x is dimension 0.
func (res *Result) refRegion(ref *ast.RegionRef) (symbolic.Region, error) {
	mi := res.Matrices[ref.Matrix]
	var argBuf [8]*symbolic.Expr
	args := argBuf[:0]
	for _, a := range ref.Args {
		se, err := toSymbolic(a)
		if err != nil {
			return nil, errf(ref.Pos, "%v", err)
		}
		args = append(args, se)
	}
	var buf [4]Span
	spans, err := RefSpans(ref, len(mi.Dims), buf[:0])
	if err != nil {
		return nil, errf(ref.Pos, "%v", err)
	}
	var one *symbolic.Expr
	reg := make(symbolic.Region, len(spans))
	for d, s := range spans {
		reg[d] = mi.Domain[d]
		if s.Lo >= 0 {
			reg[d].Begin = args[s.Lo]
		}
		switch {
		case s.Unit:
			if one == nil {
				one = symbolic.Const(1)
			}
			reg[d].End = symbolic.Add(args[s.Hi], one)
		case s.Hi >= 0:
			reg[d].End = args[s.Hi]
		}
	}
	return reg, nil
}

// Span is the shape of a region reference in one dimension: it covers
// [lo, hi), where lo is argument Lo (0 when Lo < 0) and hi is argument
// Hi (the matrix's extent when Hi < 0), plus one when Unit.
type Span struct {
	Lo, Hi int
	Unit   bool
}

// RefSpans appends the shape of ref on a matrix of rank nd to buf, one
// span per dimension in DSL order, or reports why ref does not fit the
// matrix. It is the compiler's one shape rule: refRegion builds the
// dependency region from it, and the rule IR its affine bounds.
func RefSpans(ref *ast.RegionRef, nd int, buf []Span) ([]Span, error) {
	n := len(ref.Args)
	whole := Span{Lo: -1, Hi: -1}
	switch ref.Kind {
	case ast.RegionAll:
		for range nd {
			buf = append(buf, whole)
		}
	case ast.RegionCell:
		if n != nd {
			return nil, fmt.Errorf("cell() needs %d indices for %s", nd, ref.Matrix)
		}
		for d := range nd {
			buf = append(buf, Span{Lo: d, Hi: d, Unit: true})
		}
	case ast.RegionRow:
		if nd != 2 || n != 1 {
			return nil, errors.New("row() requires a 2-D matrix and one index")
		}
		buf = append(buf, whole, Span{Unit: true})
	case ast.RegionCol:
		if nd != 2 || n != 1 {
			return nil, errors.New("column() requires a 2-D matrix and one index")
		}
		buf = append(buf, Span{Unit: true}, whole)
	case ast.RegionRegion:
		if n != 2*nd {
			return nil, fmt.Errorf("region() needs %d bounds for %s", 2*nd, ref.Matrix)
		}
		for d := range nd {
			buf = append(buf, Span{Lo: d, Hi: nd + d})
		}
	default:
		return nil, errors.New("unknown region kind")
	}
	return buf, nil
}

// analyzeCellRule normalizes the center and computes applicable regions
// by intersecting the constraints of every dependency (§3.1 "Applicable
// regions"), plus where clauses.
func (res *Result) analyzeCellRule(r *ast.Rule) (*RuleInfo, error) {
	primary := r.To[0]
	if primary.Kind != ast.RegionCell {
		return nil, errf(primary.Pos, "%s: cell-granularity rules must write cell() regions", r.Name())
	}
	mi := res.Matrices[primary.Matrix]
	nd := len(mi.Dims)
	if len(primary.Args) != nd {
		return nil, errf(primary.Pos, "%s: cell() needs %d indices", r.Name(), nd)
	}
	// Dependency normalization: the center is the written cell. Each
	// to-arg must be var+const; rewrite so the to-arg becomes the bare
	// variable (the paper's Maxima-based normalization).
	centerVars := make([]string, nd)
	var shift map[string]*symbolic.Expr // v -> v-c for to-args v+c; usually empty
	for d, a := range primary.Args {
		aff, err := toAffine(a)
		if err != nil {
			return nil, errf(primary.Pos, "%v", err)
		}
		if aff.IsConst() {
			// Constant index: the rule writes a single slice of this
			// dimension; no center variable here.
			if !aff.Const().IsInt() {
				return nil, errf(primary.Pos, "%s: non-integer output index", r.Name())
			}
			continue
		}
		if aff.NumTerms() != 1 {
			return nil, errf(primary.Pos, "%s: output index %s must use exactly one variable", r.Name(), ast.ExprString(a))
		}
		v, coef := aff.Term(0)
		if containsVar(centerVars[:d], v) {
			return nil, errf(primary.Pos, "%s: output reuses center variable %q", r.Name(), v)
		}
		if res.isSizeVar(v) {
			return nil, errf(primary.Pos, "%s: output index %q collides with a size variable", r.Name(), v)
		}
		if coef.Cmp(symbolic.RatInt(1)) != 0 {
			return nil, errf(primary.Pos, "%s: output index must have unit coefficient", r.Name())
		}
		centerVars[d] = v
		if !aff.Const().IsZero() {
			// to-arg is v+c: substitute v -> v-c everywhere.
			if shift == nil {
				shift = map[string]*symbolic.Expr{}
			}
			shift[v] = symbolic.Sub(symbolic.Var(v), symbolic.ConstRat(aff.Const()))
		}
	}
	ri := &RuleInfo{Rule: r, Kind: RuleCell, CenterVars: centerVars, Applicable: map[string]symbolic.Region{}}
	// Applicable region: start from the output domain; constant output
	// indices restrict their dimension to a single slice.
	appl := make(symbolic.Region, nd)
	copy(appl, mi.Domain)
	// The center of each dimension, and the cell after it, as expressions.
	centers := make([][2]*symbolic.Expr, nd)
	for d, a := range primary.Args {
		if v := centerVars[d]; v != "" {
			center := symbolic.Var(v)
			centers[d] = [2]*symbolic.Expr{center, symbolic.Add(center, symbolic.Const(1))}
			continue
		}
		se, _ := toSymbolic(a)
		appl[d] = symbolic.NewInterval(se, symbolic.Add(se, symbolic.Const(1)))
	}
	// Assumptions: center vars >= 0 for simplification purposes.
	assume := make(symbolic.Assumptions, len(res.Assume)+nd)
	for v, vb := range res.Assume {
		assume[v] = vb
	}
	for _, v := range centerVars {
		vb := assume[v]
		vb.Lo = symbolic.BoundAt(0)
		assume[v] = vb
	}
	// Intersect constraints from every dependency.
	for _, ref := range r.From {
		reg, err := res.refRegion(ref)
		if err != nil {
			return nil, err
		}
		if len(shift) > 0 {
			reg = reg.Substitute(shift)
		}
		dmi := res.Matrices[ref.Matrix]
		dep := Dep{Ref: ref, Matrix: ref.Matrix, Region: reg,
			Dir: make([]Direction, len(reg)), Offset: make([]*symbolic.Expr, len(reg))}
		for d := range reg {
			// In-bounds constraints projected onto center variables.
			cs, err := boundConstraints(reg[d], dmi.Domain[d], centerVars)
			if err != nil {
				return nil, errf(ref.Pos, "%s: %v", r.Name(), err)
			}
			for _, c := range cs {
				applyBound(appl, centerVars, c)
			}
			// Direction/offset relative to the center of this dimension.
			if d < nd && centerVars[d] != "" {
				dep.Dir[d], dep.Offset[d] = classifyDep(reg[d], centers[d][0], centers[d][1], assume)
			}
		}
		ri.Deps = append(ri.Deps, dep)
	}
	// Where clauses restrict the applicable region further.
	if r.Where != nil {
		cmps, err := whereConstraints(r.Where)
		if err != nil {
			return nil, errf(r.Pos, "%s: %v", r.Name(), err)
		}
		for _, cmp := range cmps {
			v, lo, hi, err := comparisonBounds(cmp, shift)
			if err != nil {
				return nil, errf(r.Pos, "%s: %v", r.Name(), err)
			}
			applyBound(appl, centerVars, bound{v: v, lo: lo, hi: hi})
		}
	}
	appl = clampRegion(appl, mi.Domain).Simplify(assume)
	ri.Applicable[primary.Matrix] = appl
	// Secondary to-refs (rare): must be cell refs on the same center.
	for _, ref := range r.To[1:] {
		if ref.Kind != ast.RegionCell {
			return nil, errf(ref.Pos, "%s: secondary outputs must be cells", r.Name())
		}
		reg, err := res.refRegion(ref)
		if err != nil {
			return nil, err
		}
		if len(shift) > 0 {
			reg = reg.Substitute(shift)
		}
		ri.Applicable[ref.Matrix] = reg
	}
	return ri, nil
}

// bound is an interval constraint on one center variable.
type bound struct {
	v      string
	lo, hi *symbolic.Expr // either may be nil; [lo, hi)
}

// boundConstraints derives center-variable bounds from requiring
// depInterval ⊆ domain. Constraints in size variables only are assumed
// valid (the program would be globally malformed otherwise).
func boundConstraints(dep, domain symbolic.Interval, centerVars []string) ([]bound, error) {
	var out []bound
	// dep.Begin >= domain.Begin and dep.End <= domain.End.
	for _, c := range []struct {
		expr  *symbolic.Expr // affine expr that must satisfy REL bound
		limit *symbolic.Expr
		isLow bool // true: expr >= limit; false: expr <= limit
	}{
		{dep.Begin, domain.Begin, true},
		{dep.End, domain.End, false},
	} {
		aff, ok := c.expr.Affine()
		if !ok {
			return nil, fmt.Errorf("non-affine region bound %s", c.expr)
		}
		limit, ok := c.limit.Affine()
		if !ok {
			return nil, fmt.Errorf("non-affine region bound %s", c.limit)
		}
		cv := ""
		for i := 0; i < aff.NumTerms(); i++ {
			if v, _ := aff.Term(i); containsVar(centerVars, v) {
				if cv != "" {
					return nil, fmt.Errorf("region bound %s uses two center variables", c.expr)
				}
				cv = v
			}
		}
		if cv == "" {
			continue // pure size-variable constraint
		}
		coefs, rest := aff.Split([]string{cv})
		coef := coefs[0]
		// coef·v + rest >= limit  →  v >= (limit-rest)/coef  (coef > 0)
		rhs := limit.Sub(rest).Scale(symbolic.RatInt(1).Div(coef))
		isLow := c.isLow
		if coef.Sign() < 0 {
			isLow = !isLow
		}
		if isLow {
			out = append(out, bound{v: cv, lo: rhs.Expr()})
		} else {
			// v <= rhs, and bounds are half-open: hi = rhs + 1.
			hi := rhs.Add(symbolic.AffineConst(symbolic.RatInt(1)))
			out = append(out, bound{v: cv, hi: hi.Expr()})
		}
	}
	return out, nil
}

// applyBound intersects a single-variable bound into the applicable
// region (per the center variable's dimension), in place.
func applyBound(appl symbolic.Region, centerVars []string, b bound) {
	for d, v := range centerVars {
		if v != b.v {
			continue
		}
		if b.lo != nil {
			appl[d].Begin = symbolic.Max(appl[d].Begin, b.lo)
		}
		if b.hi != nil {
			appl[d].End = symbolic.Min(appl[d].End, b.hi)
		}
		return
	}
}

// classifyDep computes the direction and offset of a dependency interval
// relative to a dimension's center variable; next is center+1.
func classifyDep(dep symbolic.Interval, center, next *symbolic.Expr, assume symbolic.Assumptions) (Direction, *symbolic.Expr) {
	// Exact cell: [c+k, c+k+1).
	beginOff := symbolic.Sub(dep.Begin, center)
	endOff := symbolic.Sub(dep.End, center)
	if bo, ok := beginOff.IsConst(); ok {
		if eo, ok2 := endOff.IsConst(); ok2 && eo.Sub(bo).Cmp(symbolic.RatInt(1)) == 0 {
			return DirEq, beginOff
		}
	}
	// Strictly below the center: end <= center ⇒ indices < center.
	if symbolic.ProvablyLE(dep.End, center, assume) {
		return DirLT, nil
	}
	// At or below the center: end <= center+1 ⇒ indices <= center.
	if symbolic.ProvablyLE(dep.End, next, assume) {
		return DirLE, nil
	}
	// Strictly above: begin >= center+1.
	if symbolic.ProvablyGE(dep.Begin, next, assume) {
		return DirGT, nil
	}
	// At or above: begin >= center.
	if symbolic.ProvablyGE(dep.Begin, center, assume) {
		return DirGE, nil
	}
	return DirAny, nil
}

func containsVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// boundingBox returns the dimension-wise union (bounding box) of two
// regions.
func boundingBox(a, b symbolic.Region) symbolic.Region {
	if len(a) != len(b) {
		return a
	}
	out := make(symbolic.Region, len(a))
	for d := range a {
		out[d] = symbolic.NewInterval(symbolic.Min(a[d].Begin, b[d].Begin), symbolic.Max(a[d].End, b[d].End))
	}
	return out
}

// clampRegion clamps every bound of reg into the matrix domain, so grid
// boundaries stay symbolically comparable to the domain ends even when a
// rule's constant cutoff may exceed a small input (e.g. an applicable
// begin of K becomes min(max(K, 0), n), which orders against both 0 and
// n and evaluates in-bounds at runtime for any n).
func clampRegion(reg, domain symbolic.Region) symbolic.Region {
	out := make(symbolic.Region, len(reg))
	for d := range reg {
		lo, hi := domain[d].Begin, domain[d].End
		out[d] = symbolic.NewInterval(
			symbolic.Min(symbolic.Max(reg[d].Begin, lo), hi),
			symbolic.Max(symbolic.Min(reg[d].End, hi), lo),
		)
	}
	return out
}
