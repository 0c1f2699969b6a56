// Package codegen implements the PetaBricks compiler's second code
// generation mode (§3.1): "a previously tuned configuration file is
// applied statically during code generation", eliminating unused choices.
// It emits a self-contained Go source file (stdlib-only, its own small
// matrix runtime) containing one function per transform, with the
// configured rule selected per grid region and size level, and the
// static schedule unrolled into loops.
package codegen

import (
	"errors"
	"fmt"
	"go/format"
	"sort"
	"strings"

	"petabricks/internal/choice"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/symbolic"
)

// Options controls generation.
type Options struct {
	// Package is the emitted package name; "main" adds a demo main().
	Package string
	// Config is the tuned configuration baked into the output; nil uses
	// defaults (rule 0 everywhere).
	Config *choice.Config
}

// ErrNoTransform is Generate's error for a program with no transform to
// emit: an empty file, or one that holds only templates.
var ErrNoTransform = errors.New("codegen: no non-template transform to emit")

// Generate emits Go source for every transform of the analyzed program.
// The results must all come from the same *ast.Program.
func Generate(results []*analysis.Result, opt Options) (src string, err error) {
	if len(results) == 0 {
		return "", ErrNoTransform
	}
	// Rendering a bound over a common denominator can leave int64, as
	// folding one can in the analysis; report it as an error too.
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *symbolic.OverflowError:
			src, err = "", fmt.Errorf("codegen: bound overflows 64-bit arithmetic (%s %s %s)", r.X, r.Op, r.Y)
		default:
			panic(r)
		}
	}()
	if opt.Package == "" {
		opt.Package = "main"
	}
	if opt.Config == nil {
		opt.Config = choice.NewConfig()
	}
	g := &gen{opt: opt, byName: map[string]*analysis.Result{}}
	for _, r := range results {
		g.byName[r.Transform.Name] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by pbc from PetaBricks source. DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// Static-choice mode: the tuned configuration is baked in.\n")
	fmt.Fprintf(&b, "package %s\n\n", opt.Package)
	b.WriteString(prelude)
	for _, r := range results {
		code, err := g.transform(r)
		if err != nil {
			return "", err
		}
		b.WriteString(code)
	}
	if opt.Package == "main" {
		b.WriteString(g.demoMain(results[0]))
	}
	src = b.String()
	formatted, err := format.Source([]byte(src))
	if err != nil {
		return src, fmt.Errorf("codegen: emitted invalid Go: %w", err)
	}
	return string(formatted), nil
}

type gen struct {
	opt    Options
	byName map[string]*analysis.Result
}

// prelude is the embedded mini-runtime: a strided float64 matrix and the
// body builtins, so the generated file depends only on the stdlib.
const prelude = `import (
	"fmt"
	"math"
)

// Mat is the generated code's strided n-dimensional matrix.
type Mat struct {
	data    []float64
	dims    []int
	strides []int
	off     int
}

// NewMat allocates a zero matrix with extents given in (x, y, ...) order.
func NewMat(dims ...int) *Mat {
	n := 1
	rev := make([]int, len(dims))
	for i, d := range dims {
		rev[len(dims)-1-i] = d
		n *= d
	}
	m := &Mat{data: make([]float64, n), dims: rev, strides: make([]int, len(rev))}
	s := 1
	for i := len(rev) - 1; i >= 0; i-- {
		m.strides[i] = s
		s *= rev[i]
	}
	return m
}

// Size returns the extent of DSL dimension d (x = 0).
func (m *Mat) Size(d int) int { return m.dims[len(m.dims)-1-d] }

// Get reads the cell at DSL coordinates.
func (m *Mat) Get(idx ...int) float64 { return m.data[m.index(idx)] }

// Set writes the cell at DSL coordinates.
func (m *Mat) Set(v float64, idx ...int) { m.data[m.index(idx)] = v }

func (m *Mat) index(idx []int) int {
	o := m.off
	nd := len(m.dims)
	for d, i := range idx {
		o += i * m.strides[nd-1-d]
	}
	return o
}

// Region returns a shared view [begin, end) in DSL coordinates.
func (m *Mat) Region(begin, end []int) *Mat {
	nd := len(m.dims)
	out := &Mat{data: m.data, dims: make([]int, nd), strides: append([]int{}, m.strides...), off: m.off}
	for d := 0; d < nd; d++ {
		rb, re := begin[nd-1-d], end[nd-1-d]
		out.off += rb * m.strides[d]
		out.dims[d] = re - rb
	}
	return out
}

// CopyFrom copies o into m (same shape).
func (m *Mat) CopyFrom(o *Mat) {
	var rec func(d int, mo, oo int)
	rec = func(d, mo, oo int) {
		if d == len(m.dims) {
			m.data[mo] = o.data[oo]
			return
		}
		for i := 0; i < m.dims[d]; i++ {
			rec(d+1, mo+i*m.strides[d], oo+i*o.strides[d])
		}
	}
	rec(0, m.off, o.off)
}

func pbSum(m *Mat) float64 {
	acc := 0.0
	var rec func(d, o int)
	rec = func(d, o int) {
		if d == len(m.dims) {
			acc += m.data[o]
			return
		}
		for i := 0; i < m.dims[d]; i++ {
			rec(d+1, o+i*m.strides[d])
		}
	}
	rec(0, m.off)
	return acc
}

func pbDot(a, b *Mat) float64 {
	n := 1
	for _, d := range a.dims {
		n *= d
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += a.linear(i) * b.linear(i)
	}
	return s
}

func (m *Mat) linear(i int) float64 {
	o := m.off
	for d := len(m.dims) - 1; d >= 0; d-- {
		o += (i % m.dims[d]) * m.strides[d]
		i /= m.dims[d]
	}
	return m.data[o]
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func minI(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxI(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func pbIf(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}

var (
	_ = fmt.Sprintf
	_ = math.Sqrt
	_ = floorDiv
	_ = minI
	_ = maxI
	_ = pbDot
	_ = pbSum
	_ = b2f
	_ = pbIf
	_ = (*Mat).CopyFrom
	_ = (*Mat).Set
	_ = (*Mat).Get
	_ = (*Mat).Region
)

`

// funcName is the Go function emitted for the transform called name: PB_
// and the name, with a template instance's argument list, "<3,-1>" in
// "Smooth<3,-1>", spelled "_3_m1", so that the name is a Go identifier.
func funcName(name string) string {
	var b strings.Builder
	b.WriteString("PB_")
	for _, r := range name {
		switch r {
		case '<', ',':
			b.WriteByte('_')
		case '-':
			b.WriteByte('m')
		case '>':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// transform emits one transform's function.
func (g *gen) transform(res *analysis.Result) (string, error) {
	t := res.Transform
	var b strings.Builder
	// Signature: inputs then named outputs.
	var params, outs []string
	for _, d := range t.From {
		params = append(params, "in_"+d.Name+" *Mat")
	}
	for range t.To {
		outs = append(outs, "*Mat")
	}
	fmt.Fprintf(&b, "// %s executes the PetaBricks transform %s.\n", funcName(t.Name), t.Name)
	fmt.Fprintf(&b, "func %s(%s) (%s) {\n", funcName(t.Name), strings.Join(params, ", "), strings.Join(outs, ", "))
	// Bind size variables from input shapes (first occurrence wins; the
	// interpreter validates consistency, generated code trusts shapes).
	bound := map[string]bool{}
	for _, d := range t.From {
		mi := res.Matrices[d.Name]
		for dim, se := range mi.Dims {
			aff, ok := se.Affine()
			if !ok {
				return "", fmt.Errorf("codegen: non-affine size %s", se)
			}
			vars := aff.Vars()
			if len(vars) == 1 && !bound[vars[0]] && aff.Coeff(vars[0]).Cmp(symbolic.RatInt(1)) == 0 && aff.Const().IsZero() {
				fmt.Fprintf(&b, "\t%s := in_%s.Size(%d)\n", vars[0], d.Name, dim)
				bound[vars[0]] = true
			}
		}
	}
	for _, v := range res.SizeVars {
		if !bound[v] {
			return "", fmt.Errorf("codegen: size variable %s of %s not derivable from a plain input dimension", v, t.Name)
		}
	}
	// Allocate outputs and intermediates.
	locals := map[string]string{}
	for _, d := range t.From {
		locals[d.Name] = "in_" + d.Name
	}
	for _, d := range append(append([]*ast.MatrixDecl{}, t.To...), t.Through...) {
		mi := res.Matrices[d.Name]
		exts := make([]string, len(mi.Dims))
		for i, se := range mi.Dims {
			e, err := g.goExpr(se)
			if err != nil {
				return "", err
			}
			exts[i] = e
		}
		fmt.Fprintf(&b, "\tm_%s := NewMat(%s)\n", d.Name, strings.Join(exts, ", "))
		locals[d.Name] = "m_" + d.Name
	}
	// Problem size (the selector's metric: minimum extent anywhere).
	fmt.Fprintf(&b, "\tpbSize := %s\n", g.sizeMetric(res))
	fmt.Fprintf(&b, "\t_ = pbSize\n")
	// Macro dispatch: if the baked selector chooses a macro rule at this
	// size, run it; otherwise fall through to the per-cell schedule.
	emitted := map[string]bool{}
	for _, name := range res.Order {
		grid, ok := res.Grids[name]
		if !ok || len(grid.Macro) == 0 || emitted[name] {
			continue
		}
		emitted[name] = true
		sel := g.opt.Config.Selector("pbc."+t.Name, 0)
		prevCut := int64(0)
		for _, lvl := range sel.Levels {
			lowerBound := prevCut
			prevCut = lvl.Cutoff
			for _, ri := range grid.Macro {
				if ri.Rule.Index != lvl.Choice {
					continue
				}
				// The level applies for lowerBound <= pbSize < Cutoff.
				var conds []string
				if lowerBound > 0 {
					conds = append(conds, fmt.Sprintf("pbSize >= %d", lowerBound))
				}
				if lvl.Cutoff != choice.Inf {
					conds = append(conds, fmt.Sprintf("pbSize < %d", lvl.Cutoff))
				}
				cond := strings.Join(conds, " && ")
				if cond == "" {
					cond = "true"
				}
				body, err := g.ruleBody(res, ri, locals, "\t\t")
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "\tif %s {\n%s\t\treturn %s\n\t}\n", cond, body, g.returnList(t))
			}
		}
	}
	// Per-cell schedule.
	for _, step := range res.Schedule {
		code, err := g.step(res, step, locals)
		if err != nil {
			return "", err
		}
		b.WriteString(code)
	}
	fmt.Fprintf(&b, "\treturn %s\n}\n\n", g.returnList(t))
	return b.String(), nil
}

func (g *gen) returnList(t *ast.Transform) string {
	outs := make([]string, len(t.To))
	for i, d := range t.To {
		outs[i] = "m_" + d.Name
	}
	return strings.Join(outs, ", ")
}

// sizeMetric emits the minimum-extent expression over all matrices.
func (g *gen) sizeMetric(res *analysis.Result) string {
	var parts []string
	names := append([]string{}, res.Order...)
	sort.Strings(names)
	for _, name := range names {
		mi := res.Matrices[name]
		for d := range mi.Dims {
			ref := "m_" + name
			if mi.Role == ast.RoleFrom {
				ref = "in_" + name
			}
			parts = append(parts, fmt.Sprintf("%s.Size(%d)", ref, d))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return "minI(" + strings.Join(parts, ", ") + ")"
}
