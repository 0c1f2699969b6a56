package interp

import (
	"fmt"
	"math"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/ast"
	"petabricks/internal/runtime"
)

// runRuleBody binds the rule's region references at one center and
// executes the body statements by walking the AST. It is the reference
// oracle and the fallback for rules the vm (compile.go) does not take;
// hot rules normally run on a bytecode frame instead. w is the
// scheduler thread the body runs on (nil outside the pool); nested
// transform calls inherit it.
func (ex *exec) runRuleBody(ri *analysis.RuleInfo, center map[string]int64, w *runtime.Worker) error {
	if ri.Rule.RawBody != "" {
		return fmt.Errorf("interp: %s uses a %%{...}%% escape, which the interpreter cannot execute", ri.Rule.Name())
	}
	e := newEnv(nil)
	e.worker, e.rule = w, ri.Rule.Name()
	for k, v := range ex.sizes() {
		e.define(k, scalar(float64(v)))
	}
	for k, v := range center {
		e.define(k, scalar(float64(v)))
	}
	bind := func(ref *ast.RegionRef, reg []([2]int64)) error {
		if ref.Binding == "" {
			return nil
		}
		m := ex.mat(ref.Matrix)
		if ref.Kind == ast.RegionCell {
			idx := make([]int, len(reg))
			for d := range reg {
				idx[len(reg)-1-d] = int(reg[d][0]) // reverse to row-major
			}
			e.define(ref.Binding, cellref(m, idx, ref.Binding))
			return nil
		}
		collapse := ref.Kind == ast.RegionRow || ref.Kind == ast.RegionCol
		view, err := viewOf(m, reg, collapse)
		if err != nil {
			return fmt.Errorf("interp: %s binding %s: %w", ri.Rule.Name(), ref.Binding, err)
		}
		e.define(ref.Binding, matval(view))
		return nil
	}
	// Bind to-refs.
	for i, ref := range ri.Rule.To {
		reg, err := ex.refBounds(ref, center)
		if err != nil {
			return fmt.Errorf("interp: %s to[%d]: %w", ri.Rule.Name(), i, err)
		}
		if err := bind(ref, reg); err != nil {
			return err
		}
	}
	for i, ref := range ri.Rule.From {
		reg, err := ex.refBounds(ref, center)
		if err != nil {
			return fmt.Errorf("interp: %s from[%d]: %w", ri.Rule.Name(), i, err)
		}
		if err := bind(ref, reg); err != nil {
			return err
		}
	}
	return ex.execStmts(ri.Rule.Body, e)
}

// refBounds evaluates a region reference's concrete bounds (DSL order)
// at the given center.
func (ex *exec) refBounds(ref *ast.RegionRef, center map[string]int64) ([][2]int64, error) {
	sizes := ex.sizes()
	envv := make(map[string]int64, len(sizes)+len(center))
	for k, v := range sizes {
		envv[k] = v
	}
	for k, v := range center {
		envv[k] = v
	}
	m := ex.mat(ref.Matrix)
	nd := m.Dims()
	dims := dslDims(m)
	evalArg := func(a ast.Expr) (int64, error) {
		se, err := analysis.ToSymbolic(a)
		if err != nil {
			return 0, err
		}
		return se.Eval(envv)
	}
	switch ref.Kind {
	case ast.RegionAll:
		out := make([][2]int64, nd)
		for d := 0; d < nd; d++ {
			out[d] = [2]int64{0, int64(dims[d])}
		}
		return out, nil
	case ast.RegionCell:
		out := make([][2]int64, len(ref.Args))
		for d, a := range ref.Args {
			v, err := evalArg(a)
			if err != nil {
				return nil, err
			}
			out[d] = [2]int64{v, v + 1}
		}
		return out, nil
	case ast.RegionRow:
		y, err := evalArg(ref.Args[0])
		if err != nil {
			return nil, err
		}
		return [][2]int64{{0, int64(dims[0])}, {y, y + 1}}, nil
	case ast.RegionCol:
		x, err := evalArg(ref.Args[0])
		if err != nil {
			return nil, err
		}
		return [][2]int64{{x, x + 1}, {0, int64(dims[1])}}, nil
	case ast.RegionRegion:
		out := make([][2]int64, nd)
		for d := 0; d < nd; d++ {
			lo, err := evalArg(ref.Args[d])
			if err != nil {
				return nil, err
			}
			hi, err := evalArg(ref.Args[nd+d])
			if err != nil {
				return nil, err
			}
			out[d] = [2]int64{lo, hi}
		}
		return out, nil
	}
	return nil, fmt.Errorf("bad region kind")
}

// viewOf builds a matrix view for DSL-order bounds. With collapse set
// (row/column accessors), single-extent dimensions are dropped so rows
// and columns become 1-D views; region() views keep their rank.
func viewOf(m *matrix.Matrix, reg [][2]int64, collapse bool) (*matrix.Matrix, error) {
	nd := m.Dims()
	if len(reg) != nd {
		return nil, fmt.Errorf("rank mismatch: view %d vs matrix %d", len(reg), nd)
	}
	begin := make([]int, nd)
	end := make([]int, nd)
	for d := 0; d < nd; d++ {
		// reverse DSL order to row-major.
		begin[nd-1-d] = int(reg[d][0])
		end[nd-1-d] = int(reg[d][1])
	}
	for d := 0; d < nd; d++ {
		if begin[d] < 0 || end[d] > m.Size(d) || begin[d] > end[d] {
			return nil, fmt.Errorf("view [%d,%d) out of range [0,%d)", begin[d], end[d], m.Size(d))
		}
	}
	v := m.Region(begin, end)
	if collapse {
		for d := 0; d < v.Dims(); {
			if v.Dims() > 1 && v.Size(d) == 1 {
				v = v.Slice(d, 0)
				continue
			}
			d++
		}
	}
	return v, nil
}

// --- Statement / expression evaluation -----------------------------------

func (ex *exec) execStmts(stmts []ast.Stmt, e *env) error {
	for _, s := range stmts {
		if err := ex.execStmt(s, e); err != nil {
			return err
		}
	}
	return nil
}

func (ex *exec) execStmt(s ast.Stmt, e *env) error {
	switch st := s.(type) {
	case *ast.Decl:
		v := 0.0
		if st.Init != nil {
			val, err := ex.eval(st.Init, e)
			if err != nil {
				return err
			}
			f, err := val.num()
			if err != nil {
				return err
			}
			v = f
		}
		if st.Type == "int" {
			v = math.Trunc(v)
		}
		e.define(st.Name, scalar(v))
		return nil
	case *ast.Assign:
		return ex.execAssign(st, e)
	case *ast.IncDec:
		cur, ok := e.lookup(st.Name)
		if !ok {
			return fmt.Errorf("interp: undefined variable %q", st.Name)
		}
		f, err := cur.num()
		if err != nil {
			return err
		}
		if st.Op == "++" {
			f++
		} else {
			f--
		}
		e.assign(st.Name, scalar(f))
		return nil
	case *ast.If:
		c, err := ex.eval(st.Cond, e)
		if err != nil {
			return err
		}
		f, err := c.num()
		if err != nil {
			return err
		}
		if f != 0 {
			return ex.execStmts(st.Then, newEnv(e))
		}
		return ex.execStmts(st.Else, newEnv(e))
	case *ast.For:
		scope := newEnv(e)
		if st.Init != nil {
			if err := ex.execStmt(st.Init, scope); err != nil {
				return err
			}
		}
		for iter := 0; ; iter++ {
			if iter > 100_000_000 {
				return fmt.Errorf("interp: runaway for loop")
			}
			if st.Cond != nil {
				c, err := ex.eval(st.Cond, scope)
				if err != nil {
					return err
				}
				f, err := c.num()
				if err != nil {
					return err
				}
				if f == 0 {
					break
				}
			} else {
				return fmt.Errorf("interp: for loop without condition")
			}
			if err := ex.execStmts(st.Body, newEnv(scope)); err != nil {
				return err
			}
			if st.Post != nil {
				if err := ex.execStmt(st.Post, scope); err != nil {
					return err
				}
			}
		}
		return nil
	case *ast.ExprStmt:
		_, err := ex.eval(st.X, e)
		return err
	case *ast.Return:
		return fmt.Errorf("interp: return not allowed in rule bodies")
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

func (ex *exec) execAssign(st *ast.Assign, e *env) error {
	rhs, err := ex.eval(st.RHS, e)
	if err != nil {
		return err
	}
	apply := func(old float64) (float64, error) {
		f, err := rhs.num()
		if err != nil {
			return 0, err
		}
		switch st.Op {
		case "=":
			return f, nil
		case "+=":
			return old + f, nil
		case "-=":
			return old - f, nil
		}
		return 0, fmt.Errorf("interp: bad assign op %q", st.Op)
	}
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		cur, ok := e.lookup(lhs.Name)
		if !ok {
			// Implicit local definition (C-style bodies often assign
			// fresh temporaries).
			f, err := rhs.num()
			if err == nil && st.Op == "=" {
				e.define(lhs.Name, scalar(f))
				return nil
			}
			return fmt.Errorf("interp: undefined variable %q", lhs.Name)
		}
		switch cur.kind {
		case valCell:
			nv, err := apply(cur.ref.Get(cur.idx...))
			if err != nil {
				return err
			}
			cur.ref.Set(nv, cur.idx...)
			return nil
		case valMatrix:
			// Whole-region assignment: rhs must be a matrix of the same
			// shape (e.g. `ab = MatrixAdd(...)`).
			if st.Op != "=" {
				return fmt.Errorf("interp: %q not supported on matrix bindings", st.Op)
			}
			return assignRegion(e.root().rule, lhs.Name, cur.m, rhs)
		default:
			nv, err := apply(cur.f)
			if err != nil {
				return err
			}
			e.assign(lhs.Name, scalar(nv))
			return nil
		}
	case *ast.Index:
		base, ok := e.lookup(lhs.Base)
		if !ok {
			return fmt.Errorf("interp: undefined region %q", lhs.Base)
		}
		m, err := base.mat()
		if err != nil {
			return err
		}
		idx, err := ex.evalIndices(lhs.Args, m, e)
		if err != nil {
			return err
		}
		nv, err := apply(m.Get(idx...))
		if err != nil {
			return err
		}
		m.Set(nv, idx...)
		return nil
	}
	return fmt.Errorf("interp: bad assignment target")
}

// evalIndices evaluates DSL-order indices and reverses them to
// row-major.
func (ex *exec) evalIndices(args []ast.Expr, m *matrix.Matrix, e *env) ([]int, error) {
	if len(args) != m.Dims() {
		return nil, fmt.Errorf("interp: %d indices for %d-dim region", len(args), m.Dims())
	}
	idx := make([]int, len(args))
	for d, a := range args {
		v, err := ex.eval(a, e)
		if err != nil {
			return nil, err
		}
		f, err := v.num()
		if err != nil {
			return nil, err
		}
		idx[len(args)-1-d] = int(f)
	}
	return idx, nil
}

func (ex *exec) eval(expr ast.Expr, e *env) (value, error) {
	switch x := expr.(type) {
	case *ast.Num:
		return scalar(x.Val), nil
	case *ast.Ident:
		if v, ok := e.lookup(x.Name); ok {
			return v, nil
		}
		return value{}, fmt.Errorf("interp: undefined name %q", x.Name)
	case *ast.Unary:
		v, err := ex.eval(x.X, e)
		if err != nil {
			return value{}, err
		}
		f, err := v.num()
		if err != nil {
			return value{}, err
		}
		if x.Op == "-" {
			return scalar(-f), nil
		}
		if f == 0 {
			return scalar(1), nil
		}
		return scalar(0), nil
	case *ast.Binary:
		return ex.evalBinary(x, e)
	case *ast.Cond:
		c, err := ex.eval(x.C, e)
		if err != nil {
			return value{}, err
		}
		f, err := c.num()
		if err != nil {
			return value{}, err
		}
		if f != 0 {
			return ex.eval(x.A, e)
		}
		return ex.eval(x.B, e)
	case *ast.Index:
		base, ok := e.lookup(x.Base)
		if !ok {
			return value{}, fmt.Errorf("interp: undefined region %q", x.Base)
		}
		m, err := base.mat()
		if err != nil {
			return value{}, err
		}
		idx, err := ex.evalIndices(x.Args, m, e)
		if err != nil {
			return value{}, err
		}
		return scalar(m.Get(idx...)), nil
	case *ast.Call:
		return ex.evalCall(x, e)
	}
	return value{}, fmt.Errorf("interp: unknown expression %T", expr)
}

func (ex *exec) evalBinary(x *ast.Binary, e *env) (value, error) {
	l, err := ex.eval(x.L, e)
	if err != nil {
		return value{}, err
	}
	// Short-circuit logicals.
	if x.Op == "&&" || x.Op == "||" {
		lf, err := l.num()
		if err != nil {
			return value{}, err
		}
		if x.Op == "&&" && lf == 0 {
			return scalar(0), nil
		}
		if x.Op == "||" && lf != 0 {
			return scalar(1), nil
		}
		r, err := ex.eval(x.R, e)
		if err != nil {
			return value{}, err
		}
		rf, err := r.num()
		if err != nil {
			return value{}, err
		}
		if rf != 0 {
			return scalar(1), nil
		}
		return scalar(0), nil
	}
	r, err := ex.eval(x.R, e)
	if err != nil {
		return value{}, err
	}
	lf, err := l.num()
	if err != nil {
		return value{}, err
	}
	rf, err := r.num()
	if err != nil {
		return value{}, err
	}
	b2f := func(b bool) value {
		if b {
			return scalar(1)
		}
		return scalar(0)
	}
	switch x.Op {
	case "+":
		return scalar(lf + rf), nil
	case "-":
		return scalar(lf - rf), nil
	case "*":
		return scalar(lf * rf), nil
	case "/":
		if rf == 0 {
			return value{}, fmt.Errorf("interp: division by zero")
		}
		return scalar(lf / rf), nil
	case "%":
		if rf == 0 {
			return value{}, fmt.Errorf("interp: modulo by zero")
		}
		return scalar(math.Mod(lf, rf)), nil
	case "<":
		return b2f(lf < rf), nil
	case "<=":
		return b2f(lf <= rf), nil
	case ">":
		return b2f(lf > rf), nil
	case ">=":
		return b2f(lf >= rf), nil
	case "==":
		return b2f(lf == rf), nil
	case "!=":
		return b2f(lf != rf), nil
	}
	return value{}, fmt.Errorf("interp: unknown operator %q", x.Op)
}

// evalCall dispatches builtins and transform invocations.
func (ex *exec) evalCall(x *ast.Call, e *env) (value, error) {
	args := make([]value, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a, e)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	if fn, ok := builtins[x.Fn]; ok {
		return fn(x.Fn, args)
	}
	return ex.callTransform(x.Fn, args, nil, e.root().worker)
}

// RegionShapeError reports a whole-region assignment (`b = T(a)`)
// whose right-hand side does not have the bound region's shape.
type RegionShapeError struct {
	Rule, Binding string
	Region, Value []int // DSL (x, y, …) order
}

func (e *RegionShapeError) Error() string {
	return fmt.Sprintf("interp: %s binding %s: cannot assign a value of shape %v to a region of shape %v",
		e.Rule, e.Binding, e.Value, e.Region)
}

// assignRegion stores rv into the region view cur bound as binding —
// the whole-region assignment of every tier.
func assignRegion(rule, binding string, cur *matrix.Matrix, rv value) error {
	rm, err := rv.mat()
	if err != nil {
		return err
	}
	if rm.Count() == 1 && cur.Count() == 1 && cur.Dims() <= 1 {
		// Degenerate 1x1 case: ranks may differ (a scalar into a
		// one-cell vector).
		cur.SetFlat(cur.Offset(), rm.AtFlat(rm.Offset()))
		return nil
	}
	if !cur.SameShape(rm) {
		return &RegionShapeError{Rule: rule, Binding: binding, Region: dslDims(cur), Value: dslDims(rm)}
	}
	cur.CopyFrom(rm)
	return nil
}

// callTransform re-enters the engine for a transform call in a rule
// body: args are the input matrices in from-decl order, the result is
// the callee's single output — dest itself when the callee could write
// the caller's region in place (see newExec), else a matrix the caller
// of callTransform now owns. w is the scheduler thread of the calling
// body.
func (ex *exec) callTransform(name string, args []value, dest *matrix.Matrix, w *runtime.Worker) (value, error) {
	sub, ok := ex.engine.transform(name)
	if !ok {
		return value{}, fmt.Errorf("interp: unknown function or transform %q", name)
	}
	if len(args) != sub.nIn {
		return value{}, fmt.Errorf("interp: %s takes %d inputs, got %d", name, sub.nIn, len(args))
	}
	if sub.nOut != 1 {
		return value{}, fmt.Errorf("interp: transform %s has %d outputs; only single-output transforms may appear in expressions", name, sub.nOut)
	}
	var buf [4]*matrix.Matrix
	ins := buf[:0]
	for i, a := range args {
		m, err := a.mat()
		if err != nil {
			return value{}, fmt.Errorf("interp: %s input %s: %w", name, sub.decls[i].Name, err)
		}
		ins = append(ins, m)
	}
	call, err := ex.engine.run(sub, ins, ex, dest, w)
	if err != nil {
		return value{}, err
	}
	out := call.outputs()[0]
	call.release()
	return matval(out), nil
}

// builtins are the body-level intrinsic functions.
var builtins = map[string]func(name string, args []value) (value, error){
	"sum":   reduceBuiltin(func(acc, v float64) float64 { return acc + v }, 0),
	"min":   varargBuiltin(math.Min),
	"max":   varargBuiltin(math.Max),
	"abs":   unaryBuiltin(math.Abs),
	"sqrt":  unaryBuiltin(math.Sqrt),
	"floor": unaryBuiltin(math.Floor),
	"ceil":  unaryBuiltin(math.Ceil),
	"pow": func(name string, args []value) (value, error) {
		if len(args) != 2 {
			return value{}, fmt.Errorf("interp: pow takes 2 arguments")
		}
		a, err := args[0].num()
		if err != nil {
			return value{}, err
		}
		b, err := args[1].num()
		if err != nil {
			return value{}, err
		}
		return scalar(math.Pow(a, b)), nil
	},
	"dot": func(name string, args []value) (value, error) {
		if len(args) != 2 {
			return value{}, fmt.Errorf("interp: dot takes 2 arguments")
		}
		a, err := args[0].mat()
		if err != nil {
			return value{}, err
		}
		b, err := args[1].mat()
		if err != nil {
			return value{}, err
		}
		if a.Dims() != 1 || b.Dims() != 1 || a.Size(0) != b.Size(0) {
			return value{}, fmt.Errorf("interp: dot needs equal-length vectors")
		}
		s := 0.0
		for i := 0; i < a.Size(0); i++ {
			s += a.At1(i) * b.At1(i)
		}
		return scalar(s), nil
	},
	"copy": func(name string, args []value) (value, error) {
		if len(args) != 1 {
			return value{}, fmt.Errorf("interp: copy takes 1 argument")
		}
		m, err := args[0].mat()
		if err != nil {
			return value{}, err
		}
		return matval(m.Copy()), nil
	},
}

func reduceBuiltin(f func(acc, v float64) float64, init float64) func(string, []value) (value, error) {
	return func(name string, args []value) (value, error) {
		if len(args) != 1 {
			return value{}, fmt.Errorf("interp: %s takes 1 argument", name)
		}
		m, err := args[0].mat()
		if err != nil {
			return value{}, err
		}
		acc := init
		m.Walk(func(_ []int, v float64) { acc = f(acc, v) })
		return scalar(acc), nil
	}
}

func unaryBuiltin(f func(float64) float64) func(string, []value) (value, error) {
	return func(name string, args []value) (value, error) {
		if len(args) != 1 {
			return value{}, fmt.Errorf("interp: %s takes 1 argument", name)
		}
		v, err := args[0].num()
		if err != nil {
			return value{}, err
		}
		return scalar(f(v)), nil
	}
}

func varargBuiltin(f func(a, b float64) float64) func(string, []value) (value, error) {
	return func(name string, args []value) (value, error) {
		if len(args) == 0 {
			return value{}, fmt.Errorf("interp: %s needs arguments", name)
		}
		acc, err := args[0].num()
		if err != nil {
			return value{}, err
		}
		for _, a := range args[1:] {
			v, err := a.num()
			if err != nil {
				return value{}, err
			}
			acc = f(acc, v)
		}
		return scalar(acc), nil
	}
}

// runMacro executes a macro rule once over its declared regions: on the
// vm when it lowered (a macro rule has no center, so one RunCell runs
// it), else on the AST.
func (ex *exec) runMacro(ri *analysis.RuleInfo) error {
	if r := ex.vmRule(ri); r != nil {
		// Recursion is safe: this frame stays checked out while its
		// calls acquire their own.
		f := r.acquireFrame(ex)
		defer r.releaseFrame(f)
		return f.RunCell(nil)
	}
	return ex.runRuleBody(ri, nil, ex.worker)
}
