package analysis

import (
	"fmt"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/symbolic"
)

// Node is a choice-dependency-graph node: an input matrix or one choice
// grid cell of an output/intermediate matrix.
type Node struct {
	ID     int
	Matrix string
	Region symbolic.Region
	Input  bool
	Cell   *GridCell // nil for inputs
}

// Label renders the node like the paper's Figure 4 ("B.region(1, n)").
func (n *Node) Label() string {
	args := ""
	for d, iv := range n.Region {
		if d > 0 {
			args += ", "
		}
		args += fmt.Sprintf("%s, %s", iv.Begin, iv.End)
	}
	return fmt.Sprintf("%s.region(%s)", n.Matrix, args)
}

// Annot annotates one edge with a rule and its per-dimension direction
// and offset, e.g. (r1, =, -1).
type Annot struct {
	Rule   *RuleInfo
	Dir    []Direction
	Offset []*symbolic.Expr // entries non-nil only for DirEq
}

func (a Annot) String() string {
	s := fmt.Sprintf("(r%d", a.Rule.Rule.Index)
	for d := range a.Dir {
		s += "," + a.Dir[d].String()
		if a.Dir[d] == DirEq && a.Offset[d] != nil {
			if v, ok := a.Offset[d].IsConst(); ok && !v.IsZero() {
				s += "," + v.String()
			}
		}
	}
	return s + ")"
}

// Edge is a data-flow edge from producer to consumer ("arrows point the
// opposite direction of dependency — the direction data flows").
type Edge struct {
	From, To *Node
	Annots   []Annot
}

// Graph is the choice dependency graph (§3.1), the artifact "encoded in
// the output program for use by the autotuner and parallel runtime".
type Graph struct {
	Nodes []*Node
	Edges []*Edge
}

func (g *Graph) edgeBetween(from, to *Node) *Edge {
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			return e
		}
	}
	e := &Edge{From: from, To: to}
	g.Edges = append(g.Edges, e)
	return e
}

func (res *Result) buildGraph() error {
	g := &Graph{}
	nodesOf := map[string][]*Node{}
	addNode := func(n *Node) {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		nodesOf[n.Matrix] = append(nodesOf[n.Matrix], n)
	}
	for _, name := range res.Order {
		mi := res.Matrices[name]
		if mi.Role == ast.RoleFrom {
			addNode(&Node{Matrix: name, Region: mi.Domain, Input: true})
			continue
		}
		for _, gc := range res.Grids[name].Cells {
			addNode(&Node{Matrix: name, Region: gc.Region, Cell: gc})
		}
	}
	// Edges from each rule application site.
	for _, name := range res.Order {
		mi := res.Matrices[name]
		if mi.Role == ast.RoleFrom {
			continue
		}
		grid := res.Grids[name]
		for _, gc := range grid.Cells {
			consumer := findNode(nodesOf[name], gc)
			for _, ri := range gc.Rules {
				res.addDepEdges(g, nodesOf, consumer, ri, gc.Region)
			}
			for _, ri := range grid.Macro {
				res.addDepEdges(g, nodesOf, consumer, ri, gc.Region)
			}
		}
	}
	res.Graph = g
	return nil
}

func findNode(nodes []*Node, gc *GridCell) *Node {
	for _, n := range nodes {
		if n.Cell == gc {
			return n
		}
	}
	return nil
}

// addDepEdges adds producer→consumer edges for every dependency of ri
// applied over centers in region.
func (res *Result) addDepEdges(g *Graph, nodesOf map[string][]*Node, consumer *Node, ri *RuleInfo, region symbolic.Region) {
	// The first and last center of region, to bound each dependency over
	// all centers; the same for every dependency of the rule.
	var lo, hi map[string]*symbolic.Expr
	if ri.Kind == RuleCell && len(ri.Deps) > 0 {
		lo = make(map[string]*symbolic.Expr, len(ri.CenterVars))
		hi = make(map[string]*symbolic.Expr, len(ri.CenterVars))
		for d, v := range ri.CenterVars {
			if v == "" || d >= len(region) {
				continue
			}
			lo[v] = region[d].Begin
			hi[v] = symbolic.Sub(region[d].End, symbolic.Const(1))
		}
	}
	for _, dep := range ri.Deps {
		// Bounding region of the dependency over all centers in region.
		depReg := dep.Region
		if ri.Kind == RuleCell {
			depReg = boundingBox(depReg.Substitute(lo), depReg.Substitute(hi))
		}
		for _, prod := range nodesOf[dep.Matrix] {
			// A dependency on the consumer's own node stays, as a self-edge.
			if !overlapsUnder(depReg, prod.Region, res.Assume) {
				continue
			}
			e := g.edgeBetween(prod, consumer)
			e.Annots = append(e.Annots, Annot{Rule: ri, Dir: dep.Dir, Offset: dep.Offset})
		}
	}
}

// overlapsUnder reports whether the regions may overlap (i.e. are not
// provably disjoint in some dimension).
func overlapsUnder(a, b symbolic.Region, assume symbolic.Assumptions) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if symbolic.ProvablyLE(a[d].End, b[d].Begin, assume) ||
			symbolic.ProvablyLE(b[d].End, a[d].Begin, assume) {
			return false
		}
		if a[d].ProvablyEmpty(assume) || b[d].ProvablyEmpty(assume) {
			return false
		}
	}
	return true
}

// --- Scheduling (SCC condensation + deadlock detection, §3.1/§3.6) ------

// Step is one entry of the static schedule: a group of nodes (one SCC)
// and, when the group carries cyclic dependencies, the axis and
// direction to iterate so the cycle is resolved.
type Step struct {
	Nodes []*Node
	// IterDim is the dimension to iterate when Cyclic; IterDir is +1
	// (ascending) or -1 (descending).
	Cyclic  bool
	IterDim int
	IterDir int
	// Lex, when non-nil, replaces the single-axis wavefront with a full
	// lexicographic iteration order: dimensions in the given order with
	// the given directions, under which every internal dependency is
	// lexicographically backward (e.g. the 2-D prefix-sum recurrence
	// B[i,j] = f(B[i-1,j], B[i,j-1]) iterated row-major).
	Lex []LexDim
}

// LexDim is one dimension of a lexicographic iteration order.
type LexDim struct {
	Dim int
	Dir int // +1 ascending, -1 descending
}

// First is the first coordinate a walk along d visits in box b (one
// [lo,hi) interval per dimension), and Last the last.
func (d LexDim) First(b [][2]int64) int64 {
	if d.Dir < 0 {
		return b[d.Dim][1] - 1
	}
	return b[d.Dim][0]
}

func (d LexDim) Last(b [][2]int64) int64 {
	if d.Dir < 0 {
		return b[d.Dim][0]
	}
	return b[d.Dim][1] - 1
}

// DeadlockError reports a dependency cycle no iteration order resolves —
// the compile-time manifestation of a deadlock (§3.6: "Potential
// deadlocks manifest themselves as a cycle in the graph").
type DeadlockError struct {
	Nodes []*Node
}

func (e *DeadlockError) Error() string {
	s := "deadlock: dependency cycle with no valid iteration direction:"
	for _, n := range e.Nodes {
		s += " " + n.Label()
	}
	return s
}

func (res *Result) buildSchedule() error {
	g := res.Graph
	sccs := tarjan(g)
	// tarjan emits SCCs in reverse topological order; reverse for a
	// producers-first schedule.
	for i, j := 0, len(sccs)-1; i < j; i, j = i+1, j-1 {
		sccs[i], sccs[j] = sccs[j], sccs[i]
	}
	for _, comp := range sccs {
		// Skip pure-input components.
		allInput := true
		for _, n := range comp {
			if !n.Input {
				allInput = false
			}
		}
		if allInput {
			continue
		}
		step := &Step{Nodes: comp}
		inComp := map[*Node]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		// Internal edges (including self-edges) force an iteration order.
		var internal []*Edge
		for _, e := range g.Edges {
			if inComp[e.From] && inComp[e.To] {
				internal = append(internal, e)
			}
		}
		if len(internal) > 0 {
			dim, dir, order, ok := res.cycleDirection(comp, internal)
			if ok {
				step.Cyclic = true
				step.IterDim = dim
				step.IterDir = dir
				step.Nodes = order
			} else if lex, lexOK := res.lexDirection(comp, internal); lexOK {
				step.Cyclic = true
				step.Lex = lex
				step.IterDim = lex[0].Dim
				step.IterDir = lex[0].Dir
			} else {
				return &DeadlockError{Nodes: comp}
			}
		}
		res.Schedule = append(res.Schedule, step)
	}
	res.buildStepEdges()
	return nil
}

// buildStepEdges condenses Graph.Edges to schedule-step granularity:
// one (producer, consumer) index pair per pair of distinct steps with a
// data-flow edge between them. Input nodes belong to no step and
// impose no ordering.
func (res *Result) buildStepEdges() {
	stepOf := map[*Node]int{}
	for si, st := range res.Schedule {
		for _, n := range st.Nodes {
			stepOf[n] = si
		}
	}
	seen := map[[2]int]bool{}
	for _, e := range res.Graph.Edges {
		from, okF := stepOf[e.From]
		to, okT := stepOf[e.To]
		if !okF || !okT || from == to {
			continue
		}
		p := [2]int{from, to}
		if seen[p] {
			continue
		}
		seen[p] = true
		res.StepEdges = append(res.StepEdges, p)
	}
}

// ConstOffsets evaluates the annotation's per-dimension offsets under
// the given size bindings. It succeeds only when the annotation has
// exactly nd dimensions, every dimension is DirEq, and every offset
// expression folds to an integer — the shape the plan tiler can map to
// a fixed footprint. Inexact or directional dependencies return
// ok=false and the caller must fall back to a coarser ordering.
func (a Annot) ConstOffsets(nd int, sizes map[string]int64) ([]int64, bool) {
	if len(a.Dir) != nd || len(a.Offset) != nd {
		return nil, false
	}
	out := make([]int64, nd)
	for d := 0; d < nd; d++ {
		if a.Dir[d] != DirEq || a.Offset[d] == nil {
			return nil, false
		}
		v, err := a.Offset[d].Eval(sizes)
		if err != nil {
			return nil, false
		}
		out[d] = v
	}
	return out, true
}

// cycleDirection finds an axis and direction along which every internal
// dependency points backwards or sideways, i.e. "the union of the
// directions along the cycle points in towards a single hyper-quadrant".
// Zero-offset edges between distinct nodes are allowed provided the
// nodes admit a topological order at equal index (the returned order);
// a zero-offset self edge, or a zero-offset cycle among distinct nodes,
// is a genuine deadlock.
func (res *Result) cycleDirection(comp []*Node, internal []*Edge) (dim, dir int, order []*Node, ok bool) {
	nd := 0
	for _, e := range internal {
		for _, a := range e.Annots {
			if len(a.Dir) > nd {
				nd = len(a.Dir)
			}
		}
	}
	try := func(d, wantDir int) ([]*Node, bool) {
		var zeroEdges []*Edge
		for _, e := range internal {
			for _, a := range e.Annots {
				if d >= len(a.Dir) {
					return nil, false
				}
				switch a.Dir[d] {
				case DirLT:
					if wantDir < 0 {
						return nil, false
					}
				case DirGT:
					if wantDir > 0 {
						return nil, false
					}
				case DirLE:
					// Includes the center: like a zero-offset edge plus
					// strictly-backward reads.
					if wantDir < 0 || e.From == e.To {
						return nil, false
					}
					zeroEdges = append(zeroEdges, e)
				case DirGE:
					if wantDir > 0 || e.From == e.To {
						return nil, false
					}
					zeroEdges = append(zeroEdges, e)
				case DirEq:
					sign := 0
					known := false
					if a.Offset[d] != nil {
						if v, isC := a.Offset[d].IsConst(); isC {
							sign = v.Sign()
							known = true
						}
					}
					switch {
					case !known:
						return nil, false
					case sign == 0:
						if e.From == e.To {
							return nil, false // cell depends on itself
						}
						zeroEdges = append(zeroEdges, e)
					case sign < 0 && wantDir < 0:
						return nil, false
					case sign > 0 && wantDir > 0:
						return nil, false
					}
				default: // DirAny
					return nil, false
				}
			}
		}
		return topoAtIndex(comp, zeroEdges)
	}
	for d := 0; d < nd; d++ {
		if ord, fine := try(d, +1); fine {
			return d, +1, ord, true
		}
		if ord, fine := try(d, -1); fine {
			return d, -1, ord, true
		}
	}
	return 0, 0, nil, false
}

// topoAtIndex orders the component's nodes so every zero-offset edge
// goes from an earlier to a later node (Kahn's algorithm); failure means
// a zero-offset cycle, i.e. a deadlock.
func topoAtIndex(comp []*Node, zeroEdges []*Edge) ([]*Node, bool) {
	indeg := map[*Node]int{}
	for _, n := range comp {
		indeg[n] = 0
	}
	for _, e := range zeroEdges {
		indeg[e.To]++
	}
	var order []*Node
	queue := []*Node{}
	for _, n := range comp {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range zeroEdges {
			if e.From == n {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	if len(order) != len(comp) {
		return nil, false
	}
	return order, true
}

// tarjan computes strongly connected components in reverse topological
// order.
func tarjan(g *Graph) [][]*Node {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []*Node
	next := 0
	var out [][]*Node
	succ := make([][]*Node, n)
	for _, e := range g.Edges {
		if e.From != e.To {
			succ[e.From.ID] = append(succ[e.From.ID], e.To)
		}
	}
	var strong func(v *Node)
	strong = func(v *Node) {
		index[v.ID] = next
		low[v.ID] = next
		next++
		stack = append(stack, v)
		onStack[v.ID] = true
		for _, w := range succ[v.ID] {
			if index[w.ID] < 0 {
				strong(w)
				if low[w.ID] < low[v.ID] {
					low[v.ID] = low[w.ID]
				}
			} else if onStack[w.ID] && index[w.ID] < low[v.ID] {
				low[v.ID] = index[w.ID]
			}
		}
		if low[v.ID] == index[v.ID] {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w.ID] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, v := range g.Nodes {
		if index[v.ID] < 0 {
			strong(v)
		}
	}
	return out
}

// lexDirection searches for a lexicographic iteration order resolving a
// cycle whose single-axis wavefront fails — the 2-D recurrence pattern
// B[i,j] = f(B[i-1,j], B[i,j-1]). It only handles self-edges on a single
// node whose annotations are all exact constant offsets; every offset
// vector must be lexicographically negative under some permutation of
// dimensions and directions, which we find by exhaustive search (the
// dimensionality is tiny).
func (res *Result) lexDirection(comp []*Node, internal []*Edge) ([]LexDim, bool) {
	if len(comp) != 1 {
		return nil, false
	}
	node := comp[0]
	nd := len(node.Region)
	var offsets [][]int64
	for _, e := range internal {
		if e.From != e.To {
			return nil, false
		}
		for _, a := range e.Annots {
			if len(a.Dir) != nd {
				return nil, false
			}
			vec := make([]int64, nd)
			zero := true
			for d := 0; d < nd; d++ {
				if a.Dir[d] != DirEq || a.Offset[d] == nil {
					return nil, false
				}
				v, ok := a.Offset[d].IsConst()
				if !ok || !v.IsInt() {
					return nil, false
				}
				vec[d] = v.Int()
				if vec[d] != 0 {
					zero = false
				}
			}
			if zero {
				return nil, false // genuine self-dependency
			}
			offsets = append(offsets, vec)
		}
	}
	// Enumerate dimension permutations × direction signs.
	perm := make([]int, nd)
	for i := range perm {
		perm[i] = i
	}
	lexNegative := func(order []int, signs []int, vec []int64) bool {
		for i, d := range order {
			v := vec[d] * int64(signs[i])
			if v < 0 {
				return true
			}
			if v > 0 {
				return false
			}
		}
		return false // zero vector (excluded above) or all-equal
	}
	var permute func(k int) []LexDim
	permute = func(k int) []LexDim {
		if k == nd {
			// Try every sign assignment for this order.
			for mask := 0; mask < 1<<nd; mask++ {
				signs := make([]int, nd)
				for i := 0; i < nd; i++ {
					signs[i] = 1
					if mask>>i&1 == 1 {
						signs[i] = -1
					}
				}
				ok := true
				for _, vec := range offsets {
					if !lexNegative(perm, signs, vec) {
						ok = false
						break
					}
				}
				if ok {
					out := make([]LexDim, nd)
					for i := 0; i < nd; i++ {
						out[i] = LexDim{Dim: perm[i], Dir: signs[i]}
					}
					return out
				}
			}
			return nil
		}
		for i := k; i < nd; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if out := permute(k + 1); out != nil {
				perm[k], perm[i] = perm[i], perm[k]
				return out
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if out := permute(0); out != nil {
		return out, true
	}
	return nil, false
}
