package jit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"petabricks/internal/matrix"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/parser"
)

// boxPair runs one program two ways over identical fresh matrices: one
// frame through RunBox, the other through a RunCell loop visiting the
// same centers in the same order. Frames persist across boxes, so every
// box also checks that a reused frame carries nothing over.
type boxPair struct {
	box, cell      *Frame
	boxMat, cellMt map[string]*matrix.Matrix
}

// newBoxPair binds ref i of both frames to mk()[p.Refs[i].Matrix]; mk
// must build the same matrices on every call.
func newBoxPair(p *Program, mk func() map[string]*matrix.Matrix) *boxPair {
	bp := &boxPair{box: p.NewFrame(), cell: p.NewFrame(), boxMat: mk(), cellMt: mk()}
	for i := range p.Refs {
		bp.box.BindMatrix(i, bp.boxMat[p.Refs[i].Matrix])
		bp.cell.BindMatrix(i, bp.cellMt[p.Refs[i].Matrix])
	}
	return bp
}

// outcome is what one side of a box produced: the error (or panic) text
// and the center it stopped at.
type outcome struct {
	err string
	at  string
}

func capture(center []int64, run func() error) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Sprintf("panic: %v", r)
		}
		o.at = fmt.Sprint(center)
	}()
	if err := run(); err != nil {
		o.err = err.Error()
	}
	return o
}

// cellLoop calls visit at every center of b in order (innermost first),
// the outermost dimension's loop written out first: the reference walk
// RunBox must reproduce.
func cellLoop(center []int64, b [][2]int64, order []analysis.LexDim, visit func() error) error {
	if len(order) == 0 {
		return visit()
	}
	o := order[len(order)-1]
	lo, hi := b[o.Dim][0], b[o.Dim][1]
	for i := int64(0); i < hi-lo; i++ {
		center[o.Dim] = lo + i
		if o.Dir < 0 {
			center[o.Dim] = hi - 1 - i
		}
		if err := cellLoop(center, b, order[:len(order)-1], visit); err != nil {
			return err
		}
	}
	return nil
}

// check runs the box on both sides and fails on any difference in
// error, stopping cell, or any bit of any matrix.
func (bp *boxPair) check(t *testing.T, label string, center []int64, b [][2]int64, order []analysis.LexDim) {
	t.Helper()
	bc := append([]int64(nil), center...)
	cc := append([]int64(nil), center...)
	got := capture(bc, func() error { return bp.box.RunBox(bc, b, order) })
	want := capture(cc, func() error {
		for _, iv := range b {
			if iv[1] <= iv[0] {
				return nil
			}
		}
		return cellLoop(cc, b, order, func() error { return bp.cell.RunCell(cc) })
	})
	bp.same(t, fmt.Sprintf("%s: RunBox(%v, %v, %v)", label, center, b, order), got, want, "RunCell loop")
}

// checkCell runs RunCell at center on both frames and fails on any
// difference: whatever box a frame ran last, it runs that one cell.
func (bp *boxPair) checkCell(t *testing.T, label string, center []int64) {
	t.Helper()
	bc := append([]int64(nil), center...)
	cc := append([]int64(nil), center...)
	got := capture(bc, func() error { return bp.box.RunCell(bc) })
	want := capture(cc, func() error { return bp.cell.RunCell(cc) })
	bp.same(t, fmt.Sprintf("%s: RunCell(%v) on the RunBox frame", label, center), got, want, "on the RunCell frame")
}

// same fails unless both outcomes and every bit of every matrix of the
// two sides agree.
func (bp *boxPair) same(t *testing.T, what string, got, want outcome, other string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %+v, %s = %+v", what, got, other, want)
	}
	for name, m := range bp.boxMat {
		x, y := m.Backing(), bp.cellMt[name].Backing()
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s backing[%d] = %v, %s wrote %v", what, name, i, x[i], other, y[i])
			}
		}
	}
}

// orders lists every walk order of a rank-n box: each permutation of its
// dimensions with each choice of directions.
func orders(n int) [][]analysis.LexDim {
	var out [][]analysis.LexDim
	var perm func(o []analysis.LexDim, used int)
	perm = func(o []analysis.LexDim, used int) {
		if len(o) == n {
			for mask := 0; mask < 1<<n; mask++ {
				w := append([]analysis.LexDim(nil), o...)
				for j := range w {
					if mask>>j&1 == 1 {
						w[j].Dir = -1
					}
				}
				out = append(out, w)
			}
			return
		}
		for d := 0; d < n; d++ {
			if used>>d&1 == 0 {
				perm(append(o, analysis.LexDim{Dim: d, Dir: 1}), used|1<<d)
			}
		}
	}
	perm(nil, 0)
	return out
}

func vec(vals ...float64) func() map[string]*matrix.Matrix {
	return func() map[string]*matrix.Matrix {
		return map[string]*matrix.Matrix{
			"S": matrix.FromSlice(append([]float64(nil), vals...)),
			"D": matrix.FromSlice(make([]float64, len(vals))),
		}
	}
}

// cellRef is a RefCell on matrix m at Base + Coeff·center.
func cellRef(m string, base, coeff []int64) Ref {
	return Ref{Matrix: m, Binding: m, ND: len(base), Base: base, Coeff: coeff}
}

// TestRunBoxEdges compares RunBox with a RunCell loop on hand-built refs
// at the edges of the box fast path: misses and view errors mid-box,
// every order and direction of rank-1, -2 and -3 boxes, extent-1
// dimensions, a box that misses at a corner but binds row by row, views
// whose extent varies along one dimension, a division error mid-box, a
// body that assigns its center variable, its row's or the outer one,
// one frame reused across boxes, and a frame reused after a row that
// fails mid-row.
func TestRunBoxEdges(t *testing.T) {
	// d = s[i+2]: the read misses from i = 4 on (size 6).
	readMiss := &Program{
		Name: "test/readmiss", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{2}, []int64{1})},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = i: s[i+2] is bound but never read, so its miss is no error.
	unreadMiss := &Program{
		Name: "test/unreadmiss", NCenter: 1, CenterReg: []int32{0}, RegInit: []float64{0},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{2}, []int64{1})},
		Code: []Instr{{OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = sum(S.region(i, i+3)): the window leaves the matrix at i = 4.
	viewMiss := &Program{
		Name: "test/viewmiss", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("D", []int64{0}, []int64{1}),
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{0}, Coeff: []int64{1},
				HiBase: []int64{3}, HiCoeff: []int64{1}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = sum(S.region(0, i+1)): the extent grows along the box.
	prefix := &Program{
		Name: "test/prefix", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("D", []int64{0}, []int64{1}),
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{0},
				HiBase: []int64{1}, HiCoeff: []int64{1}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = i; i = 99: a body that assigns its center variable.
	clobber := &Program{
		Name: "test/clobber", NCenter: 1, CenterReg: []int32{0}, RegInit: []float64{0, 99},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1})},
		Code: []Instr{{OpStore, 0, 0, 0}, {OpMov, 0, 1, 0}, {Op: OpHalt}},
	}
	// d = sum(S.region(i-2, i+1)): a window that leaves the matrix below
	// 0 at the start of an ascending box and the end of a descending one.
	lagView := &Program{
		Name: "test/lagview", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("D", []int64{0}, []int64{1}),
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{-2}, Coeff: []int64{1},
				HiBase: []int64{1}, HiCoeff: []int64{1}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = 1 / (s[i] - 4): division by zero where s holds 4.
	divide := &Program{
		Name: "test/divide", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0, 1, 4},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{1})},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpSub, 0, 0, 2}, {OpDiv, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	data := vec(1, 2, 3, 4, 5, 6)
	for _, p := range []*Program{readMiss, unreadMiss, viewMiss, prefix, lagView, clobber, divide} {
		for _, o := range orders(1) {
			bp := newBoxPair(p, data)
			label := fmt.Sprintf("%s %v", p.Name, o)
			for _, r := range [][2]int64{{0, 6}, {0, 4}, {0, 3}, {3, 6}, {2, 2}, {5, 2}, {3, 4}, {0, 1}, {5, 6}, {-1, 3}, {1, 5}} {
				bp.check(t, label, []int64{0}, [][2]int64{r}, o)
			}
		}
	}

	// A row that fails mid-row, in either direction, by a panic or by an
	// error, must leave nothing of the row on the frame: RunCell then
	// writes exactly its one cell, and the next box runs as the RunCell
	// loop does.
	// d = w.cell(X[i]) over w = S.region(0, 6): X holds one index out of
	// range, at i = 3.
	loadAt := &Program{
		Name: "test/loadat", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("D", []int64{0}, []int64{1}),
			cellRef("X", []int64{0}, []int64{1}),
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{0}, HiBase: []int64{6}},
		},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpLoadAt, 0, 2, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	withX := func() map[string]*matrix.Matrix {
		m := data()
		m["X"] = matrix.FromSlice([]float64{0, 1, 2, 9, 1, 0})
		return m
	}
	for _, p := range []*Program{loadAt, divide} {
		for _, o := range orders(1) {
			bp := newBoxPair(p, withX)
			label := fmt.Sprintf("%s %v", p.Name, o)
			for _, c := range []int64{1, 4} {
				bp.check(t, label+" failing row", []int64{0}, [][2]int64{{0, 6}}, o)
				d := bp.boxMat["D"].Backing()
				clear(d)
				center := []int64{c}
				if got := capture(center, func() error { return bp.box.RunCell(center) }); got.err != "" {
					t.Fatalf("%s: RunCell(%d) after a failed row: %s", label, c, got.err)
				}
				for i, v := range d {
					if (v != 0) != (int64(i) == c) {
						t.Fatalf("%s: RunCell(%d) after a failed row left D = %v, want D[%d] alone written", label, c, d, c)
					}
				}
				copy(bp.cellMt["D"].Backing(), d)
				bp.check(t, label+" next box", []int64{0}, [][2]int64{{0, 3}}, o)
			}
		}
	}

	// A 2-D frame reused across boxes of every shape and order:
	// C[x,y] = A.row(y) · B.column(x) on 3×3 inputs (B transposed, so
	// strided), plus a cell ref A[x+y, y] that misses at the far corner
	// of the full box but binds on most of its rows.
	matmul := &Program{
		Name: "test/matmul", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0, 0},
		Refs: []Ref{
			cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "A", Binding: "a", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{0, 0}, Coeff: []int64{0, 0, 0, 1},
				HiBase: []int64{3, 1}, HiCoeff: []int64{0, 0, 0, 1}},
			{Matrix: "B", Binding: "b", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{0, 0}, Coeff: []int64{1, 0, 0, 0},
				HiBase: []int64{1, 3}, HiCoeff: []int64{1, 0, 0, 0}},
			cellRef("A", []int64{0, 0}, []int64{1, 1, 0, 1}),
		},
		Code: []Instr{{OpDotV, 0, 1, 2}, {OpLoad, 1, 3, 0}, {OpAdd, 0, 0, 1}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// C[x,y] = sum(A.region(x, 0, x+y+1, 1)) + y, y reassigned: a view
	// whose extent varies along y only, and a clobbered center variable.
	wedge := &Program{
		Name: "test/wedge", NCenter: 2, CenterReg: []int32{-1, 2}, RegInit: []float64{0, 0, 0, 7},
		Refs: []Ref{
			cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "A", Binding: "w", ND: 2, Kind: RefView,
				Base: []int64{0, 0}, Coeff: []int64{1, 0, 0, 0},
				HiBase: []int64{1, 1}, HiCoeff: []int64{1, 1, 0, 0}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpAdd, 0, 0, 2}, {OpStore, 0, 0, 0}, {OpMov, 2, 3, 0}, {Op: OpHalt}},
	}
	// C[x,y] = A[x,y] + x + y; y = 99: a box that binds everywhere and a
	// body that writes a center register, the outer one when x is the
	// row.
	outer := &Program{
		Name: "test/outer", NCenter: 2, CenterReg: []int32{0, 1}, RegInit: []float64{0, 0, 0, 99},
		Refs: []Ref{cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}), cellRef("A", []int64{0, 0}, []int64{1, 0, 0, 1})},
		Code: []Instr{{OpLoad, 2, 1, 0}, {OpAdd, 2, 2, 0}, {OpAdd, 2, 2, 1}, {OpStore, 0, 2, 0}, {OpMov, 1, 3, 0}, {Op: OpHalt}},
	}
	// C[x,y] = 1 / (A[x,y] - 4.5): one zero divisor mid-box.
	divide2 := &Program{
		Name: "test/divide2", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0, 1, 4.5},
		Refs: []Ref{cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}), cellRef("A", []int64{0, 0}, []int64{1, 0, 0, 1})},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpSub, 0, 0, 2}, {OpDiv, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	mats := func() map[string]*matrix.Matrix {
		a, b, c := matrix.New(3, 3), matrix.New(3, 3), matrix.New(3, 3)
		for i := range a.Backing() {
			a.Backing()[i] = float64(i) + 0.5
			b.Backing()[i] = float64(2*i) - 3.25
		}
		return map[string]*matrix.Matrix{"A": a, "B": b.Transposed(), "C": c}
	}
	boxes := [][][2]int64{
		{{0, 3}, {0, 3}}, {{-1, 4}, {-1, 4}}, {{0, 2}, {0, 3}}, {{1, 3}, {0, 2}},
		{{0, 3}, {1, 2}}, {{2, 3}, {0, 3}}, {{1, 2}, {2, 3}}, {{0, 3}, {2, 2}},
		{{-1, 1}, {0, 3}}, {{0, 3}, {2, 4}},
	}
	for _, p := range []*Program{matmul, wedge, outer, divide2} {
		bp := newBoxPair(p, mats)
		for _, o := range orders(2) {
			for _, b := range boxes {
				bp.check(t, p.Name, []int64{5, 5}, b, o)
			}
		}
		// Rebinding to transposed views changes every stride, so a frame
		// must not keep the carries it worked out for the same box shape
		// just before.
		transposed := func() map[string]*matrix.Matrix {
			m := mats()
			for name, v := range m {
				m[name] = v.Transposed()
			}
			return m
		}
		for _, o := range orders(2) {
			bp.check(t, p.Name, []int64{5, 5}, boxes[0], o)
			bp.boxMat, bp.cellMt = transposed(), transposed()
			for i := range p.Refs {
				bp.box.BindMatrix(i, bp.boxMat[p.Refs[i].Matrix])
				bp.cell.BindMatrix(i, bp.cellMt[p.Refs[i].Matrix])
			}
			bp.check(t, p.Name+" rebound", []int64{5, 5}, boxes[0], o)
		}
	}

	// Rank 3: D[x,y,z] = S[x+1,y,z-1] + z, with S 3×2×4 and D 2×3×4 (DSL
	// order), so the read misses on two faces of the larger boxes.
	cube := &Program{
		Name: "test/cube", NCenter: 3, CenterReg: []int32{-1, -1, 1}, RegInit: []float64{0, 0},
		Refs: []Ref{
			cellRef("D", []int64{0, 0, 0}, []int64{1, 0, 0, 0, 1, 0, 0, 0, 1}),
			cellRef("S", []int64{1, 0, -1}, []int64{1, 0, 0, 0, 1, 0, 0, 0, 1}),
		},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpAdd, 0, 0, 1}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	cubeMats := func() map[string]*matrix.Matrix {
		s, d := matrix.New(4, 2, 3), matrix.New(4, 3, 2)
		for i := range s.Backing() {
			s.Backing()[i] = float64(i)*1.5 - 7
		}
		return map[string]*matrix.Matrix{"S": s, "D": d}
	}
	bp := newBoxPair(cube, cubeMats)
	for _, o := range orders(3) {
		for _, b := range [][][2]int64{
			{{0, 2}, {0, 3}, {0, 4}}, {{0, 2}, {0, 2}, {1, 4}}, {{0, 1}, {0, 2}, {1, 4}},
			{{0, 2}, {1, 2}, {1, 3}}, {{1, 2}, {0, 1}, {2, 3}}, {{0, 2}, {0, 3}, {4, 4}},
		} {
			bp.check(t, cube.Name, []int64{0, 0, 0}, b, o)
		}
	}
}

// TestRunBoxCorpus compares RunBox with a RunCell loop on every lowered
// rule of the example corpus: whole boxes starting and ending one cell
// outside the matrices, boxes inside them, and rows along every
// dimension, each in every order and direction.
func TestRunBoxCorpus(t *testing.T) {
	corpus := []struct {
		src   string
		sizes map[string]int64
	}{
		{parser.RollingSumSrc, map[string]int64{"n": 7}},
		{parser.MatrixMultiplySrc, map[string]int64{"w": 3, "c": 4, "h": 5}},
		{parser.MergeSortSrc, map[string]int64{"n": 8, "a": 4, "b": 4}},
		{parser.Heat1DSrc, map[string]int64{"n": 6}},
		{parser.SummedAreaSrc, map[string]int64{"w": 4, "h": 3}},
	}
	lowered := 0
	for _, c := range corpus {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, tr := range prog.Transforms {
			if len(tr.Templates) > 0 {
				continue
			}
			res, err := analysis.Analyze(prog, tr)
			if err != nil {
				t.Fatalf("analyze %s: %v", tr.Name, err)
			}
			mk := func() map[string]*matrix.Matrix { return corpusMatrices(t, res, c.sizes) }
			for _, ri := range res.Rules {
				p, err := Compile(res, ri, c.sizes)
				if err != nil {
					continue
				}
				lowered++
				// No corpus rule writes a center register, so each of
				// their rows walks as one run call.
				if p.writesCenter() {
					t.Errorf("%s writes a center register", p.Name)
				}
				bp := newBoxPair(p, mk)
				ext := int64(0)
				for _, m := range bp.boxMat {
					for d := 0; d < m.Dims(); d++ {
						ext = max(ext, int64(m.Size(d)))
					}
				}
				nc := p.NCenter
				uniform := func(lo, hi int64) [][2]int64 {
					b := make([][2]int64, nc)
					for d := range b {
						b[d] = [2]int64{lo, hi}
					}
					return b
				}
				for _, o := range orders(nc) {
					center := make([]int64, nc)
					bp.check(t, p.Name, center, uniform(-1, ext+1), o)
					bp.check(t, p.Name, center, uniform(0, ext), o)
					bp.check(t, p.Name, center, uniform(1, ext-1), o)
					// Rows: every dimension but one pinned to one value.
					for k := 0; k < nc; k++ {
						for fixed := int64(-1); fixed <= ext; fixed++ {
							b := uniform(fixed, fixed+1)
							b[k] = [2]int64{-1, ext + 1}
							bp.check(t, p.Name, center, b, o)
							b[k] = [2]int64{0, ext}
							bp.check(t, p.Name, center, b, o)
						}
					}
				}
			}
		}
	}
	if lowered == 0 {
		t.Fatal("no corpus rule lowered")
	}
}

// corpusMatrices allocates every matrix of res at sizes, filled with
// distinct values.
func corpusMatrices(t testing.TB, res *analysis.Result, sizes map[string]int64) map[string]*matrix.Matrix {
	t.Helper()
	out := map[string]*matrix.Matrix{}
	for name, mi := range res.Matrices {
		dims := make([]int, len(mi.Dims))
		for d, e := range mi.Dims {
			v, err := e.Eval(sizes)
			if err != nil {
				t.Fatalf("%s dim %d: %v", name, d, err)
			}
			dims[len(dims)-1-d] = int(v) // DSL order → row-major
		}
		m := matrix.New(dims...)
		for i := range m.Backing() {
			m.Backing()[i] = float64(len(name)*31+i%17) * 0.75
		}
		out[name] = m
	}
	return out
}

// FuzzRunBox checks RunBox against a RunCell loop on random programs:
// one cell ref that is written, one read cell ref and one summed view
// with random affine bounds, bound to random strided views of random
// shapes, over random boxes of rank 1 to 3 in random orders. The body
// is one of three: the plain sum, the sum then a write of a center
// register, or the sum divided by a center coordinate minus a constant,
// which is zero mid-row in some boxes. After each box both frames run
// one more cell.
func FuzzRunBox(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		nc := 1 + rng.Intn(3)
		small := func() int64 { return int64(rng.Intn(5) - 2) }
		affine := func() ([]int64, []int64) {
			base := make([]int64, nd)
			coeff := make([]int64, nd*nc)
			for d := range base {
				base[d] = small()
			}
			for i := range coeff {
				coeff[i] = small() / 2
			}
			return base, coeff
		}
		refs := make([]Ref, 3)
		for i, name := range []string{"D", "S", "V"} {
			base, coeff := affine()
			refs[i] = cellRef(name, base, coeff)
		}
		v := &refs[2]
		v.Kind = RefView
		v.HiBase = make([]int64, nd)
		v.HiCoeff = append([]int64(nil), v.Coeff...)
		for d := range v.HiBase {
			v.HiBase[d] = v.Base[d] + int64(rng.Intn(4))
			if rng.Intn(4) == 0 { // extent varies along some center
				v.HiCoeff[d*nc+rng.Intn(nc)] += small()
			}
		}
		v.Collapse = nd == 2 && rng.Intn(2) == 0
		if v.Collapse {
			// Only a 2-D row or column view collapses: pin one extent
			// to 1 so the window is one.
			d := rng.Intn(2)
			v.HiBase[d] = v.Base[d] + 1
			copy(v.HiCoeff[d*nc:(d+1)*nc], v.Coeff[d*nc:(d+1)*nc])
		}
		creg := make([]int32, nc)
		for d := range creg {
			creg[d] = -1
		}
		creg[rng.Intn(nc)] = 3
		code := []Instr{{OpLoad, 0, 1, 0}, {OpSumV, 1, 2, 0}, {OpAdd, 0, 0, 1}, {OpAdd, 0, 0, 3}}
		body := rng.Intn(3)
		switch body {
		case 1: // the center register takes the sum over V
			code = append(code, Instr{OpStore, 0, 0, 0}, Instr{OpMov, 3, 1, 0})
		case 2: // d /= center - r[4]
			code = append(code, Instr{OpSub, 2, 3, 4}, Instr{OpDiv, 0, 0, 2}, Instr{OpStore, 0, 0, 0})
		default:
			code = append(code, Instr{OpStore, 0, 0, 0})
		}
		p := &Program{
			Name: "fuzz", NCenter: nc, CenterReg: creg, RegInit: []float64{0, 0, 0, 0, float64(small())},
			Refs: refs,
			Code: append(code, Instr{Op: OpHalt}),
		}
		shapes := make([][]int, 3)
		views := make([]int, 3)
		for i := range shapes {
			shapes[i] = make([]int, nd)
			for d := range shapes[i] {
				shapes[i][d] = 1 + rng.Intn(5)
			}
			views[i] = rng.Intn(3)
		}
		mk := func() map[string]*matrix.Matrix {
			out := map[string]*matrix.Matrix{}
			for i, name := range []string{"D", "S", "V"} {
				out[name] = fuzzMatrix(shapes[i], views[i], int64(i)+seed)
			}
			return out
		}
		bp := newBoxPair(p, mk)
		for r := 0; r < 8; r++ {
			center := make([]int64, nc)
			b := make([][2]int64, nc)
			order := make([]analysis.LexDim, nc)
			for d, k := range rng.Perm(nc) {
				center[d] = int64(rng.Intn(8) - 2)
				lo := int64(rng.Intn(9) - 3)
				b[d] = [2]int64{lo, lo + int64(rng.Intn(7)) - 1}
				if rng.Intn(3) == 0 {
					b[d][1] = lo + 1 // extent 1
				}
				order[d] = analysis.LexDim{Dim: k, Dir: 1 - 2*rng.Intn(2)}
			}
			label := fmt.Sprintf("seed %d body %d %+v", seed, body, refs)
			bp.check(t, label, center, b, order)
			bp.checkCell(t, label, center)
		}
	})
}

// fuzzMatrix builds a matrix of DSL shape dims, as a plain matrix
// (view 0), a strided region of a larger one (view 1), or a transposed
// one (view 2), filled with values derived from seed.
func fuzzMatrix(dims []int, view int, seed int64) *matrix.Matrix {
	rm := make([]int, len(dims)) // row-major
	for d, n := range dims {
		rm[len(dims)-1-d] = n
	}
	fill := func(m *matrix.Matrix) *matrix.Matrix {
		for i := range m.Backing() {
			m.Backing()[i] = float64((int64(i)*7+seed)%23) - 5.5
		}
		return m
	}
	switch {
	case view == 1:
		big := make([]int, len(rm))
		begin := make([]int, len(rm))
		end := make([]int, len(rm))
		for d, n := range rm {
			big[d] = n + 2
			begin[d] = 1
			end[d] = n + 1
		}
		return fill(matrix.New(big...)).Region(begin, end)
	case view == 2 && len(rm) == 2:
		return fill(matrix.New(rm[1], rm[0])).Transposed()
	}
	return fill(matrix.New(rm...))
}
