package jit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// same fails unless both outcomes, every bit of both frames' register
// files and every bit of every matrix of the two sides agree.
func (bp *boxPair) same(t *testing.T, what string, got, want outcome, other string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %+v, %s = %+v", what, got, other, want)
	}
	for r, x := range bp.box.regs {
		if y := bp.cell.regs[r]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: register %d = %v, %s left %v", what, r, x, other, y)
		}
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
// one frame reused across boxes, a frame reused after a row that fails
// mid-row, if-converted bodies against their branches on NaN, rows of
// dot products whose lengths differ, views of the stored array read by
// a dot product, one whose window grows from row to row, a row longer
// than one lane buffer, and sums over windows that grow, shrink or
// slide along the row, one of them over the row's own stored cells.
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

	// withX adds a matrix X of indices, one out of range at i = 3.
	withX := func() map[string]*matrix.Matrix {
		m := data()
		m["X"] = matrix.FromSlice([]float64{0, 1, 2, 9, 1, 0})
		return m
	}

	// Rows that run across their lanes, and rows that must not because a
	// lane could see another's cells or registers. lanes is whether the
	// row i = 1..4 of each runs across its lanes.
	// d[i] = s[i] + d[i-1]: RollingSum rule 1's read of the previous
	// cell of the row, a dependence the ascending walk carries.
	prevCell := &Program{
		Name: "test/prevcell", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0, 0, 0},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{1}), cellRef("D", []int64{-1}, []int64{1})},
		Code: []Instr{{OpLoad, 1, 1, 0}, {OpLoad, 2, 2, 0}, {OpAdd, 0, 1, 2}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// x[0] = s[i]; d[i] = x[0]: a ref that does not move along the row,
	// stored and then loaded, so each cell reads what it just stored.
	still := &Program{
		Name: "test/still", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0, 0},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{1}), cellRef("X", []int64{0}, nil)},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpStore, 2, 0, 0}, {OpLoad, 1, 2, 0}, {OpStore, 0, 1, 0}, {Op: OpHalt}},
	}
	// r1 = r1 + s[i]; d[i] = r1: a register read before it is written
	// carries a running sum from cell to cell, and from box to box.
	regCarry := &Program{
		Name: "test/regcarry", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0, 0.5},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{1})},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpAdd, 1, 1, 0}, {OpStore, 0, 1, 0}, {Op: OpHalt}},
	}
	// Every lane op, the center register and a constant register read:
	// a map over the row wherever D and S are apart.
	lanesMap := &Program{
		Name: "test/lanes", NCenter: 1, CenterReg: []int32{1}, RegInit: []float64{0, 0, 0, 2.5, 0, 0},
		Refs: []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{1})},
		Code: []Instr{
			{OpLoad, 0, 1, 0}, {OpMul, 2, 0, 3}, {OpAdd, 2, 2, 1}, {OpNeg, 0, 2, 0}, {OpAbs, 4, 0, 0},
			{OpMin, 5, 4, 3}, {OpMax, 0, 5, 2}, {OpTrunc, 4, 0, 0}, {OpSub, 2, 4, 1}, {OpMov, 5, 2, 0},
			{OpStore, 0, 5, 0}, {Op: OpHalt},
		},
	}
	// lanesMap with S read at one cell for the whole row. Where D and S
	// are views of one array, their distance changes from row to row,
	// so the rows run cell by cell even where the two never meet.
	pinned := *lanesMap
	pinned.Name = "test/pinned"
	pinned.Refs = []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{0})}
	// views binds D and S to six-cell views of one twelve-cell array, at
	// offsets d and s.
	views := func(d, s int) func() map[string]*matrix.Matrix {
		return func() map[string]*matrix.Matrix {
			m := matrix.New(12)
			for i := range m.Backing() {
				m.Backing()[i] = float64(i)*1.25 - 3
			}
			return map[string]*matrix.Matrix{"D": m.Region([]int{d}, []int{d + 6}), "S": m.Region([]int{s}, []int{s + 6})}
		}
	}
	for _, c := range []struct {
		p     *Program
		data  func() map[string]*matrix.Matrix
		lanes bool
	}{
		{prevCell, data, false},
		{still, withX, false},
		{regCarry, data, false},
		{lanesMap, data, true},
		{lanesMap, views(6, 0), true},
		{lanesMap, views(0, 6), true},
		{lanesMap, views(1, 0), false},
		{lanesMap, views(0, 1), false},
		{lanesMap, views(0, 0), true},
		{&pinned, data, true},
		{&pinned, views(6, 0), false},
	} {
		for _, o := range orders(1) {
			bp := newBoxPair(c.p, c.data)
			row := boxMove{k: 0, dir: 1, start: 1, ext: 4}
			if o[0].Dir < 0 {
				row.dir, row.start = -1, 4
			}
			if got := bp.box.lanesAt([]int64{row.start}, row); got != c.lanes {
				t.Errorf("%s %v: row across lanes = %v, want %v", c.p.Name, o, got, c.lanes)
			}
			label := fmt.Sprintf("%s %v", c.p.Name, o)
			// The last box has the first's shape again, after others.
			for _, r := range [][2]int64{{0, 6}, {1, 6}, {0, 3}, {3, 6}, {1, 5}, {2, 4}, {0, 6}} {
				bp.check(t, label, []int64{0}, [][2]int64{r}, o)
			}
		}
	}

	// A row too long for one laneBuf buffer runs in chunks of it.
	long := make([]float64, 200)
	for i := range long {
		long[i] = float64(i%13)*1.5 - 7
	}
	lp := newBoxPair(lanesMap, vec(long...))
	for _, o := range orders(1) {
		for _, r := range [][2]int64{{0, 200}, {3, 190}, {0, 40}, {150, 200}} {
			lp.check(t, lanesMap.Name+" long row", []int64{0}, [][2]int64{r}, o)
		}
	}

	// Sums over rank-1 windows that move along the row, on 40 cells, so
	// that a row fills blocks of eight lanes and a remainder: d[i] =
	// sum(w) for each window w. S is plain, or a column of a 40×3 matrix
	// (stride 3).
	sumData := func(stride int) func() map[string]*matrix.Matrix {
		return func() map[string]*matrix.Matrix {
			s := matrix.New(40, stride)
			for i := range s.Backing() {
				s.Backing()[i] = float64(i%9)*0.3 - 1.1
			}
			d := make([]float64, 40)
			for i := range d {
				d[i] = float64(i%5)*0.7 + 0.05
			}
			return map[string]*matrix.Matrix{"S": s.Slice(1, 0), "D": matrix.FromSlice(d)}
		}
	}
	sumOver := func(name, m string, base, coeff, hiBase, hiCoeff []int64) *Program {
		return &Program{
			Name: name, NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
			Refs: []Ref{
				cellRef("D", []int64{0}, []int64{1}),
				{Matrix: m, Binding: "w", ND: 1, Kind: RefView, Base: base, Coeff: coeff, HiBase: hiBase, HiCoeff: hiCoeff},
			},
			Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
		}
	}
	for _, c := range []struct {
		p     *Program
		lanes bool
	}{
		// S.region(0, i+1): RollingSum's growing window, which shrinks
		// along a descending row.
		{sumOver("test/sumgrow", "S", []int64{0}, nil, []int64{1}, []int64{1}), true},
		// S.region(i, 40): a window whose start moves and whose end
		// does not.
		{sumOver("test/sumshrink", "S", []int64{0}, []int64{1}, []int64{40}, nil), true},
		// S.region(0, i): empty at i = 0.
		{sumOver("test/sumempty", "S", []int64{0}, nil, []int64{0}, []int64{1}), true},
		// S.region(i, i+3): three cells sliding along the row.
		{sumOver("test/sumslide", "S", []int64{0}, []int64{1}, []int64{3}, []int64{1}), true},
		// D.region(0, i): the output's own earlier cells, which a lane
		// before may store, so the rows run cell by cell.
		{sumOver("test/sumself", "D", []int64{0}, nil, []int64{0}, []int64{1}), false},
	} {
		for _, stride := range []int{1, 3} {
			for _, o := range orders(1) {
				bp := newBoxPair(c.p, sumData(stride))
				row := boxMove{k: 0, dir: 1, start: 1, ext: 36}
				if o[0].Dir < 0 {
					row.dir, row.start = -1, 36
				}
				if got := bp.box.lanesAt([]int64{row.start}, row); got != c.lanes {
					t.Errorf("%s stride %d %v: row across lanes = %v, want %v", c.p.Name, stride, o, got, c.lanes)
				}
				label := fmt.Sprintf("%s stride %d %v", c.p.Name, stride, o)
				for _, r := range [][2]int64{{0, 37}, {0, 40}, {1, 36}, {3, 20}, {17, 40}, {0, 9}, {30, 38}, {0, 37}} {
					bp.check(t, label, []int64{0}, [][2]int64{r}, o)
				}
			}
		}
	}
	// C[x,y] = sum(S.region(y, x+1)): the window grows along x and
	// shrinks along y, so a box binds as a whole only when x is its row,
	// and is empty, or fails to bind (lo > hi), below the diagonal. Each
	// row starts from the same extent, so a walk must not carry one
	// row's growth into the next.
	tri := &Program{
		Name: "test/sumtri", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{0}, Coeff: []int64{0, 1},
				HiBase: []int64{1}, HiCoeff: []int64{1, 0}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	triMats := func() map[string]*matrix.Matrix {
		s := matrix.New(12)
		for i := range s.Backing() {
			s.Backing()[i] = float64(i%7)*0.45 - 1.3
		}
		return map[string]*matrix.Matrix{"S": s, "C": matrix.New(12, 12)}
	}
	tp := newBoxPair(tri, triMats)
	if !tp.box.lanesAt([]int64{2, 1}, boxMove{k: 0, dir: 1, start: 2, ext: 10}) {
		t.Errorf("%s: a row along x does not run across its lanes", tri.Name)
	}
	for _, o := range orders(2) {
		for _, b := range [][][2]int64{{{0, 11}, {0, 1}}, {{3, 11}, {0, 4}}, {{1, 12}, {0, 3}}, {{0, 11}, {0, 11}}, {{5, 11}, {2, 6}}} {
			tp.check(t, fmt.Sprintf("%s %v", tri.Name, o), []int64{0, 0}, b, o)
		}
	}

	// Heat1D's stencil reads the row before, so each row runs across its
	// lanes whichever way it is walked, while a walk along t carries.
	heat, heatRes, err := lowerRule(t, parser.Heat1DSrc, 1, map[string]int64{"n": 9})
	if err != nil {
		t.Fatal(err)
	}
	heatMats := func() map[string]*matrix.Matrix { return corpusMatrices(t, heatRes, map[string]int64{"n": 9}) }
	hp := newBoxPair(heat, heatMats)
	for _, c := range []struct {
		mv    []boxMove
		lanes bool
	}{
		{[]boxMove{{k: 0, dir: 1, start: 1, ext: 7}, {k: 1, dir: 1, start: 1, ext: 4}}, true},
		{[]boxMove{{k: 0, dir: -1, start: 7, ext: 7}, {k: 1, dir: 1, start: 1, ext: 4}}, true},
		{[]boxMove{{k: 0, dir: 1, start: 2, ext: 3}}, true},
		{[]boxMove{{k: 1, dir: 1, start: 1, ext: 4}, {k: 0, dir: 1, start: 1, ext: 7}}, false},
	} {
		center := []int64{c.mv[0].start, 1}
		if c.mv[0].k == 1 {
			center = []int64{1, c.mv[0].start}
		}
		if got := hp.box.lanesAt(center, c.mv...); got != c.lanes {
			t.Errorf("Heat1D stencil %+v: row across lanes = %v, want %v", c.mv, got, c.lanes)
		}
	}
	for _, o := range orders(2) {
		for _, b := range [][][2]int64{{{1, 8}, {1, 5}}, {{2, 5}, {1, 3}}, {{0, 9}, {0, 5}}, {{1, 8}, {4, 5}}} {
			hp.check(t, heat.Name, []int64{0, 0}, b, o)
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

	// C[x,y] = dot(S.region(0, 3), X.region(0, 3-y)): the lengths agree
	// on the row y = 0 only, which runs across its lanes; every other
	// row fails at its first cell.
	dotLen := &Program{
		Name: "test/dotlen", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "S", Binding: "s", ND: 1, Kind: RefView, Base: []int64{0}, HiBase: []int64{3}},
			{Matrix: "X", Binding: "x", ND: 1, Kind: RefView, Base: []int64{0}, Coeff: []int64{0, 0},
				HiBase: []int64{3}, HiCoeff: []int64{0, -1}},
		},
		Code: []Instr{{OpDotV, 0, 1, 2}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	dotMats := func() map[string]*matrix.Matrix {
		m := mats()
		m["S"] = matrix.FromSlice([]float64{1.5, -2, 0.25})
		m["X"] = matrix.FromSlice([]float64{3, 0.5, -1.25})
		return m
	}
	dp := newBoxPair(dotLen, dotMats)
	for y, want := range []bool{true, false, false} {
		row := boxMove{k: 0, dir: 1, start: 0, ext: 3}
		if got := dp.box.lanesAt([]int64{0, int64(y)}, row); got != want {
			t.Errorf("%s y = %d: row across lanes = %v, want %v", dotLen.Name, y, got, want)
		}
	}
	for _, o := range orders(2) {
		for _, b := range [][][2]int64{{{0, 3}, {0, 3}}, {{0, 3}, {0, 1}}, {{0, 3}, {1, 2}}, {{1, 3}, {0, 2}}} {
			dp.check(t, dotLen.Name, []int64{0, 0}, b, o)
		}
	}

	// d[i] = dot(S.region(i, i+2), X): S and D are views of one array, so
	// the window a cell reads can hold a cell an earlier lane stores.
	dotView := &Program{
		Name: "test/dotview", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("D", []int64{0}, []int64{1}),
			{Matrix: "S", Binding: "s", ND: 1, Kind: RefView, Base: []int64{0}, Coeff: []int64{1},
				HiBase: []int64{2}, HiCoeff: []int64{1}},
			{Matrix: "X", Binding: "x", ND: 1, Kind: RefView, Base: []int64{0}, HiBase: []int64{2}},
		},
		Code: []Instr{{OpDotV, 0, 1, 2}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// dotView with S's window pinned to S.region(0, 2) for the whole row.
	dotPinned := *dotView
	dotPinned.Name = "test/dotpinned"
	dotPinned.Refs = slices.Clone(dotView.Refs)
	dotPinned.Refs[1].Coeff, dotPinned.Refs[1].HiCoeff = []int64{0}, []int64{0}
	withDotX := func(d, s int) func() map[string]*matrix.Matrix {
		return func() map[string]*matrix.Matrix {
			m := views(d, s)()
			m["X"] = matrix.FromSlice([]float64{0.75, -1.5})
			return m
		}
	}
	for _, c := range []struct {
		p     *Program
		data  func() map[string]*matrix.Matrix
		lanes bool
	}{
		{dotView, withDotX(6, 0), true},
		{dotView, withDotX(0, 6), true},
		{dotView, withDotX(2, 0), false}, // a cell reads what the lane two before it stores
		{dotView, withDotX(0, 2), false},
		{dotView, withDotX(0, 0), false},
		{&dotPinned, withDotX(6, 0), true}, // the window stays below every stored cell
		{&dotPinned, withDotX(0, 1), false},
	} {
		for _, o := range orders(1) {
			bp := newBoxPair(c.p, c.data)
			row := boxMove{k: 0, dir: 1, start: 0, ext: 5}
			if o[0].Dir < 0 {
				row.dir, row.start = -1, 4
			}
			if got := bp.box.lanesAt([]int64{row.start}, row); got != c.lanes {
				t.Errorf("%s %v: row across lanes = %v, want %v", c.p.Name, o, got, c.lanes)
			}
			label := fmt.Sprintf("%s %v", c.p.Name, o)
			for _, r := range [][2]int64{{0, 5}, {1, 5}, {0, 3}, {2, 4}, {0, 5}} {
				bp.check(t, label, []int64{0}, [][2]int64{r}, o)
			}
		}
	}

	// M[x,y] = dot(M.region(x-10, y, x-9+y, y+1), S.region(0, y+1)): the
	// window's extent grows with y, so the box splits into rows of one
	// shape. At y = 0 it ends seven cells below the row's stored cells;
	// from y = 7 on, a cell reads what a lane before it stores, so those
	// rows must run cell by cell though the row before ran across lanes.
	dotGrow := &Program{
		Name: "test/dotgrow", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("M", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "M", Binding: "w", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{-10, 0}, Coeff: []int64{1, 0, 0, 1}, HiBase: []int64{-9, 1}, HiCoeff: []int64{1, 1, 0, 1}},
			{Matrix: "S", Binding: "s", ND: 1, Kind: RefView, Base: []int64{0}, Coeff: []int64{0, 0},
				HiBase: []int64{1}, HiCoeff: []int64{0, 1}},
		},
		Code: []Instr{{OpDotV, 0, 1, 2}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	growMats := func() map[string]*matrix.Matrix {
		m, s := matrix.New(10, 14), matrix.New(10)
		for i := range m.Backing() {
			m.Backing()[i] = float64(i%11)*0.75 - 3
		}
		for i := range s.Backing() {
			s.Backing()[i] = float64(i%4) - 1.5
		}
		return map[string]*matrix.Matrix{"M": m, "S": s}
	}
	gp := newBoxPair(dotGrow, growMats)
	row := boxMove{k: 0, dir: 1, start: 10, ext: 4}
	for y, want := range map[int64]bool{0: true, 6: true, 7: false, 9: false} {
		if got := gp.box.lanesAt([]int64{10, y}, row); got != want {
			t.Errorf("%s y = %d: row across lanes = %v, want %v", dotGrow.Name, y, got, want)
		}
	}
	for _, o := range orders(2) {
		for _, b := range [][][2]int64{{{10, 14}, {0, 10}}, {{10, 14}, {5, 9}}, {{11, 14}, {0, 10}}} {
			gp.check(t, fmt.Sprintf("%s %v", dotGrow.Name, o), []int64{10, 0}, b, o)
		}
	}

	// If-converted bodies against their branches, on NaN, ±0, ±Inf and
	// the compare's own constant: d = s; t = s; if (<cond>) { t = t - 1; }
	// else { t = -t; } d = t. The diamond comes in each shape the
	// lowering emits: a compare-and-branch (NaN jumps to the else arm), a
	// compare then jz (NaN compares 0 and jumps), and jz on the loaded
	// value itself (NaN is not 0 and falls through to the then arm).
	nans := vec(math.NaN(), 0.5, 2, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0, -math.NaN())
	for _, c := range []struct {
		name string
		cond []Instr // ending in the jump to the else arm, whose target is set below
	}{
		{"jngt", []Instr{{OpJNGT, 0, 0, 2}}},
		{"jnne", []Instr{{OpJNNE, 0, 0, 2}}},
		{"gt/jz", []Instr{{OpGT, 6, 0, 2}, {OpJZ, 0, 6, 0}}},
		{"le/jz", []Instr{{OpLE, 6, 0, 2}, {OpJZ, 0, 6, 0}}},
		{"jz", []Instr{{OpJZ, 0, 0, 0}}},
	} {
		code := []Instr{{OpLoad, 0, 1, 0}, {OpMov, 5, 0, 0}}
		code = append(code, c.cond...)
		at := int32(len(code)) // the then arm: t = t - 1
		code[at-1].A = at + 3
		code = append(code, Instr{OpSub, 3, 5, 1}, Instr{OpMov, 5, 3, 0}, Instr{OpJmp, at + 5, 0, 0},
			Instr{OpNeg, 4, 5, 0}, Instr{OpMov, 5, 4, 0}, Instr{OpStore, 0, 5, 0}, Instr{Op: OpHalt})
		branchy := &Program{
			Name: "test/diamond " + c.name, NCenter: 1, CenterReg: []int32{-1},
			RegInit: []float64{0, 1, 0.5, 0, 0, 0, 0},
			Refs:    []Ref{cellRef("D", []int64{0}, []int64{1}), cellRef("S", []int64{0}, []int64{1})},
			Code:    code,
		}
		if err := branchy.Validate(); err != nil {
			t.Fatalf("%s: %v", branchy.Name, err)
		}
		conv, ok := branchy.ifConverted()
		if !ok {
			t.Fatalf("%s: not if-converted", branchy.Name)
		}
		if slices.ContainsFunc(conv.Code, func(in Instr) bool { return in.Op == OpJZ || in.Op == OpJmp || in.Op >= OpJNLT && in.Op <= OpJNNE }) {
			t.Fatalf("%s: converted code still branches:\n%s", branchy.Name, conv.Disassemble())
		}
		sameAsBranches(t, branchy, conv, nans)
	}

	// MatrixMultiply's base rule on rows of 19 cells: two blocks of eight
	// lanes that keep their dot products in registers, then three more.
	mm, mmRes, err := lowerRule(t, parser.MatrixMultiplySrc, 0, map[string]int64{"w": 19, "c": 5, "h": 3})
	if err != nil {
		t.Fatal(err)
	}
	mmSizes := map[string]int64{"w": 19, "c": 5, "h": 3}
	mmp := newBoxPair(mm, func() map[string]*matrix.Matrix { return corpusMatrices(t, mmRes, mmSizes) })
	if !mmp.box.lanesAt([]int64{0, 1}, boxMove{k: 0, dir: 1, start: 0, ext: 19}) {
		t.Errorf("%s: a row of 19 cells does not run across its lanes", mm.Name)
	}
	for _, o := range orders(2) {
		for _, b := range [][][2]int64{{{0, 19}, {0, 3}}, {{1, 18}, {1, 3}}, {{0, 8}, {2, 3}}} {
			mmp.check(t, mm.Name, []int64{0, 0}, b, o)
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

// sameAsBranches runs conv, the if-converted form of branchy, through
// RunBox and through a RunCell loop, and branchy through a RunCell loop,
// over every rank-1 box of the six-cell vectors of data in both
// directions, and fails unless every row of conv runs across its lanes
// and all three leave the same bits in every matrix: sel picks the arm
// the branch takes in laneRow and in run alike. The register files
// differ by design: an arm the branch skipped leaves its registers
// alone, and conv runs it anyway.
func sameAsBranches(t *testing.T, branchy, conv *Program, data func() map[string]*matrix.Matrix) {
	t.Helper()
	for _, o := range orders(1) {
		for _, r := range [][2]int64{{0, 8}, {1, 7}, {2, 6}, {3, 4}} {
			bf, sf, cf := conv.NewFrame(), conv.NewFrame(), branchy.NewFrame()
			bm, sm, cm := data(), data(), data()
			for i, ref := range conv.Refs {
				bf.BindMatrix(i, bm[ref.Matrix])
				sf.BindMatrix(i, sm[ref.Matrix])
				cf.BindMatrix(i, cm[ref.Matrix])
			}
			row := boxMove{k: 0, dir: int64(o[0].Dir), start: r[0], ext: r[1] - r[0]}
			if o[0].Dir < 0 {
				row.start = r[1] - 1
			}
			if row.ext > 1 && !bf.lanesAt([]int64{row.start}, row) {
				t.Fatalf("%s: row %v does not run across its lanes", conv.Name, r)
			}
			bc, sc, cc := []int64{0}, []int64{0}, []int64{0}
			b := [][2]int64{r}
			want := capture(cc, func() error { return cellLoop(cc, b, o, func() error { return cf.RunCell(cc) }) })
			for _, c := range []struct {
				how  string
				got  outcome
				mats map[string]*matrix.Matrix
			}{
				{"RunBox", capture(bc, func() error { return bf.RunBox(bc, b, o) }), bm},
				{"RunCell", capture(sc, func() error { return cellLoop(sc, b, o, func() error { return sf.RunCell(sc) }) }), sm},
			} {
				if c.got != want {
					t.Fatalf("%s: %s over %v, %v = %+v, branches %+v", conv.Name, c.how, r, o, c.got, want)
				}
				for name, m := range c.mats {
					x, y := m.Backing(), cm[name].Backing()
					for i := range x {
						if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
							t.Fatalf("%s: %s over %v, %v: %s[%d] = %v (%#x), the branches wrote %v (%#x)",
								conv.Name, c.how, r, o, name, i, x[i], math.Float64bits(x[i]), y[i], math.Float64bits(y[i]))
						}
					}
				}
			}
		}
	}
}

// TestLaneRowAllocs pins that a row running across its lanes allocates
// nothing, with a sel and a dot product in its body,
// c = dot(A.row(y), B.column(x)); t = -c; if (c > 0.5) t = c; C[x,y] = t,
// and with a sum over a growing window, C[x,y] = sum(S.region(0, x+1)),
// in a row that fits one lane buffer and in one that takes many chunks
// of it.
func TestLaneRowAllocs(t *testing.T) {
	p := &Program{
		Name: "test/lanealloc", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0, 0, 0.5, 0},
		Refs: []Ref{
			cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "A", Binding: "a", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{0, 0}, Coeff: []int64{0, 0, 0, 1}, HiBase: []int64{8, 1}, HiCoeff: []int64{0, 0, 0, 1}},
			{Matrix: "B", Binding: "b", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{0, 0}, Coeff: []int64{1, 0, 0, 0}, HiBase: []int64{1, 8}, HiCoeff: []int64{1, 0, 0, 0}},
		},
		Code: []Instr{{OpDotV, 0, 1, 2}, {OpNeg, 1, 0, 0}, {OpGT, 3, 0, 2}, {OpSel, 1, 3, 0}, {OpStore, 0, 1, 0}, {Op: OpHalt}},
	}
	sum := &Program{
		Name: "test/sumalloc", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0},
		Refs: []Ref{
			cellRef("C", []int64{0, 0}, []int64{1, 0, 0, 1}),
			{Matrix: "S", Binding: "s", ND: 1, Kind: RefView, Base: []int64{0}, HiBase: []int64{1}, HiCoeff: []int64{1, 0}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	for _, w := range []int{16, 300} {
		c, a, b := matrix.New(2, w), matrix.New(2, 8), matrix.New(8, w)
		for i := range b.Backing() {
			b.Backing()[i] = float64(i%7) - 2.5
		}
		for i := range a.Backing() {
			a.Backing()[i] = float64(i%5) * 0.25
		}
		dot, sf := p.NewFrame(), sum.NewFrame()
		for i, m := range []*matrix.Matrix{c, a, b} {
			dot.BindMatrix(i, m)
		}
		sf.BindMatrix(0, c)
		sf.BindMatrix(1, b.Slice(0, 3))
		for _, f := range []*Frame{dot, sf} {
			row := boxMove{k: 0, dir: 1, start: 0, ext: int64(w)}
			if !f.lanesAt([]int64{0, 1}, row) {
				t.Fatalf("%s width %d: the row does not run across its lanes", f.prog.Name, w)
			}
			center := []int64{0, 0}
			box := [][2]int64{{0, int64(w)}, {0, 2}}
			order := []analysis.LexDim{{Dim: 0, Dir: 1}, {Dim: 1, Dir: 1}}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := f.RunBox(center, box, order); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s width %d: RunBox made %v allocations per run, want 0", f.prog.Name, w, allocs)
			}
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
// one cell ref D that is written, one read cell ref S and one view V
// with random affine bounds, bound to random strided views of random
// shapes, over random boxes of rank 1 to 3 in random orders. One time
// in three D and S are bound to one matrix: half of those times with
// equal coefficients, so that their rows overlap in some boxes and not
// in others, and half with unequal ones, whose rows must run cell by
// cell. The body is one of seven: the sum over V plus the read, the
// same then a write of a center register, the same divided by a center
// coordinate minus a constant, which is zero mid-row in some boxes, a
// straight-line body of lane ops that leaves V alone, whose rows run
// across their lanes wherever D and S are apart, the if-converted form
// of an if/else over the read (ifConverted), in each shape the lowering
// emits and with every compare, dot(S, V) over two rows or columns of
// 2-D matrices, strided where they cross rows, of one length three times
// in four, or sum(V) plus a center coordinate over a rank-1 V whose hi
// coefficient differs from its lo one along one center variable, so its
// window grows or shrinks along rows of that variable. In the dot body
// S is a view, so where S and D share a matrix the window a cell reads
// can hold cells other lanes store; in the sum body V is, one time in
// two, a row or column of D's matrix, to the same end. After each box
// both frames' register files and matrices must agree, and then both
// frames run one more cell.
func FuzzRunBox(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	// Body 5, S a view of D whose window grows from row to row, so that
	// it meets the cells a row stores in some rows of a box and not in
	// others: a window verdict cached with the box shape fails it.
	f.Add(int64(98925))
	// Body 6, V a column of D whose window moves along the row and meets
	// the cells the row stores: dropping the window check fails it.
	f.Add(int64(3077))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		nc := 1 + rng.Intn(3)
		body := rng.Intn(7)
		if body >= 5 {
			nd = 2
		}
		lanes := body >= 3 // bodies written to run across lanes
		if lanes {
			nc = nd
		}
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
		// Body 5 shares D's matrix with S more often, and always with
		// D's coefficients, so that where S's window and D's row cross,
		// the window check alone keeps the lanes apart.
		alias := rng.Intn(3) == 0 || body == 5 && rng.Intn(2) == 0
		if lanes && rng.Intn(4) != 0 {
			// D is the center itself, so the boxes inside D drawn below
			// bind unless S misses.
			clear(refs[0].Base)
			clear(refs[0].Coeff)
			for d := 0; d < nd; d++ {
				refs[0].Coeff[d*nc+d] = 1
			}
		}
		if alias && (body == 5 || rng.Intn(2) == 0) {
			copy(refs[1].Coeff, refs[0].Coeff)
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
		switch body {
		case 3, 4:
			// The body leaves V alone; one fixed cell binds everywhere.
			*v = Ref{Matrix: "V", Binding: "V", ND: nd, Kind: RefView, Base: make([]int64, nd), HiBase: slices.Repeat([]int64{1}, nd)}
		case 5:
			// S and V are rows or columns of n cells, n one of 1..3 (for S
			// a different one a time in four), fixed in shape over a box
			// or, a time in three, both a cell longer at each step of one
			// center variable, so that a box split into rows gives each
			// row its own windows. Each starts at or next to its matrix's
			// corner, or for V a time in two where its random
			// coefficients take it, and S shared with D where its random
			// base takes it, or, when both grow, one or two cells behind
			// D's cell along its length, so that its window reaches the
			// cells a row stores only in the later rows.
			n := 1 + int64(rng.Intn(3))
			grow := -1
			if rng.Intn(3) == 0 {
				grow = rng.Intn(nc)
			}
			for i, r := range []*Ref{v, &refs[1]} {
				if i == 1 && rng.Intn(4) == 0 {
					n = 1 + int64(rng.Intn(3))
				}
				if i == 0 && rng.Intn(2) == 0 {
					clear(r.Coeff)
				}
				if i == 0 || !alias {
					for d := range r.Base {
						r.Base[d] = int64(rng.Intn(2))
					}
				}
				r.Kind, r.Collapse = RefView, true
				d := rng.Intn(2)
				if i == 1 && alias && grow >= 0 {
					r.Base[d], r.Base[1-d] = 0, -1-int64(rng.Intn(2))
				}
				r.HiCoeff = slices.Clone(r.Coeff)
				r.HiBase = slices.Clone(r.Base)
				r.HiBase[d]++
				r.HiBase[1-d] += n
				if grow >= 0 {
					r.HiCoeff[(1-d)*nc+grow]++
				}
			}
		case 6:
			// V is rank 1: V.region(lo, hi) with lo and hi affine, hi's
			// coefficient on one center variable off by -1, 1 or 2.
			base, coeff := small(), make([]int64, nc)
			for k := range coeff {
				coeff[k] = small() / 2
			}
			hiCoeff := slices.Clone(coeff)
			hiCoeff[rng.Intn(nc)] += []int64{-1, 1, 2}[rng.Intn(3)]
			*v = Ref{Matrix: "V", Binding: "V", ND: 1, Kind: RefView, Base: []int64{base}, Coeff: coeff,
				HiBase: []int64{base + int64(rng.Intn(4))}, HiCoeff: hiCoeff}
		}
		creg := make([]int32, nc)
		for d := range creg {
			creg[d] = -1
		}
		creg[rng.Intn(nc)] = 3
		code := []Instr{{OpLoad, 0, 1, 0}, {OpSumV, 1, 2, 0}, {OpAdd, 0, 0, 1}, {OpAdd, 0, 0, 3}}
		switch body {
		case 5: // d = dot(S, V) + center
			code = []Instr{{OpDotV, 0, 1, 2}, {OpAdd, 0, 0, 3}, {OpStore, 0, 0, 0}}
		case 6: // d = sum(V) + center
			code = []Instr{{OpSumV, 0, 2, 0}, {OpAdd, 0, 0, 3}, {OpStore, 0, 0, 0}}
		case 4: // r[2] = s*r[4]; if (s <cmp> r[4]) r[2] = r[2] + center else r[2] = -s; d = r[2]
			code = []Instr{{OpLoad, 0, 1, 0}, {OpMul, 2, 0, 4}}
			cmp := Op(rng.Intn(6))
			switch rng.Intn(3) {
			case 0:
				code = append(code, Instr{OpJNLT + cmp, 0, 0, 4})
			case 1:
				code = append(code, Instr{OpLT + cmp, 1, 0, 4}, Instr{OpJZ, 0, 1, 0})
			default: // on s itself
				code = append(code, Instr{OpJZ, 0, 0, 0})
			}
			at := int32(len(code))
			code[at-1].A = at + 2
			code = append(code, Instr{OpAdd, 2, 2, 3}, Instr{OpJmp, at + 3, 0, 0}, Instr{OpNeg, 2, 0, 0},
				Instr{OpStore, 0, 2, 0})
		case 3: // d = |min(s*r[4] + center, s)| - r[4]
			code = []Instr{{OpLoad, 0, 1, 0}, {OpMul, 1, 0, 4}, {OpAdd, 1, 1, 3}, {OpMin, 2, 1, 0},
				{OpAbs, 2, 2, 0}, {OpSub, 0, 2, 4}, {OpStore, 0, 0, 0}}
			if rng.Intn(4) == 0 {
				// r[1] += s in place of s*r[4]: a running sum that
				// carries from cell to cell, so no row runs across lanes.
				code[1] = Instr{OpAdd, 1, 1, 0}
			}
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
		if body == 4 {
			q, ok := p.ifConverted()
			if !ok {
				t.Fatalf("seed %d: if/else body not if-converted:\n%s", seed, p.Disassemble())
			}
			p = q
		}
		shapes := make([][]int, 3)
		views := make([]int, 3)
		for i := range shapes {
			shapes[i] = make([]int, nd)
			for d := range shapes[i] {
				shapes[i][d] = 1 + rng.Intn(5)
				if body == 5 {
					shapes[i][d] = 3 + rng.Intn(3) // room for a vector
				}
			}
			views[i] = rng.Intn(3)
		}
		// The sum body's V: its own vector, or D's first row or column.
		vOfD := -1
		if body == 6 {
			shapes[2] = []int{3 + rng.Intn(8)}
			if rng.Intn(2) == 0 {
				vOfD = rng.Intn(2)
			}
		}
		mk := func() map[string]*matrix.Matrix {
			out := map[string]*matrix.Matrix{}
			for i, name := range []string{"D", "S", "V"} {
				out[name] = fuzzMatrix(shapes[i], views[i], int64(i)+seed)
			}
			if alias {
				out["S"] = out["D"]
			}
			if vOfD >= 0 {
				out["V"] = out["D"].Slice(vOfD, 0)
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
				if lanes && rng.Intn(4) != 0 {
					// Inside D.
					n := int64(shapes[0][d])
					lo = rng.Int63n(n)
					b[d] = [2]int64{lo, lo + 1 + rng.Int63n(n-lo)}
				}
				if rng.Intn(3) == 0 {
					b[d][1] = lo + 1 // extent 1
				}
				order[d] = analysis.LexDim{Dim: k, Dir: 1 - 2*rng.Intn(2)}
			}
			label := fmt.Sprintf("seed %d body %d alias %v V of D %d %+v", seed, body, alias, vOfD, refs)
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
