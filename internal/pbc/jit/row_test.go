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

// rowPair runs one program two ways over identical fresh matrices: one
// frame through RunRow, the other through a RunCell loop visiting the
// same centers in the same order. Frames persist across rows, so every
// row also checks that a reused frame carries nothing over.
type rowPair struct {
	row, cell      *Frame
	rowMat, cellMt map[string]*matrix.Matrix
}

// newRowPair binds ref i of both frames to mk()[p.Refs[i].Matrix]; mk
// must build the same matrices on every call.
func newRowPair(p *Program, mk func() map[string]*matrix.Matrix) *rowPair {
	rp := &rowPair{row: p.NewFrame(), cell: p.NewFrame(), rowMat: mk(), cellMt: mk()}
	for i := range p.Refs {
		rp.row.BindMatrix(i, rp.rowMat[p.Refs[i].Matrix])
		rp.cell.BindMatrix(i, rp.cellMt[p.Refs[i].Matrix])
	}
	return rp
}

// outcome is what one side of a row produced: the error (or panic) text
// and the center coordinate it stopped at.
type outcome struct {
	err string
	at  int64
}

func capture(center []int64, k int, run func() error) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Sprintf("panic: %v", r)
		}
		if k >= 0 && k < len(center) {
			o.at = center[k]
		}
	}()
	if err := run(); err != nil {
		o.err = err.Error()
	}
	return o
}

// check runs the row on both sides and fails on any difference in
// error, stopping cell, or any bit of any matrix.
func (rp *rowPair) check(t *testing.T, label string, center []int64, k int, from, to int64, dir int) {
	t.Helper()
	rc := append([]int64(nil), center...)
	cc := append([]int64(nil), center...)
	got := capture(rc, k, func() error { return rp.row.RunRow(rc, k, from, to, dir) })
	want := capture(cc, k, func() error {
		if from >= to {
			return nil
		}
		c, last, step := from, to-1, int64(1)
		if dir < 0 {
			c, last, step = to-1, from, -1
		}
		for ; ; c += step {
			cc[k] = c
			if err := rp.cell.RunCell(cc); err != nil {
				return err
			}
			if c == last {
				return nil
			}
		}
	})
	if from >= to {
		got.at, want.at = 0, 0 // an empty row visits no cell
	}
	if got != want {
		t.Fatalf("%s: RunRow(%v, k=%d, %d..%d, dir %d) = %+v, RunCell loop = %+v", label, center, k, from, to, dir, got, want)
	}
	for name, m := range rp.rowMat {
		a, b := m.Backing(), rp.cellMt[name].Backing()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: RunRow(%v, k=%d, %d..%d, dir %d): %s backing[%d] = %v, RunCell loop wrote %v",
					label, center, k, from, to, dir, name, i, a[i], b[i])
			}
		}
	}
}

func vec(vals ...float64) func() map[string]*matrix.Matrix {
	return func() map[string]*matrix.Matrix {
		return map[string]*matrix.Matrix{
			"S": matrix.FromSlice(append([]float64(nil), vals...)),
			"D": matrix.FromSlice(make([]float64, len(vals))),
		}
	}
}

// TestRunRowEdges compares RunRow with a RunCell loop on hand-built refs
// at the edges of the row fast path: misses and view errors mid-row,
// descending rows, views whose extent varies along the row, rows of
// length 0 and 1, and one frame reused across rows.
func TestRunRowEdges(t *testing.T) {
	// d = s[i+2]: the read misses from i = 4 on (size 6).
	readMiss := &Program{
		Name: "test/readmiss", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			{Matrix: "D", Binding: "d", ND: 1, Base: []int64{0}, Coeff: []int64{1}},
			{Matrix: "S", Binding: "s", ND: 1, Base: []int64{2}, Coeff: []int64{1}},
		},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = i: s[i+2] is bound but never read, so its miss is no error.
	unreadMiss := &Program{
		Name: "test/unreadmiss", NCenter: 1, CenterReg: []int32{0}, RegInit: []float64{0},
		Refs: []Ref{
			{Matrix: "D", Binding: "d", ND: 1, Base: []int64{0}, Coeff: []int64{1}},
			{Matrix: "S", Binding: "s", ND: 1, Base: []int64{2}, Coeff: []int64{1}},
		},
		Code: []Instr{{OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = sum(S.region(i, i+3)): the window leaves the matrix at i = 4.
	viewMiss := &Program{
		Name: "test/viewmiss", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			{Matrix: "D", Binding: "d", ND: 1, Base: []int64{0}, Coeff: []int64{1}},
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{0}, Coeff: []int64{1},
				HiBase: []int64{3}, HiCoeff: []int64{1}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = sum(S.region(0, i+1)): the extent grows along the row.
	prefix := &Program{
		Name: "test/prefix", NCenter: 1, CenterReg: []int32{-1}, RegInit: []float64{0},
		Refs: []Ref{
			{Matrix: "D", Binding: "d", ND: 1, Base: []int64{0}, Coeff: []int64{1}},
			{Matrix: "S", Binding: "w", ND: 1, Kind: RefView, Base: []int64{0},
				HiBase: []int64{1}, HiCoeff: []int64{1}},
		},
		Code: []Instr{{OpSumV, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	// d = i; i = 99: a body that assigns its center variable.
	clobber := &Program{
		Name: "test/clobber", NCenter: 1, CenterReg: []int32{0}, RegInit: []float64{0, 99},
		Refs: []Ref{{Matrix: "D", Binding: "d", ND: 1, Base: []int64{0}, Coeff: []int64{1}}},
		Code: []Instr{{OpStore, 0, 0, 0}, {OpMov, 0, 1, 0}, {Op: OpHalt}},
	}
	data := vec(1, 2, 3, 4, 5, 6)
	for _, p := range []*Program{readMiss, unreadMiss, viewMiss, prefix, clobber} {
		for _, dir := range []int{1, -1} {
			rp := newRowPair(p, data)
			label := fmt.Sprintf("%s dir %d", p.Name, dir)
			for _, r := range [][2]int64{{0, 6}, {0, 4}, {3, 6}, {2, 2}, {5, 2}, {3, 4}, {0, 1}, {5, 6}, {-1, 3}, {1, 5}} {
				rp.check(t, label, []int64{0}, 0, r[0], r[1], dir)
			}
		}
	}

	// A 2-D frame reused across rows along either dimension, with the
	// other coordinate fixed at a new value each row:
	// C[x,y] = A.row(y) · B.column(x) on 3×3 inputs (B transposed, so
	// strided), plus a cell ref A[x+y, y] that misses for some rows.
	matmul := &Program{
		Name: "test/matmul", NCenter: 2, CenterReg: []int32{-1, -1}, RegInit: []float64{0, 0},
		Refs: []Ref{
			{Matrix: "C", Binding: "c", ND: 2, Base: []int64{0, 0}, Coeff: []int64{1, 0, 0, 1}},
			{Matrix: "A", Binding: "a", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{0, 0}, Coeff: []int64{0, 0, 0, 1},
				HiBase: []int64{3, 1}, HiCoeff: []int64{0, 0, 0, 1}},
			{Matrix: "B", Binding: "b", ND: 2, Kind: RefView, Collapse: true,
				Base: []int64{0, 0}, Coeff: []int64{1, 0, 0, 0},
				HiBase: []int64{1, 3}, HiCoeff: []int64{1, 0, 0, 0}},
			{Matrix: "A", Binding: "q", ND: 2, Base: []int64{0, 0}, Coeff: []int64{1, 1, 0, 1}},
		},
		Code: []Instr{{OpDotV, 0, 1, 2}, {OpLoad, 1, 3, 0}, {OpAdd, 0, 0, 1}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	mats := func() map[string]*matrix.Matrix {
		a, b, c := matrix.New(3, 3), matrix.New(3, 3), matrix.New(3, 3)
		for i := range a.Backing() {
			a.Backing()[i] = float64(i) + 0.5
			b.Backing()[i] = float64(2*i) - 3.25
		}
		return map[string]*matrix.Matrix{"A": a, "B": b.Transposed(), "C": c}
	}
	rp := newRowPair(matmul, mats)
	for fixed := int64(-1); fixed <= 3; fixed++ {
		for k := 0; k < 2; k++ {
			for _, dir := range []int{1, -1} {
				center := []int64{fixed, fixed}
				rp.check(t, "matmul", center, k, -1, 4, dir)
				rp.check(t, "matmul", center, k, 0, 3, dir)
				rp.check(t, "matmul", center, k, 1, 2, dir)
			}
		}
	}
}

// TestRunRowCorpus compares RunRow with a RunCell loop on every lowered
// rule of the example corpus, over rows along each center dimension in
// both directions, starting and ending one cell outside the matrices so
// rows cross every binding's edge.
func TestRunRowCorpus(t *testing.T) {
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
				rp := newRowPair(p, mk)
				ext := int64(0)
				for _, m := range rp.rowMat {
					for d := 0; d < m.Dims(); d++ {
						ext = max(ext, int64(m.Size(d)))
					}
				}
				for k := 0; k < p.NCenter; k++ {
					for fixed := int64(-1); fixed <= ext; fixed++ {
						for _, dir := range []int{1, -1} {
							center := make([]int64, p.NCenter)
							for d := range center {
								center[d] = fixed
							}
							rp.check(t, p.Name, center, k, -1, ext+1, dir)
							rp.check(t, p.Name, center, k, 0, ext, dir)
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
func corpusMatrices(t *testing.T, res *analysis.Result, sizes map[string]int64) map[string]*matrix.Matrix {
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

// FuzzRunRow checks RunRow against a RunCell loop on random programs:
// one cell ref that is written, one read cell ref and one summed view
// with random affine bounds, bound to random strided views of random
// shapes, over random rows in either direction.
func FuzzRunRow(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(2)
		nc := 1 + rng.Intn(2)
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
			refs[i] = Ref{Matrix: name, Binding: name, ND: nd, Base: base, Coeff: coeff}
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
		creg[0] = 3
		p := &Program{
			Name: "fuzz", NCenter: nc, CenterReg: creg, RegInit: []float64{0, 0, 0, 0},
			Refs: refs,
			Code: []Instr{
				{OpLoad, 0, 1, 0}, {OpSumV, 1, 2, 0}, {OpAdd, 0, 0, 1}, {OpAdd, 0, 0, 3},
				{OpStore, 0, 0, 0}, {Op: OpHalt},
			},
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
		rp := newRowPair(p, mk)
		for r := 0; r < 8; r++ {
			center := make([]int64, nc)
			for d := range center {
				center[d] = int64(rng.Intn(8) - 2)
			}
			from := int64(rng.Intn(9) - 3)
			to := from + int64(rng.Intn(9)) - 1
			dir := 1
			if rng.Intn(2) == 0 {
				dir = -1
			}
			rp.check(t, fmt.Sprintf("seed %d %+v", seed, refs), center, rng.Intn(nc), from, to, dir)
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
