package jit

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"petabricks/internal/matrix"
)

// run assembles a one-off program around the instruction list, executes
// it in a fresh frame, and returns register 0.
func runProg(t *testing.T, p *Program, center []int64, mats ...*matrix.Matrix) (float64, error) {
	t.Helper()
	f := p.NewFrame()
	for i, m := range mats {
		f.BindMatrix(i, m)
	}
	err := f.RunCell(center)
	return f.regs[0], err
}

func TestOpcodes(t *testing.T) {
	halt := Instr{Op: OpHalt}
	cases := []struct {
		name    string
		init    []float64 // initial registers; result read from reg 0
		consts  []float64
		code    []Instr
		want    float64
		wantErr string
	}{
		{"const", []float64{0}, []float64{3.5}, []Instr{{OpConst, 0, 0, 0}, halt}, 3.5, ""},
		{"mov", []float64{0, 7}, nil, []Instr{{OpMov, 0, 1, 0}, halt}, 7, ""},
		{"add", []float64{0, 2, 3}, nil, []Instr{{OpAdd, 0, 1, 2}, halt}, 5, ""},
		{"sub", []float64{0, 2, 3}, nil, []Instr{{OpSub, 0, 1, 2}, halt}, -1, ""},
		{"mul", []float64{0, 2.5, 4}, nil, []Instr{{OpMul, 0, 1, 2}, halt}, 10, ""},
		{"div", []float64{0, 7, 2}, nil, []Instr{{OpDiv, 0, 1, 2}, halt}, 3.5, ""},
		{"div-zero", []float64{0, 7, 0}, nil, []Instr{{OpDiv, 0, 1, 2}, halt}, 0, "division by zero"},
		{"mod", []float64{0, 7.5, 2}, nil, []Instr{{OpMod, 0, 1, 2}, halt}, math.Mod(7.5, 2), ""},
		{"mod-negative", []float64{0, -7, 3}, nil, []Instr{{OpMod, 0, 1, 2}, halt}, math.Mod(-7, 3), ""},
		{"mod-zero", []float64{0, 7, 0}, nil, []Instr{{OpMod, 0, 1, 2}, halt}, 0, "modulo by zero"},
		{"neg", []float64{0, 4}, nil, []Instr{{OpNeg, 0, 1, 0}, halt}, -4, ""},
		{"not-true", []float64{0, 0}, nil, []Instr{{OpNot, 0, 1, 0}, halt}, 1, ""},
		{"not-false", []float64{0, 2}, nil, []Instr{{OpNot, 0, 1, 0}, halt}, 0, ""},
		{"lt", []float64{0, 1, 2}, nil, []Instr{{OpLT, 0, 1, 2}, halt}, 1, ""},
		{"le-eq", []float64{0, 2, 2}, nil, []Instr{{OpLE, 0, 1, 2}, halt}, 1, ""},
		{"gt", []float64{0, 1, 2}, nil, []Instr{{OpGT, 0, 1, 2}, halt}, 0, ""},
		{"ge", []float64{0, 3, 2}, nil, []Instr{{OpGE, 0, 1, 2}, halt}, 1, ""},
		{"eq", []float64{0, 2, 2}, nil, []Instr{{OpEQ, 0, 1, 2}, halt}, 1, ""},
		{"ne", []float64{0, 2, 2}, nil, []Instr{{OpNE, 0, 1, 2}, halt}, 0, ""},
		{"trunc", []float64{0, -2.7}, nil, []Instr{{OpTrunc, 0, 1, 0}, halt}, -2, ""},
		{"abs", []float64{0, -3}, nil, []Instr{{OpAbs, 0, 1, 0}, halt}, 3, ""},
		{"sqrt", []float64{0, 9}, nil, []Instr{{OpSqrt, 0, 1, 0}, halt}, 3, ""},
		{"sqrt-negative", []float64{0, -1}, nil, []Instr{{OpSqrt, 0, 1, 0}, halt}, math.NaN(), ""},
		{"floor", []float64{0, -2.3}, nil, []Instr{{OpFloor, 0, 1, 0}, halt}, -3, ""},
		{"ceil", []float64{0, 2.3}, nil, []Instr{{OpCeil, 0, 1, 0}, halt}, 3, ""},
		{"min", []float64{0, 2, 3}, nil, []Instr{{OpMin, 0, 1, 2}, halt}, 2, ""},
		{"max", []float64{0, 2, 3}, nil, []Instr{{OpMax, 0, 1, 2}, halt}, 3, ""},
		{"pow", []float64{0, 2, 10}, nil, []Instr{{OpPow, 0, 1, 2}, halt}, 1024, ""},
		{"jmp", []float64{0, 5}, nil, []Instr{{OpJmp, 2, 0, 0}, {OpMov, 0, 1, 0}, halt}, 0, ""},
		{"jz-taken", []float64{0, 0, 5}, nil, []Instr{{OpJZ, 2, 1, 0}, {OpMov, 0, 2, 0}, halt}, 0, ""},
		{"jz-not-taken", []float64{0, 1, 5}, nil, []Instr{{OpJZ, 2, 1, 0}, {OpMov, 0, 2, 0}, halt}, 5, ""},
		{"jnz-taken", []float64{0, 1, 5}, nil, []Instr{{OpJNZ, 2, 1, 0}, {OpMov, 0, 2, 0}, halt}, 0, ""},
		{"jnz-not-taken", []float64{0, 0, 5}, nil, []Instr{{OpJNZ, 2, 1, 0}, {OpMov, 0, 2, 0}, halt}, 5, ""},
		// OpLoop counts in r[B] and jumps to A, here over the mov.
		{"loop-ok", []float64{0, 5}, nil, []Instr{{OpLoop, 2, 0, 0}, {OpMov, 0, 1, 0}, halt}, 1, ""},
		{"loop-runaway", []float64{0, 100_000_000}, nil,
			[]Instr{{OpMov, 0, 1, 0}, {OpLoop, 2, 0, 0}, halt}, 0, "runaway"},
		{"bad-opcode", []float64{0}, nil, []Instr{{Op: 200}, halt}, 0, "bad opcode"},
		// OpLoopLT increments the loop variable r0 and the guard r1, then
		// jumps over r0 = r3 while r0 < r2, the bound above the guard.
		{"looplt-continues", []float64{0, 100_000_000 - 1, 10, 99}, nil, loopLTCase(), 1, ""},
		{"looplt-runaway", []float64{0, 100_000_000, 10, 99}, nil, loopLTCase(), 0, "runaway"},
		{"looplt-exits", []float64{9, 0, 10, 99}, nil, loopLTCase(), 99, ""},
		{"looplt-nan-exits", []float64{math.NaN(), 0, 10, 99}, nil, loopLTCase(), 99, ""},
		{"looplt-counts", []float64{0, 0, 10, 99}, nil, []Instr{
			{OpLoopLT, 0, 0, 1}, // 0: back to itself while r0 < 10
			halt,                // 1
		}, 10, ""},
		// Compare-and-branch: r0 = 5 unless the jump over the mov is
		// taken, which it is unless r1 <op> r2 holds — so on NaN too.
		{"jnlt-holds", []float64{0, 1, 2, 5}, nil, fusedCase(OpJNLT), 5, ""},
		{"jnlt-fails", []float64{0, 2, 2, 5}, nil, fusedCase(OpJNLT), 0, ""},
		{"jnlt-nan", []float64{0, math.NaN(), 2, 5}, nil, fusedCase(OpJNLT), 0, ""},
		{"jnle-holds", []float64{0, 2, 2, 5}, nil, fusedCase(OpJNLE), 5, ""},
		{"jnle-fails", []float64{0, 3, 2, 5}, nil, fusedCase(OpJNLE), 0, ""},
		{"jnle-nan", []float64{0, 2, math.NaN(), 5}, nil, fusedCase(OpJNLE), 0, ""},
		{"jngt-holds", []float64{0, 3, 2, 5}, nil, fusedCase(OpJNGT), 5, ""},
		{"jngt-fails", []float64{0, 2, 2, 5}, nil, fusedCase(OpJNGT), 0, ""},
		{"jngt-nan", []float64{0, math.NaN(), 2, 5}, nil, fusedCase(OpJNGT), 0, ""},
		{"jnge-holds", []float64{0, 2, 2, 5}, nil, fusedCase(OpJNGE), 5, ""},
		{"jnge-fails", []float64{0, 1, 2, 5}, nil, fusedCase(OpJNGE), 0, ""},
		{"jnge-nan", []float64{0, 2, math.NaN(), 5}, nil, fusedCase(OpJNGE), 0, ""},
		{"jneq-holds", []float64{0, 2, 2, 5}, nil, fusedCase(OpJNEQ), 5, ""},
		{"jneq-fails", []float64{0, 1, 2, 5}, nil, fusedCase(OpJNEQ), 0, ""},
		{"jneq-nan", []float64{0, math.NaN(), math.NaN(), 5}, nil, fusedCase(OpJNEQ), 0, ""},
		{"jnne-holds", []float64{0, 1, 2, 5}, nil, fusedCase(OpJNNE), 5, ""},
		{"jnne-fails", []float64{0, 2, 2, 5}, nil, fusedCase(OpJNNE), 0, ""},
		{"jnne-nan", []float64{0, math.NaN(), math.NaN(), 5}, nil, fusedCase(OpJNNE), 5, ""},
		// A tight counted loop: r0 counts 0..r1 by r2.
		{"loop", []float64{0, 10, 1, 0}, nil, []Instr{
			{OpLT, 3, 0, 1},  // 0: r3 = r0 < r1
			{OpJZ, 4, 3, 0},  // 1: exit when done
			{OpAdd, 0, 0, 2}, // 2: r0 += r2
			{OpJmp, 0, 0, 0}, // 3: back to cond
			halt,             // 4
		}, 10, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{Name: "test/" + tc.name, Code: tc.code, Consts: tc.consts, RegInit: tc.init}
			got, err := runProg(t, p, nil)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Fatalf("got %v, want NaN", got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// fusedCase is a compare-and-branch over r1 and r2 that jumps over
// r0 = r3 when taken.
func fusedCase(op Op) []Instr {
	return []Instr{{op, 2, 1, 2}, {OpMov, 0, 3, 0}, {Op: OpHalt}}
}

// loopLTCase is a rotated loop's back edge over loop variable r0, guard
// r1 and bound r2 that jumps over r0 = r3 when taken.
func loopLTCase() []Instr {
	return []Instr{{OpLoopLT, 2, 0, 1}, {OpMov, 0, 3, 0}, {Op: OpHalt}}
}

// twoCellOps pairs each two-cell compare with the compare-and-branch it
// fuses with two OpLoadAt.
var twoCellOps = []struct{ cells, regs Op }{
	{OpJNLTV, OpJNLT}, {OpJNLEV, OpJNLE}, {OpJNGTV, OpJNGT},
	{OpJNGEV, OpJNGE}, {OpJNEQV, OpJNEQ}, {OpJNNEV, OpJNNE},
}

// twoCellPrograms builds a two-cell compare of x.cell(r1) and
// y.cell(r2), x a 1-D view (ref 0) and y a collapsed strided column
// (ref 1), that jumps over r0 = r3 when taken, and the loadat, loadat,
// compare-and-branch sequence it replaces.
func twoCellPrograms(cells, regs Op, i, j float64) (fused, seq *Program) {
	refs := []Ref{
		{Matrix: "X", Binding: "x", ND: 1, Kind: RefView, Base: []int64{0}, HiBase: []int64{3}},
		{Matrix: "C", Binding: "y", ND: 2, Kind: RefView, Collapse: true, Base: []int64{0, 0}, HiBase: []int64{1, 3}},
	}
	fused = &Program{
		Name: "test/cells", RegInit: []float64{0, i, j, 5}, Refs: refs,
		Code: []Instr{{cells, 2, pack(0, 1), pack(1, 2)}, {OpMov, 0, 3, 0}, {Op: OpHalt}},
	}
	seq = &Program{
		Name: "test/cells", RegInit: []float64{0, i, j, 5, 0, 0}, Refs: refs,
		Code: []Instr{
			{OpLoadAt, 4, 0, 1}, {OpLoadAt, 5, 1, 2}, {regs, 4, 4, 5},
			{OpMov, 0, 3, 0}, {Op: OpHalt},
		},
	}
	return fused, seq
}

// runCells runs p over x and the column of grid, returning r0, or the
// text of the panic it ended with.
func runCells(p *Program, x, grid *matrix.Matrix) (r0 float64, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f := p.NewFrame()
	f.BindMatrix(0, x)
	f.BindMatrix(1, grid.Region([]int{0, 1}, []int{3, 2}))
	if err := f.RunCell(nil); err != nil {
		return 0, err.Error()
	}
	return f.regs[0], ""
}

// TestTwoCellCompare checks each two-cell compare against the loadat,
// loadat, compare-and-branch sequence it replaces: the same branch for
// every pair of cells in range, NaN on either side included, and for
// an index out of range on either side the same panic — matrix.Get's,
// the left side's when both are out of range.
func TestTwoCellCompare(t *testing.T) {
	nan := math.NaN()
	x := matrix.FromSlice([]float64{-1, nan, 2})
	grid := matrix.New(3, 4)
	for r, v := range []float64{2, math.Inf(-1), nan} {
		grid.Set(v, r, 1)
	}
	get := func(m *matrix.Matrix, i int) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		m.Get(i)
		return ""
	}
	for _, o := range twoCellOps {
		for _, i := range []float64{-1, 0, 1, 2, 2.9, 3, nan} {
			for _, j := range []float64{-0.5, 0, 1, 2, 3, 7} {
				fused, seq := twoCellPrograms(o.cells, o.regs, i, j)
				got, gotMsg := runCells(fused, x, grid)
				want, wantMsg := runCells(seq, x, grid)
				if got != want || gotMsg != wantMsg {
					t.Errorf("%s x.cell(%v) y.cell(%v): r0 %v, panic %q; loadat pair and %s: r0 %v, panic %q",
						o.cells, i, j, got, gotMsg, o.regs, want, wantMsg)
				}
				if wantMsg == "" {
					continue
				}
				// The panic is matrix.Get's on the first index out of range.
				first := get(x, int(i))
				if first == "" {
					first = get(grid.Slice(1, 1).Copy(), int(j))
				}
				if gotMsg != first {
					t.Errorf("%s x.cell(%v) y.cell(%v): panic %q, matrix.Get panics %q", o.cells, i, j, gotMsg, first)
				}
			}
		}
	}
}

// TestFusedBranchMatchesCompareJZ checks each compare-and-branch against
// the comparison-then-OpJZ pair it replaces, over every pair of a few
// operands including NaN and the infinities.
func TestFusedBranchMatchesCompareJZ(t *testing.T) {
	ops := []struct{ fused, cmp Op }{
		{OpJNLT, OpLT}, {OpJNLE, OpLE}, {OpJNGT, OpGT},
		{OpJNGE, OpGE}, {OpJNEQ, OpEQ}, {OpJNNE, OpNE},
	}
	vals := []float64{-1, 0, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, o := range ops {
		fused := &Program{Name: "test/fused", Code: fusedCase(o.fused)}
		pair := &Program{Name: "test/pair", Code: []Instr{
			{o.cmp, 4, 1, 2}, {OpJZ, 3, 4, 0}, {OpMov, 0, 3, 0}, {Op: OpHalt},
		}}
		for _, l := range vals {
			for _, r := range vals {
				fused.RegInit = []float64{0, l, r, 5}
				pair.RegInit = []float64{0, l, r, 5, 0}
				got, err := runProg(t, fused, nil)
				want, perr := runProg(t, pair, nil)
				if err != nil || perr != nil || got != want {
					t.Errorf("%s %v %v: %v (%v), %s+jz gives %v (%v)", o.fused, l, r, got, err, o.cmp, want, perr)
				}
			}
		}
	}
}

// TestLoadStoreAtOutOfRange checks that an out-of-range .cell index on a
// 1-D view — the inline path of OpLoadAt and OpStoreAt — panics with
// matrix.Get's text, for indices below and past the view and for a
// strided window.
func TestLoadStoreAtOutOfRange(t *testing.T) {
	base := matrix.New(3, 4)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			base.Set(float64(10*r+c), r, c)
		}
	}
	col := base.Region([]int{0, 1}, []int{3, 2}) // a 3x1 strided column
	mget := func(m *matrix.Matrix, i int) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		m.Get(i)
		return ""
	}
	colVec := base.Slice(1, 1).Copy()
	for _, idx := range []float64{-1, 3, 7.9, -0.5} {
		for _, op := range []Op{OpLoadAt, OpStoreAt} {
			code := []Instr{{OpLoadAt, 0, 0, 1}, {Op: OpHalt}}
			if op == OpStoreAt {
				code[0] = Instr{OpStoreAt, 0, 1, 0}
			}
			p := &Program{
				Name: "test/at", NCenter: 0, RegInit: []float64{0, idx},
				Refs: []Ref{{Matrix: "C", Binding: "c", ND: 2, Kind: RefView, Collapse: true,
					Base: []int64{0, 0}, HiBase: []int64{1, 3}}},
				Code: code,
			}
			f := p.NewFrame()
			f.BindMatrix(0, col)
			got := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				_ = f.RunCell(nil)
				return ""
			}()
			want := mget(colVec, int(idx))
			if want == "" && got == "" {
				continue // in range once truncated: -0.5 is index 0
			}
			if got != want {
				t.Errorf("%s at %v: panic %q, matrix.Get panics %q", op, idx, got, want)
			}
		}
	}
	// In range, the inline path reads and writes the strided window.
	p := &Program{
		Name: "test/at", RegInit: []float64{0, 2, 99},
		Refs: []Ref{{Matrix: "C", Binding: "c", ND: 2, Kind: RefView, Collapse: true,
			Base: []int64{0, 0}, HiBase: []int64{1, 3}}},
		Code: []Instr{{OpLoadAt, 0, 0, 1}, {OpStoreAt, 0, 1, 2}, {Op: OpHalt}},
	}
	f := p.NewFrame()
	f.BindMatrix(0, col)
	got, err := func() (float64, error) { err := f.RunCell(nil); return f.regs[0], err }()
	if err != nil || got != 21 || base.Get(2, 1) != 99 {
		t.Fatalf("c.cell(2) read %v (err %v), then base[2][1] = %v; want 21 and 99", got, err, base.Get(2, 1))
	}
}

func TestLoadStoreAffine(t *testing.T) {
	// One-dimensional shift: dst[i] = src[i-1], bound to len-4 vectors.
	src := matrix.FromSlice([]float64{10, 20, 30, 40})
	dst := matrix.FromSlice(make([]float64, 4))
	p := &Program{
		Name:      "test/shift",
		NCenter:   1,
		CenterReg: []int32{-1},
		RegInit:   []float64{0},
		Refs: []Ref{
			{Matrix: "D", Binding: "d", ND: 1, Base: []int64{0}, Coeff: []int64{1}},
			{Matrix: "S", Binding: "s", ND: 1, Base: []int64{-1}, Coeff: []int64{1}},
		},
		Code: []Instr{{OpLoad, 0, 1, 0}, {OpStore, 0, 0, 0}, {Op: OpHalt}},
	}
	f := p.NewFrame()
	f.BindMatrix(0, dst)
	f.BindMatrix(1, src)
	for i := int64(1); i < 4; i++ {
		if err := f.RunCell([]int64{i}); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	want := []float64{0, 10, 20, 30}
	for i, w := range want {
		if got := dst.Get(i); got != w {
			t.Fatalf("dst[%d] = %v, want %v", i, got, w)
		}
	}
	// Out-of-range read (center 0 → src[-1]) errors lazily with the
	// binding name, but only because the body touches it.
	if err := f.RunCell([]int64{0}); err == nil || !strings.Contains(err.Error(), `"s" out of range`) {
		t.Fatalf("expected out-of-range error naming binding, got %v", err)
	}
	// Out-of-range write.
	if err := f.RunCell([]int64{4}); err == nil || !strings.Contains(err.Error(), `"d" out of range`) {
		t.Fatalf("expected store out-of-range error, got %v", err)
	}
	// A pooled frame drops its matrices on Unbind and runs again once
	// rebound.
	f.Unbind()
	for i := range f.refs {
		if f.refs[i].data != nil {
			t.Fatalf("ref %d keeps its backing slice after Unbind", i)
		}
	}
	f.BindMatrix(0, dst)
	f.BindMatrix(1, src)
	if err := f.RunCell([]int64{2}); err != nil || dst.Get(2) != 20 {
		t.Fatalf("rebound frame: dst[2] = %v, err %v", dst.Get(2), err)
	}
	// An out-of-range ref the body never touches is not an error.
	quiet := &Program{
		Name:      "test/quiet",
		NCenter:   1,
		CenterReg: []int32{-1},
		RegInit:   []float64{0},
		Refs: []Ref{
			{Matrix: "S", Binding: "s", ND: 1, Base: []int64{-100}, Coeff: nil},
		},
		Code: []Instr{{Op: OpHalt}},
	}
	qf := quiet.NewFrame()
	qf.BindMatrix(0, src)
	if err := qf.RunCell([]int64{0}); err != nil {
		t.Fatalf("untouched out-of-range ref should not error: %v", err)
	}
}

func TestStridedViewBinding(t *testing.T) {
	// Bind a non-contiguous column view: strides must come from the
	// view, not the parent, and Backing addressing must hit the right
	// cells.
	base := matrix.New(3, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			base.Set(float64(3*r+c+1), r, c)
		}
	}
	col := base.Region([]int{0, 1}, []int{3, 2}) // middle column, 3x1
	p := &Program{
		Name:      "test/col",
		NCenter:   2,
		CenterReg: []int32{-1, -1},
		RegInit:   []float64{0, 100},
		Refs: []Ref{
			// 2-D cell ref (x, y) = (0, center_y).
			{Matrix: "C", Binding: "c", ND: 2, Base: []int64{0, 0}, Coeff: []int64{0, 0, 0, 1}},
		},
		Code: []Instr{{OpLoad, 0, 0, 0}, {OpStore, 0, 1, 0}, {Op: OpHalt}},
	}
	f := p.NewFrame()
	f.BindMatrix(0, col)
	for y := int64(0); y < 3; y++ {
		if err := f.RunCell([]int64{0, y}); err != nil {
			t.Fatalf("cell y=%d: %v", y, err)
		}
	}
	for y := 0; y < 3; y++ {
		if got := base.Get(y, 1); got != 100 {
			t.Fatalf("base[%d][1] = %v, want 100", y, got)
		}
	}
	if base.Get(0, 0) != 1 || base.Get(2, 2) != 9 {
		t.Fatal("cells outside the view were clobbered")
	}
}

func TestMalformedProgramPanics(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"bad-register", &Program{Name: "p", RegInit: []float64{0},
			Code: []Instr{{OpMov, 50, 0, 0}, {Op: OpHalt}}}},
		{"bad-ref", &Program{Name: "p", RegInit: []float64{0},
			Code: []Instr{{OpLoad, 0, 3, 0}, {Op: OpHalt}}}},
		{"jump-past-end", &Program{Name: "p", RegInit: []float64{0},
			Code: []Instr{{OpJmp, 99, 0, 0}, {Op: OpHalt}}}},
		{"missing-halt", &Program{Name: "p", RegInit: []float64{0},
			Code: []Instr{{OpMov, 0, 0, 0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f := tc.p.NewFrame()
			_ = f.RunCell(nil)
		})
	}
}

func TestDisassemble(t *testing.T) {
	p := &Program{
		Code:    []Instr{{OpAdd, 0, 1, 2}, {Op: OpHalt}},
		RegInit: []float64{0, 1.5, 2},
		Refs:    []Ref{{Matrix: "A", Binding: "a", ND: 1, Base: []int64{0}, Kind: RefView, HiBase: []int64{3}, Collapse: true}},
	}
	d := p.Disassemble()
	for _, want := range []string{"add", "halt", "reginit [0 1.5 2]", "ref 0 view A.a nd=1 base=[0] coeff=[] hibase=[3] hicoeff=[] collapse"} {
		if !strings.Contains(d, want) {
			t.Fatalf("disassembly lacks %q:\n%s", want, d)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Fatalf("unknown op rendering: %s", Op(200))
	}
}

// siteLog is a Caller that records each site it is handed and the
// view ref 0 window it sees, failing on fail.
type siteLog struct {
	f     *Frame
	sites []int
	views []string
	fail  error
}

func (c *siteLog) Call(site int) error {
	c.sites = append(c.sites, site)
	var m matrix.Matrix
	c.views = append(c.views, fmt.Sprint(c.f.View(0, &m).Shape(), m.Data()))
	return c.fail
}

// TestCallRunsThroughCaller: OpCall hands its site to the frame's
// Caller, which sees the statement's destination as the matrix view the
// AST tier binds; a caller's error stops the program, and a frame with
// no caller fails instead of calling anything.
func TestCallRunsThroughCaller(t *testing.T) {
	p := validCallProgram()
	p.Code = []Instr{{Op: OpCall, A: 1}, {Op: OpCall, A: 1}, {Op: OpHalt}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d := p.Disassemble()
	for _, want := range []string{"call 0 G(ref 1)\n", "call 1 F(call 0, ref 1) -> ref 0\n", "  0: call   1 0 0"} {
		if !strings.Contains(d, want) {
			t.Fatalf("disassembly lacks %q:\n%s", want, d)
		}
	}
	f := p.NewFrame()
	f.BindMatrix(0, matrix.FromSlice([]float64{1, 2, 3, 4}))
	f.BindMatrix(1, matrix.FromSlice([]float64{5, 6}))
	if err := f.RunCell(nil); err == nil || !strings.Contains(err.Error(), "no caller") {
		t.Fatalf("run without a caller: err = %v", err)
	}
	log := &siteLog{f: f}
	f.SetCaller(log)
	if err := f.RunCell(nil); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log.sites) != "[1 1]" || log.views[0] != "[2] [2 3]" {
		t.Fatalf("caller saw sites %v, views %v", log.sites, log.views)
	}
	log.sites, log.fail = nil, fmt.Errorf("callee failed")
	if err := f.RunCell(nil); err != log.fail || len(log.sites) != 1 {
		t.Fatalf("failing call: err = %v after %d calls, want the caller's error after 1", err, len(log.sites))
	}
}

// TestWritesCenter checks which operands count as a write of a center
// register: a destination A, OpLoop's counter B, OpLoopLT's variable B
// and guard C. Stores, branches, two-cell compares and calls write
// none, and OpLoopLT's bound at C+1 is only read.
func TestWritesCenter(t *testing.T) {
	for _, c := range []struct {
		in   Instr
		want bool
	}{
		{Instr{OpMov, 2, 0, 0}, true},
		{Instr{OpMov, 0, 2, 2}, false},
		{Instr{OpLoadAt, 2, 0, 0}, true},
		{Instr{OpSumV, 2, 0, 0}, true},
		{Instr{OpLoop, 0, 2, 0}, true},
		{Instr{OpLoop, 2, 0, 0}, false},
		{Instr{OpLoopLT, 0, 2, 0}, true},
		{Instr{OpLoopLT, 0, 0, 2}, true},
		{Instr{OpLoopLT, 2, 0, 1}, false},
		{Instr{OpStore, 2, 2, 0}, false},
		{Instr{OpStoreAt, 2, 2, 2}, false},
		{Instr{OpJNZ, 2, 2, 0}, false},
		{Instr{OpJNLT, 2, 2, 2}, false},
		{Instr{OpJNLTV, 2, pack(2, 2), pack(2, 2)}, false},
		{Instr{OpCall, 2, 0, 0}, false},
	} {
		p := &Program{NCenter: 2, CenterReg: []int32{-1, 2}, Code: []Instr{c.in, {Op: OpHalt}}}
		if got := p.writesCenter(); got != c.want {
			t.Errorf("writesCenter(%v %d %d %d) = %v, want %v", c.in.Op, c.in.A, c.in.B, c.in.C, got, c.want)
		}
	}
}
