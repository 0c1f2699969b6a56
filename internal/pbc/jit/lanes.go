package jit

import (
	"math"
	"math/bits"
	"slices"
)

// A row whose cells carry nothing from one to the next is a map over the
// row, and runs as one: laneRow runs each instruction once across a
// chunk of the row's cells (its lanes), with every register widened to
// one value per lane, so a cell costs its share of one dispatch per
// instruction and chunk instead of one dispatch per instruction. Whether
// a row may run so is decided three times: from the code alone, once per
// frame (laneBody); from the addresses the cell refs are bound to, once
// per box shape (rowApart); and from the windows of the sums' and dot
// products' views, once per row (windowsFit). A cell rule with an
// if/else reaches laneBody if-converted (ifConverted): both arms, then
// sel.

// laneBuf is the size, in float64s, of the lane buffer row keeps on the
// stack, which Go zeroes at every row. Each register gets
// laneBuf/len(regs) lanes of it.
const laneBuf = 256

// rowApart's verdicts, cached in Frame.apart for the box shape
// setCarries last computed carries for.
const (
	apartUnknown uint8 = iota // not yet checked for this box shape
	apartNever                // the rows overlap, or their distance varies
	apartAlways               // no row overlaps
)

// laneRegs gives the register an instruction of a lane body writes and
// the registers it reads, -1 for none; ok is false for an op no lane
// body may hold. The ops are the ones that are pure per cell and cannot
// fail in a row walk (a walk binds every cell ref and view in range, and
// laneable sends a row whose dotv lengths differ to run), and of those
// only the ones corpus and generated rules use: min, max, abs and trunc
// come from generated rules, the compares and sel from if-converted ones
// (ifConverted), dotv from MatrixMultiply's base rule, sumv from
// RollingSum's (over a rank-1 view only, laneBody). sel reads the
// register it writes.
func laneRegs(in Instr) (w int32, r [3]int32, ok bool) {
	switch in.Op {
	case OpMov, OpNeg, OpAbs, OpTrunc:
		return in.A, [3]int32{in.B, -1, -1}, true
	case OpAdd, OpSub, OpMul, OpMin, OpMax, OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return in.A, [3]int32{in.B, in.C, -1}, true
	case OpSel:
		return in.A, [3]int32{in.A, in.B, in.C}, true
	case OpLoad, OpSumV, OpDotV:
		return in.A, [3]int32{-1, -1, -1}, true
	case OpStore:
		return -1, [3]int32{in.B, -1, -1}, true
	}
	return -1, [3]int32{-1, -1, -1}, false
}

// laneBody reports whether the program's rows may run across their
// lanes: it has at most 64 registers; its code is straight-line, lane
// ops (laneRegs) then one trailing halt, so nothing can fail or branch
// mid-row; every sum is over a view of DSL rank 1, a window of one
// dimension that never collapses; and no register is read at or before
// its first write, so none carries a value from one cell to the next —
// a register is either written before every read or never written at
// all. written and
// uniform are then the registers the body writes, and those it reads
// but never writes, which all lanes share. It reads Code and the
// register count alone, as writesCenter does, so a compiled program and
// its decoded copy agree, and it allocates nothing.
func (p *Program) laneBody() (ok bool, written, uniform uint64) {
	nr := len(p.RegInit)
	if nr == 0 || nr > 64 || len(p.Code) == 0 || p.Code[len(p.Code)-1].Op != OpHalt {
		return false, 0, 0
	}
	code := p.Code[:len(p.Code)-1]
	for _, in := range code {
		w, _, ok := laneRegs(in)
		if !ok || in.Op == OpSumV && p.Refs[in.B].ND != 1 {
			return false, 0, 0
		}
		if w >= 0 {
			written |= 1 << w
		}
	}
	var seen uint64
	for _, in := range code {
		w, reads, _ := laneRegs(in)
		for _, r := range reads {
			switch {
			case r < 0 || seen&(1<<r) != 0:
			case written&(1<<r) != 0:
				return false, 0, 0
			default:
				uniform |= 1 << r
			}
		}
		if w >= 0 {
			seen |= 1 << w
		}
	}
	return true, written, uniform
}

// row runs the bound row of left+1 cells at center: across its lanes
// when the body and the row's addresses allow it (laneable), otherwise
// through run, or, where a view's extent changes along the row, which
// run's halt step does not follow, cell by cell (cells).
func (f *Frame) row(center []int64, left int64) error {
	if f.laneable(left) {
		var buf [laneBuf]float64
		f.laneRow(left, buf[:])
		return nil
	}
	if f.grows {
		return f.cells(center, left)
	}
	return f.run(left)
}

// cells runs the bound row of left+1 cells through RunCell at each of
// its centers in turn, stepping rowAt, and leaves the frame as a walked
// row does: every ref at the row's last cell, as RunCell binds it there,
// and each view's extent at the row's first, where walk's carries
// expect it.
func (f *Frame) cells(center []int64, left int64) error {
	m := f.carryOf[0]
	for c := int64(0); ; c++ {
		center[m.k] = f.rowAt
		if err := f.RunCell(center); err != nil {
			return err
		}
		if c == left {
			break
		}
		f.rowAt += m.dir
	}
	for i := range f.refs {
		if rb := &f.refs[i]; rb.dext != 0 {
			rb.vext[0] -= left * rb.dext
		}
	}
	return nil
}

// laneable reports whether the bound row of left+1 cells may run across
// its lanes.
func (f *Frame) laneable(left int64) bool {
	return left > 0 && f.lanes && (!f.views || f.windowsFit(left)) && f.rowApart(left)
}

// windowsFit reports whether every OpSumV and OpDotV of the body may run
// across the lanes of the bound row of left+1 cells: a dot's two views
// have one length, the same at every cell of the row, and no view's
// windows over the row meet the cells a stored ref visits over it, where
// the two are bound into one array (windowApart). A view's extent may
// change along a row (dext) and from row to row of a box that splits
// into rows (boxBinds), so the check runs at every row, at the row's own
// addresses. A row whose dot lengths differ at its first cell runs
// through run, which fails there with errDotLen; one whose dot windows
// grow runs cell by cell.
func (f *Frame) windowsFit(left int64) bool {
	code := f.prog.Code
	for _, in := range code {
		var views [2]int32
		switch in.Op {
		case OpSumV:
			views = [2]int32{in.B, in.B}
		case OpDotV:
			a, b := &f.refs[in.B], &f.refs[in.C]
			if a.vext[0] != b.vext[0] || a.dext != 0 || b.dext != 0 {
				return false
			}
			views = [2]int32{in.B, in.C}
		default:
			continue
		}
		for _, s := range code {
			if s.Op != OpStore {
				continue
			}
			a := &f.refs[s.A]
			for _, j := range views {
				if v := &f.refs[j]; sameArray(a.data, v.data) && !windowApart(a, v, left) {
					return false
				}
			}
		}
	}
	return true
}

// rowApart reports whether the rows of left+1 cells of the box shape
// setCarries last computed carries for may run across their lanes: no
// lane stores a cell that another lane loads or stores (overlap). The
// verdict holds for every row of the box shape, so it is cached in
// f.apart until setCarries computes new carries.
func (f *Frame) rowApart(left int64) bool {
	if f.apart == apartUnknown {
		f.apart = apartAlways
		if f.overlap(left) {
			f.apart = apartNever
		}
	}
	return f.apart == apartAlways
}

// overlap checks every stored ref against every cell ref the body loads
// or stores, itself included, where the two are bound into one backing
// array. Such a pair must have equal coefficients and equal strides, so
// that the two are a fixed distance apart at every center and one
// verdict holds for every row, and must be apart over a row. Refs that
// differ there — transposed or differently indexed views of one matrix —
// make every row of the box run cell by cell; no corpus rule binds such
// a pair. overlap reports a pair that fails either test. The windows an
// OpSumV or OpDotV reads are windowsFit's, at every row.
func (f *Frame) overlap(left int64) bool {
	code := f.prog.Code
	for _, s := range code {
		if s.Op != OpStore {
			continue
		}
		for _, o := range code {
			var j int32
			switch o.Op {
			case OpLoad:
				j = o.B
			case OpStore:
				j = o.A
			default:
				continue
			}
			a, b := &f.refs[s.A], &f.refs[j]
			if !sameArray(a.data, b.data) {
				continue
			}
			if !slices.Equal(f.prog.Refs[s.A].Coeff, f.prog.Refs[j].Coeff) || !slices.Equal(a.strides, b.strides) || !apart(a, b, left) {
				return true
			}
		}
	}
	return false
}

// sameArray reports whether x and y are slices of one backing array,
// which they are exactly when they end at the same element of it: every
// matrix view, whatever its offset, slices its root's whole array.
func sameArray(x, y []float64) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[:cap(x)][cap(x)-1] == &y[:cap(y)][cap(y)-1]
}

// apart reports whether two refs bound into one array keep out of each
// other's way over a row of left+1 cells: the same cell in every lane,
// or disjoint address ranges. Positions are counted from the array's
// end, which the two slices share.
func apart(a, b *refBind, left int64) bool {
	pa, pb := a.off-cap(a.data), b.off-cap(b.data)
	ca, cb := a.carry[0], b.carry[0]
	if pa == pb && ca == cb && ca != 0 {
		return true
	}
	loA, hiA := span(pa, ca, left)
	loB, hiB := span(pb, cb, left)
	return hiA < loB || hiB < loA
}

// windowApart reports whether a cell ref and a view bound into one array
// keep out of each other's way over a row of left+1 cells: the cells the
// one visits and the windows the other covers at the cells of the row
// lie in disjoint address ranges. Sums and dots read a view's first
// dimension alone. A window's first and last elements are affine in the
// cell, so every window lies in the hull of the row's first and last
// ones; an empty window covers nothing, and is counted as reaching one
// element before its start, which can only widen the hull.
func windowApart(a, v *refBind, left int64) bool {
	loA, hiA := span(a.off-cap(a.data), a.carry[0], left)
	first, last := v.vext[0], v.vext[0]+left*v.dext
	if first == 0 && last == 0 {
		return true
	}
	pos, st := v.off-cap(v.data), v.vstride[0]
	loV, hiV := span(pos, v.carry[0], left)
	for _, e := range [2]int{pos + int(first-1)*st, pos + int(left)*v.carry[0] + int(last-1)*st} {
		loV, hiV = min(loV, e), max(hiV, e)
	}
	return hiA < loV || hiV < loA
}

// span is the least and greatest of pos, pos+carry, …, pos+left·carry.
func span(pos, carry int, left int64) (lo, hi int) {
	end := pos + int(left)*carry
	return min(pos, end), max(pos, end)
}

// laneRow runs the bound row of left+1 cells across its lanes, in buf:
// chunk by chunk of lanes, each instruction once over the chunk, each
// lane doing the same IEEE operations in the same order as run would at
// its cell, each op its own loop so none can be fused with the next.
// Each register has len(buf)/len(regs) lanes; a register the body
// reads and never writes holds the same value in every lane, bar the
// row's center register, which, when the body reads it, holds each
// lane's coordinate. Afterwards the frame is as run leaves it: every
// ref at the row's last cell (a view whose extent changes along the row
// keeps the first cell's, where walk's carries expect it), rowAt and the
// row's center register at its coordinate, and every register the body
// writes holding the last lane's value. rowApart and laneBody decide
// that no lane can see another's stores and no register carries a value
// between cells, so the lanes' order within an instruction does not
// matter, and that nothing can fail, so no row stops mid-way.
func (f *Frame) laneRow(left int64, buf []float64) {
	regs := f.regs
	w := len(buf) / len(regs) // lanes per register: register r's are buf[r*w:]
	n := int(left) + 1
	m := min(n, w)
	for u := f.uniform; u != 0; u &= u - 1 {
		r := bits.TrailingZeros64(u)
		v := regs[r]
		lanes := buf[r*w : r*w+m]
		for l := range lanes {
			lanes[l] = v
		}
	}
	code := f.prog.Code[:len(f.prog.Code)-1]
	dir := f.carryOf[0].dir
	for at := 0; at < n; at += m {
		m = min(m, n-at)
		if r := int(f.rowReg); r >= 0 && f.uniform>>r&1 != 0 {
			c := f.rowAt + int64(at)*dir
			lanes := buf[r*w : r*w+m]
			for l := range lanes {
				lanes[l] = float64(c)
				c += dir
			}
		}
		for _, in := range code {
			switch in.Op {
			case OpLoad:
				rb := &f.refs[in.B]
				d := buf[int(in.A)*w:][:m]
				st := rb.carry[0]
				off := rb.off + at*st
				// A row along a contiguous dimension copies with one
				// bounds check, not one per lane.
				if st == 1 {
					src := rb.data[off : off+m]
					for l, v := range src {
						d[l] = v
					}
					break
				}
				for l := range d {
					d[l] = rb.data[off]
					off += st
				}
			case OpStore:
				rb := &f.refs[in.A]
				x := buf[int(in.B)*w:][:m]
				st := rb.carry[0]
				off := rb.off + at*st
				if st == 1 {
					dst := rb.data[off : off+m]
					for l, v := range x {
						dst[l] = v
					}
					break
				}
				for _, v := range x {
					rb.data[off] = v
					off += st
				}
			case OpMov:
				d, x := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m]
				for l, v := range x {
					d[l] = v
				}
			case OpNeg:
				d, x := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m]
				for l, v := range x {
					d[l] = -v
				}
			case OpAbs:
				d, x := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m]
				for l, v := range x {
					d[l] = math.Abs(v)
				}
			case OpTrunc:
				d, x := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m]
				for l, v := range x {
					d[l] = math.Trunc(v)
				}
			case OpAdd:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = v + y[l]
				}
			case OpSub:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = v - y[l]
				}
			case OpMul:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = v * y[l]
				}
			case OpMin:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = math.Min(v, y[l])
				}
			case OpMax:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = math.Max(v, y[l])
				}
			case OpLT:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = b2f(v < y[l])
				}
			case OpLE:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = b2f(v <= y[l])
				}
			case OpGT:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = b2f(v > y[l])
				}
			case OpGE:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = b2f(v >= y[l])
				}
			case OpEQ:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = b2f(v == y[l])
				}
			case OpNE:
				d, x, y := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range x {
					d[l] = b2f(v != y[l])
				}
			case OpSel:
				d, c, x := buf[int(in.A)*w:][:m], buf[int(in.B)*w:][:m], buf[int(in.C)*w:][:m]
				for l, v := range c {
					if v != 0 {
						d[l] = x[l]
					}
				}
			case OpSumV:
				f.laneSum(in, at, buf[int(in.A)*w:][:m])
			case OpDotV:
				f.laneDot(in, at, buf[int(in.A)*w:][:m])
			}
		}
	}
	for u := f.written; u != 0; u &= u - 1 {
		r := bits.TrailingZeros64(u)
		regs[r] = buf[r*w+m-1]
	}
	for i := range f.refs {
		f.refs[i].off += int(left) * f.refs[i].carry[0]
	}
	f.rowAt += left * dir
	if r := f.rowReg; r >= 0 {
		regs[r] = float64(f.rowAt)
	}
}

// laneDot runs the OpDotV in across the lanes of a row's chunk that
// starts at lane at, into acc, one sum per lane. Each lane's sum starts
// at 0 and takes acc += a[k]*b[k] once per k, k ascending: OpDotV's
// order for the lane's cell, so each sum is bit for bit the one run
// computes; only the lanes interleave. Where a is one vector for the
// whole row and b moves by one element per cell, as MatrixMultiply's
// A.row(y) and B.column(x) do along a row of x, eight lanes at a time
// keep their sums in registers over all of k, reading eight adjacent
// elements of b per k (a tile's rows are 16 cells at the default grain,
// too short to stream acc through memory once per k); the rest run with
// k outermost and their sums in acc. windowsFit has checked the lengths.
func (f *Frame) laneDot(in Instr, at int, acc []float64) {
	a, b := &f.refs[in.B], &f.refs[in.C]
	ca, cb := a.carry[0], b.carry[0]
	oa, ob := a.off+at*ca, b.off+at*cb
	sa, sb := a.vstride[0], b.vstride[0]
	n := int(a.vext[0])
	l := 0
	if ca == 0 && cb == 1 {
		for ; l+8 <= len(acc); l += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			pa, pb := oa, ob+l
			for range n {
				x, y := a.data[pa], b.data[pb:pb+8]
				s0 += x * y[0]
				s1 += x * y[1]
				s2 += x * y[2]
				s3 += x * y[3]
				s4 += x * y[4]
				s5 += x * y[5]
				s6 += x * y[6]
				s7 += x * y[7]
				pa += sa
				pb += sb
			}
			acc[l], acc[l+1], acc[l+2], acc[l+3] = s0, s1, s2, s3
			acc[l+4], acc[l+5], acc[l+6], acc[l+7] = s4, s5, s6, s7
		}
	}
	acc = acc[l:]
	clear(acc)
	oa, ob = oa+l*ca, ob+l*cb
	for range n {
		pa, pb := oa, ob
		for l := range acc {
			acc[l] += a.data[pa] * b.data[pb]
			pa += ca
			pb += cb
		}
		oa += sa
		ob += sb
	}
}

// laneSum runs the OpSumV in across the lanes of a row's chunk that
// starts at lane at, into acc, one sum per lane. Lane l's window starts
// at off + l·carry and holds ext + l·dext elements, vstride apart; its
// sum starts at 0 and adds them in ascending order, OpSumV's order for
// the lane's cell, so each sum is bit for bit the one run computes: only
// the lanes interleave, and no lane's sum is taken from another's. Where
// the lanes share their start and the window is contiguous, as
// RollingSum's A.region(0, i+1) is along a row of i, eight lanes at a
// time keep their sums in registers over the eight's shortest window,
// each adding the same element per step, then each adds its own tail;
// the rest run with k outermost over the shortest of their windows,
// their sums in acc, then each its tail. An empty window sums to 0.
// boxBinds has checked that no lane's extent is below 0.
func (f *Frame) laneSum(in Instr, at int, acc []float64) {
	v := &f.refs[in.B]
	c, st, dext := v.carry[0], v.vstride[0], int(v.dext)
	off := v.off + at*c
	ext := int(v.vext[0]) + at*dext // lane 0's
	clear(acc)
	l := 0
	if c == 0 && st == 1 {
		for ; l+8 <= len(acc); l += 8 {
			e := ext + l*dext
			n := min(e, e+7*dext)
			// The sums start from acc's zeros rather than a constant, so
			// the compiler cannot fold eight identical chains into one.
			s0, s1, s2, s3 := acc[l], acc[l+1], acc[l+2], acc[l+3]
			s4, s5, s6, s7 := acc[l+4], acc[l+5], acc[l+6], acc[l+7]
			for _, x := range v.data[off : off+n] {
				s0 += x
				s1 += x
				s2 += x
				s3 += x
				s4 += x
				s5 += x
				s6 += x
				s7 += x
			}
			acc[l], acc[l+1], acc[l+2], acc[l+3] = s0, s1, s2, s3
			acc[l+4], acc[l+5], acc[l+6], acc[l+7] = s4, s5, s6, s7
			for j := range 8 {
				s := acc[l+j]
				for _, x := range v.data[off+n : off+e+j*dext] {
					s += x
				}
				acc[l+j] = s
			}
		}
	}
	acc, off, ext = acc[l:], off+l*c, ext+l*dext
	if len(acc) == 0 {
		return
	}
	n := min(ext, ext+(len(acc)-1)*dext)
	for k, o := 0, off; k < n; k++ {
		p := o
		for j := range acc {
			acc[j] += v.data[p]
			p += c
		}
		o += st
	}
	for j := range acc {
		s, p := acc[j], off+j*c+n*st
		for range ext + j*dext - n {
			s += v.data[p]
			p += st
		}
		acc[j] = s
	}
}
