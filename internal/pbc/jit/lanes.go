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
// per box shape (rowApart); and from the lengths and windows of the dot
// products' views, once per row (dotsFit). A cell rule with an if/else
// reaches laneBody if-converted (ifConverted): both arms, then sel.

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
// (ifConverted), dotv from MatrixMultiply's base rule. sel reads the
// register it writes.
func laneRegs(in Instr) (w int32, r [3]int32, ok bool) {
	switch in.Op {
	case OpMov, OpNeg, OpAbs, OpTrunc:
		return in.A, [3]int32{in.B, -1, -1}, true
	case OpAdd, OpSub, OpMul, OpMin, OpMax, OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return in.A, [3]int32{in.B, in.C, -1}, true
	case OpSel:
		return in.A, [3]int32{in.A, in.B, in.C}, true
	case OpLoad, OpDotV:
		return in.A, [3]int32{-1, -1, -1}, true
	case OpStore:
		return -1, [3]int32{in.B, -1, -1}, true
	}
	return -1, [3]int32{-1, -1, -1}, false
}

// laneBody reports whether the program's rows may run across their
// lanes: it has at most 64 registers; its code is straight-line, lane
// ops (laneRegs) then one trailing halt, so nothing can fail or branch
// mid-row; and no register is read at or before its first write, so
// none carries a value from one cell to the next — a register is either
// written before every read or never written at all. written and
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
		if !ok {
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

// row runs the bound row of left+1 cells: across its lanes when the
// body and the row's addresses allow it (laneable), otherwise through
// run.
func (f *Frame) row(left int64) error {
	if !f.laneable(left) {
		return f.run(left)
	}
	var buf [laneBuf]float64
	f.laneRow(left, buf[:])
	return nil
}

// laneable reports whether the bound row of left+1 cells may run across
// its lanes.
func (f *Frame) laneable(left int64) bool {
	return left > 0 && f.lanes && (!f.dots || f.dotsFit(left)) && f.rowApart(left)
}

// dotsFit reports whether every OpDotV of the body may run across the
// lanes of the bound row of left+1 cells: its two views have one length,
// and neither view's window over the row meets the cells a stored ref
// visits over it, where the two are bound into one array (windowApart).
// A view's extent is the same at every cell of a walked row, but not
// from row to row of a box that splits into rows (boxBinds), so the
// check runs at every row, at the row's own addresses. A row whose
// lengths differ runs through run, which fails at its first cell with
// errDotLen.
func (f *Frame) dotsFit(left int64) bool {
	code := f.prog.Code
	for _, in := range code {
		if in.Op != OpDotV {
			continue
		}
		if f.refs[in.B].vext[0] != f.refs[in.C].vext[0] {
			return false
		}
		for _, s := range code {
			if s.Op != OpStore {
				continue
			}
			a := &f.refs[s.A]
			for _, j := range [2]int32{in.B, in.C} {
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
// OpDotV reads are dotsFit's, at every row.
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
// one visits and the window the other covers at every cell of the row
// lie in disjoint address ranges. An empty window covers nothing.
func windowApart(a, v *refBind, left int64) bool {
	loA, hiA := span(a.off-cap(a.data), a.carry[0], left)
	loV, hiV := span(v.off-cap(v.data), v.carry[0], left)
	for d, n := range v.vext[:v.vnd] {
		if n == 0 {
			return true
		}
		lo, hi := span(0, v.vstride[d], n-1)
		loV, hiV = loV+lo, hiV+hi
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
// lane's coordinate. Afterwards
// the frame is as run leaves it: every ref at the row's last cell, rowAt
// and the row's center register at its coordinate, and every register
// the body writes holding the last lane's value. rowApart and laneBody
// decide that no lane can see another's stores and no register carries
// a value between cells, so the lanes' order within an instruction does
// not matter, and that nothing can fail, so no row stops mid-way.
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
// k outermost and their sums in acc. dotsFit has checked the lengths.
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
