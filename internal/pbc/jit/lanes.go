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
// a row may run so is decided twice: from the code alone, once per frame
// (laneBody), and from the addresses the refs are bound to, once per box
// shape (rowApart).

// laneBuf is the size, in float64s, of the lane buffer row keeps on the
// stack. Each register gets laneBuf/len(regs) lanes of it.
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
// fail in a row walk (a walk binds every cell ref in range), and of
// those only the ones corpus and generated rules use in straight-line
// bodies: min, max, abs and trunc come from generated rules.
func laneRegs(in Instr) (w, x, y int32, ok bool) {
	switch in.Op {
	case OpMov, OpNeg, OpAbs, OpTrunc:
		return in.A, in.B, -1, true
	case OpAdd, OpSub, OpMul, OpMin, OpMax:
		return in.A, in.B, in.C, true
	case OpLoad:
		return in.A, -1, -1, true
	case OpStore:
		return -1, in.B, -1, true
	}
	return -1, -1, -1, false
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
		w, _, _, ok := laneRegs(in)
		if !ok {
			return false, 0, 0
		}
		if w >= 0 {
			written |= 1 << w
		}
	}
	var seen uint64
	for _, in := range code {
		w, x, y, _ := laneRegs(in)
		for _, r := range [2]int32{x, y} {
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
	return left > 0 && f.lanes && f.rowApart(left)
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

// overlap checks every stored ref against every ref the body loads or
// stores, itself included, where the two are bound into one backing
// array. Such a pair must have equal coefficients and equal strides, so
// that the two are a fixed distance apart at every center and one
// verdict holds for every row, and must be apart over a row (apart).
// Refs that differ there — transposed or differently indexed views of
// one matrix — make every row of the box run cell by cell; no corpus
// rule binds such a pair. overlap reports a pair that fails either
// test.
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
// row's center register, which holds each lane's coordinate. Afterwards
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
		if r := int(f.rowReg); r >= 0 {
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
