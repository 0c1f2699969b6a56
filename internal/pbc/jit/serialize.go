package jit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Programs are the one compiled artifact that persists to disk as is:
// unlike live execution plans (analysis pointers), a Program is plain
// exported data, call sites included (a callee is a name). The unit
// stored is a whole transform's program set — rule index → bytecode —
// because warm-starting half a transform would still pay the lowering
// pass for the other half.
//
// The payload is a small length-prefixed binary format, written and
// read field by field in Program's order:
//
//	set     = uvarint(count) { varint(rule) program }   rules ascending
//	program = str(Name) varint(NCenter) ints(CenterReg)
//	          floats(Consts) floats(RegInit)
//	          uvarint(len) { byte(Op) varint(A) varint(B) varint(C) }
//	          uvarint(len) { ref } uvarint(len) { call }
//	ref     = str(Matrix) str(Binding) varint(ND) byte(Kind)
//	          byte(Collapse) ints(Base) ints(Coeff) ints(HiBase) ints(HiCoeff)
//	call    = str(Fn) varint(Dest) uvarint(len) { byte(Nested) varint(N) }
//	str     = uvarint(len) bytes
//	ints    = uvarint(len) { varint }
//	floats  = uvarint(len) { 8-byte little-endian IEEE 754 bits }
//
// An empty slice and a nil one encode alike and decode as nil. The
// artifact schema (artifact.SchemaVersion) versions the format.

// EncodePrograms serializes a transform's jit program set (rule index →
// program) for the artifact disk tier. Equal sets encode to equal bytes.
func EncodePrograms(progs map[int]*Program) ([]byte, error) {
	rules := make([]int, 0, len(progs))
	size := binary.MaxVarintLen64
	for ri, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("jit: encoding programs: rule %d: nil program", ri)
		}
		rules = append(rules, ri)
		size += p.encodedSizeHint()
	}
	slices.Sort(rules)
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, uint64(len(rules)))
	for _, ri := range rules {
		b = binary.AppendVarint(b, int64(ri))
		b = progs[ri].appendTo(b)
	}
	return b, nil
}

// encodedSizeHint estimates p's encoded size, two bytes a varint, so
// that a program set encodes into one allocation.
func (p *Program) encodedSizeHint() int {
	n := 16 + len(p.Name) + 2*len(p.CenterReg) + 8*(len(p.Consts)+len(p.RegInit)) + 7*len(p.Code)
	for i := range p.Refs {
		r := &p.Refs[i]
		n += 12 + len(r.Matrix) + len(r.Binding) + 2*(len(r.Base)+len(r.Coeff)+len(r.HiBase)+len(r.HiCoeff))
	}
	for i := range p.Calls {
		n += 4 + len(p.Calls[i].Fn) + 3*len(p.Calls[i].Args)
	}
	return n
}

func (p *Program) appendTo(b []byte) []byte {
	b = appendString(b, p.Name)
	b = binary.AppendVarint(b, int64(p.NCenter))
	b = binary.AppendUvarint(b, uint64(len(p.CenterReg)))
	for _, r := range p.CenterReg {
		b = binary.AppendVarint(b, int64(r))
	}
	b = appendFloats(b, p.Consts)
	b = appendFloats(b, p.RegInit)
	b = binary.AppendUvarint(b, uint64(len(p.Code)))
	for _, in := range p.Code {
		b = append(b, byte(in.Op))
		b = binary.AppendVarint(b, int64(in.A))
		b = binary.AppendVarint(b, int64(in.B))
		b = binary.AppendVarint(b, int64(in.C))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Refs)))
	for i := range p.Refs {
		r := &p.Refs[i]
		b = appendString(b, r.Matrix)
		b = appendString(b, r.Binding)
		b = binary.AppendVarint(b, int64(r.ND))
		collapse := byte(0)
		if r.Collapse {
			collapse = 1
		}
		b = append(b, byte(r.Kind), collapse)
		b = appendInts(b, r.Base)
		b = appendInts(b, r.Coeff)
		b = appendInts(b, r.HiBase)
		b = appendInts(b, r.HiCoeff)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Calls)))
	for i := range p.Calls {
		c := &p.Calls[i]
		b = appendString(b, c.Fn)
		b = binary.AppendVarint(b, int64(c.Dest))
		b = binary.AppendUvarint(b, uint64(len(c.Args)))
		for _, a := range c.Args {
			nested := byte(0)
			if a.Nested {
				nested = 1
			}
			b = append(b, nested)
			b = binary.AppendVarint(b, int64(a.N))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func appendInts(b []byte, vs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// DecodePrograms deserializes a program set and validates every program
// before returning it. Every length is checked against the bytes that
// remain before anything is allocated, and bytes left over after the
// last program reject the payload. Validation is not optional: the VM
// dispatch loop intentionally has no bounds checks (see run), so a
// program that decoded cleanly from a tampered or torn file could
// otherwise index outside its register file or jump past its code. A
// set that fails validation is rejected whole.
func DecodePrograms(payload []byte) (map[int]*Program, error) {
	d := decoder{b: payload}
	n := d.count(8) // a rule index and a program take 8 bytes at least
	progs := make(map[int]*Program, n)
	var prev int64
	for i := 0; i < n; i++ {
		ri := d.varint()
		if i > 0 && ri <= prev {
			d.fail("rule %d after rule %d", ri, prev)
		}
		prev = ri
		p := d.program()
		if d.err != nil {
			break
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("jit: rule %d: %w", ri, err)
		}
		progs[int(ri)] = p
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("jit: decoding programs: %w", d.err)
	}
	return progs, nil
}

var errTruncated = errors.New("truncated payload")

// decoder reads the program codec from b, keeping the first error;
// after one, every read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int32 reads a varint that must fit an int32 (a register, ref, jump
// target or constant index).
func (d *decoder) i32() int32 {
	v := d.varint()
	if v != int64(int32(v)) {
		d.fail("operand %d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errTruncated
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// count reads a length whose elements each take at least min bytes,
// rejecting one that the remaining payload cannot hold.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/min) {
		d.err = errTruncated
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) floats() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
	}
	return fs
}

func (d *decoder) ints() []int64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.varint()
	}
	return vs
}

func (d *decoder) program() *Program {
	p := &Program{Name: d.str(), NCenter: int(d.varint())}
	if n := d.count(1); n > 0 {
		p.CenterReg = make([]int32, n)
		for i := range p.CenterReg {
			p.CenterReg[i] = d.i32()
		}
	}
	p.Consts = d.floats()
	p.RegInit = d.floats()
	if n := d.count(4); n > 0 {
		p.Code = make([]Instr, n)
		for i := range p.Code {
			p.Code[i] = Instr{Op: Op(d.u8()), A: d.i32(), B: d.i32(), C: d.i32()}
		}
	}
	if n := d.count(9); n > 0 {
		p.Refs = make([]Ref, n)
		for i := range p.Refs {
			r := &p.Refs[i]
			r.Matrix = d.str()
			r.Binding = d.str()
			r.ND = int(d.varint())
			r.Kind = RefKind(d.u8())
			switch c := d.u8(); c {
			case 0:
			case 1:
				r.Collapse = true
			default:
				d.fail("ref %d: collapse byte %d", i, c)
			}
			r.Base = d.ints()
			r.Coeff = d.ints()
			r.HiBase = d.ints()
			r.HiCoeff = d.ints()
		}
	}
	if n := d.count(3); n > 0 {
		p.Calls = make([]CallSite, n)
		for i := range p.Calls {
			c := &p.Calls[i]
			c.Fn = d.str()
			c.Dest = d.i32()
			if n := d.count(2); n > 0 {
				c.Args = make([]CallArg, n)
				for k := range c.Args {
					switch b := d.u8(); b {
					case 0:
					case 1:
						c.Args[k].Nested = true
					default:
						d.fail("call %d argument %d: nested byte %d", i, k, b)
					}
					c.Args[k].N = d.i32()
				}
			}
		}
	}
	return p
}

// Validate checks every structural invariant the VM relies on instead
// of bounds checks: register, constant, ref and call-site operands in
// range for their opcode (an OpLoopLT's guard and the bound above it, a
// two-cell compare's packed halves: two 1-D view refs and two
// registers); jump targets inside the code; a terminal
// OpHalt so straight-line execution cannot run off the end; ref/center
// shapes consistent with NCenter; and call sites whose arguments and
// destinations are view refs, each nested site before its consumer.
// Freshly lowered programs satisfy it by construction; disk-loaded
// programs must prove it.
func (p *Program) Validate() error {
	nregs := len(p.RegInit)
	ncode := len(p.Code)
	if ncode == 0 {
		return fmt.Errorf("%s: empty code", p.Name)
	}
	if p.Code[ncode-1].Op != OpHalt {
		return fmt.Errorf("%s: last instruction is %s, want halt", p.Name, p.Code[ncode-1].Op)
	}
	if p.NCenter < 0 || len(p.CenterReg) != p.NCenter {
		return fmt.Errorf("%s: %d center regs for %d center dims", p.Name, len(p.CenterReg), p.NCenter)
	}
	for d, r := range p.CenterReg {
		if r < -1 || int(r) >= nregs {
			return fmt.Errorf("%s: center dim %d register %d out of range", p.Name, d, r)
		}
	}
	for i := range p.Refs {
		r := &p.Refs[i]
		if r.ND < 0 || len(r.Base) != r.ND {
			return fmt.Errorf("%s: ref %d: %d base terms for %d dims", p.Name, i, len(r.Base), r.ND)
		}
		if r.Coeff != nil && len(r.Coeff) != r.ND*p.NCenter {
			return fmt.Errorf("%s: ref %d: %d coeffs, want %d", p.Name, i, len(r.Coeff), r.ND*p.NCenter)
		}
		switch r.Kind {
		case RefCell:
			if len(r.HiBase) != 0 || len(r.HiCoeff) != 0 || r.Collapse {
				return fmt.Errorf("%s: ref %d: cell ref carries view bounds", p.Name, i)
			}
		case RefView:
			if r.ND < 1 {
				return fmt.Errorf("%s: ref %d: %d-dim view", p.Name, i, r.ND)
			}
			if len(r.HiBase) != r.ND {
				return fmt.Errorf("%s: ref %d: %d hi terms for %d dims", p.Name, i, len(r.HiBase), r.ND)
			}
			if r.HiCoeff != nil && len(r.HiCoeff) != r.ND*p.NCenter {
				return fmt.Errorf("%s: ref %d: %d hi coeffs, want %d", p.Name, i, len(r.HiCoeff), r.ND*p.NCenter)
			}
			// Collapsing is only emitted for 2-D row/column views, the
			// one shape whose post-collapse rank is statically 1 — the
			// rank the register-block operands of OpLoadAt/OpStoreAt and
			// OpDotV's 1-D requirement were checked against.
			if r.Collapse && r.ND != 2 {
				return fmt.Errorf("%s: ref %d: collapse on %d-dim view", p.Name, i, r.ND)
			}
		default:
			return fmt.Errorf("%s: ref %d: unknown kind %d", p.Name, i, r.Kind)
		}
	}
	isView := func(v int32) bool { return v >= 0 && int(v) < len(p.Refs) && p.Refs[v].Kind == RefView }
	for i := range p.Calls {
		c := &p.Calls[i]
		if c.Dest != -1 && !isView(c.Dest) {
			return fmt.Errorf("%s: call %d: destination %d is not a view ref", p.Name, i, c.Dest)
		}
		for k, a := range c.Args {
			if a.Nested && (a.N < 0 || int(a.N) >= i) {
				return fmt.Errorf("%s: call %d: argument %d is call %d, not an earlier one", p.Name, i, k, a.N)
			}
			if !a.Nested && !isView(a.N) {
				return fmt.Errorf("%s: call %d: argument %d is ref %d, not a view ref", p.Name, i, k, a.N)
			}
		}
	}
	reg := func(pc int, v int32) error {
		if v < 0 || int(v) >= nregs {
			return fmt.Errorf("%s: pc %d: register %d out of range [0,%d)", p.Name, pc, v, nregs)
		}
		return nil
	}
	jump := func(pc int, v int32) error {
		if v < 0 || int(v) >= ncode {
			return fmt.Errorf("%s: pc %d: jump target %d out of range [0,%d)", p.Name, pc, v, ncode)
		}
		return nil
	}
	refKind := func(pc int, v int32, kind RefKind) error {
		if v < 0 || int(v) >= len(p.Refs) {
			return fmt.Errorf("%s: pc %d: ref %d out of range [0,%d)", p.Name, pc, v, len(p.Refs))
		}
		if p.Refs[v].Kind != kind {
			return fmt.Errorf("%s: pc %d: ref %d has kind %d, want %d", p.Name, pc, v, p.Refs[v].Kind, kind)
		}
		return nil
	}
	ref := func(pc int, v int32) error { return refKind(pc, v, RefCell) }
	// staticVND is a view ref's post-collapse rank (collapse is only
	// valid on 2-D views, which always collapse to 1-D).
	staticVND := func(v int32) int {
		if p.Refs[v].Collapse {
			return 1
		}
		return p.Refs[v].ND
	}
	// vector checks that v is a 1-D view ref, the operand of a two-cell
	// compare.
	vector := func(pc int, v int32) error {
		if err := refKind(pc, v, RefView); err != nil {
			return err
		}
		if staticVND(v) != 1 {
			return fmt.Errorf("%s: pc %d: ref %d is not a 1-D view", p.Name, pc, v)
		}
		return nil
	}
	// regBlock checks the vnd consecutive index registers starting at v.
	regBlock := func(pc int, v int32, n int) error {
		if v < 0 || int(v)+n > nregs {
			return fmt.Errorf("%s: pc %d: register block [%d,%d) out of range [0,%d)", p.Name, pc, v, int(v)+n, nregs)
		}
		return nil
	}
	for pc, in := range p.Code {
		var err error
		switch in.Op {
		case OpHalt:
		case OpConst:
			if err = reg(pc, in.A); err == nil {
				if in.B < 0 || int(in.B) >= len(p.Consts) {
					err = fmt.Errorf("%s: pc %d: constant %d out of range [0,%d)", p.Name, pc, in.B, len(p.Consts))
				}
			}
		case OpMov, OpNeg, OpNot, OpTrunc, OpAbs, OpSqrt, OpFloor, OpCeil:
			if err = reg(pc, in.A); err == nil {
				err = reg(pc, in.B)
			}
		case OpAdd, OpSub, OpMul, OpDiv, OpMod,
			OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE,
			OpMin, OpMax, OpPow:
			if err = reg(pc, in.A); err == nil {
				if err = reg(pc, in.B); err == nil {
					err = reg(pc, in.C)
				}
			}
		case OpLoad:
			if err = reg(pc, in.A); err == nil {
				err = ref(pc, in.B)
			}
		case OpStore:
			if err = ref(pc, in.A); err == nil {
				err = reg(pc, in.B)
			}
		case OpJmp:
			err = jump(pc, in.A)
		case OpJZ, OpJNZ, OpLoop:
			if err = jump(pc, in.A); err == nil {
				err = reg(pc, in.B)
			}
		case OpJNLT, OpJNLE, OpJNGT, OpJNGE, OpJNEQ, OpJNNE:
			if err = jump(pc, in.A); err == nil {
				if err = reg(pc, in.B); err == nil {
					err = reg(pc, in.C)
				}
			}
		case OpSumV:
			if err = reg(pc, in.A); err == nil {
				err = refKind(pc, in.B, RefView)
			}
		case OpDotV:
			if err = reg(pc, in.A); err == nil {
				if err = refKind(pc, in.B, RefView); err == nil {
					err = refKind(pc, in.C, RefView)
				}
			}
			if err == nil && (staticVND(in.B) != 1 || staticVND(in.C) != 1) {
				err = fmt.Errorf("%s: pc %d: dotv over non-1-D views", p.Name, pc)
			}
		case OpLoadAt:
			if err = reg(pc, in.A); err == nil {
				if err = refKind(pc, in.B, RefView); err == nil {
					err = regBlock(pc, in.C, staticVND(in.B))
				}
			}
		case OpStoreAt:
			if err = refKind(pc, in.A, RefView); err == nil {
				if err = regBlock(pc, in.B, staticVND(in.A)); err == nil {
					err = reg(pc, in.C)
				}
			}
		case OpLoopLT:
			if err = jump(pc, in.A); err == nil {
				if err = reg(pc, in.B); err == nil {
					err = regBlock(pc, in.C, 2) // the guard, then the bound
				}
			}
		case OpJNLTV, OpJNLEV, OpJNGTV, OpJNGEV, OpJNEQV, OpJNNEV:
			if err = jump(pc, in.A); err == nil {
				if err = vector(pc, low(in.B)); err == nil {
					if err = vector(pc, high(in.B)); err == nil {
						if err = reg(pc, low(in.C)); err == nil {
							err = reg(pc, high(in.C))
						}
					}
				}
			}
		case OpCall:
			if in.A < 0 || int(in.A) >= len(p.Calls) || p.Calls[in.A].Dest < 0 {
				err = fmt.Errorf("%s: pc %d: call site %d is not a statement's site", p.Name, pc, in.A)
			}
		default:
			err = fmt.Errorf("%s: pc %d: unknown opcode %d", p.Name, pc, uint8(in.Op))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
