package jit

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/parser"
)

// validProgram builds a small program exercising every operand class:
// constants, arithmetic, a load/store pair, a conditional jump and a
// loop back edge.
func validProgram() *Program {
	return &Program{
		Name: "T/rule 0",
		Code: []Instr{
			{Op: OpConst, A: 0, B: 0},
			{Op: OpLoad, A: 1, B: 0},
			{Op: OpAdd, A: 2, B: 0, C: 1},
			{Op: OpLoop, A: 1, B: 2},
			{Op: OpJZ, A: 6, B: 2},
			{Op: OpStore, A: 1, B: 2},
			{Op: OpHalt},
		},
		Consts:    []float64{1.5},
		RegInit:   []float64{0, 0, 0},
		NCenter:   1,
		CenterReg: []int32{2},
		Refs: []Ref{
			{Matrix: "A", Binding: "a", ND: 1, Base: []int64{3}, Coeff: []int64{1}},
			{Matrix: "B", Binding: "b", ND: 1, Base: []int64{0}, Coeff: nil},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := map[int]*Program{0: validProgram(), 2: validProgram()}
	in[2].Name = "T/rule 2"
	payload, err := EncodePrograms(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePrograms(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodePrograms([]byte("not a gob stream")); err == nil {
		t.Error("garbage payload decoded")
	}
	if _, err := DecodePrograms(nil); err == nil {
		t.Error("empty payload decoded")
	}
	// A truncated but prefix-valid payload must also fail cleanly.
	payload, err := EncodePrograms(map[int]*Program{0: validProgram()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePrograms(payload[:len(payload)/2]); err == nil {
		t.Error("truncated payload decoded")
	}
}

// TestValidateRejections mutates a valid program one invariant at a
// time. The VM run loop has no bounds checks by design, so each of
// these is a memory-safety violation Validate must catch before a
// disk-loaded program ever executes.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"empty_code", func(p *Program) { p.Code = nil }},
		{"missing_halt", func(p *Program) { p.Code = p.Code[:len(p.Code)-1] }},
		{"dest_register_out_of_range", func(p *Program) { p.Code[2].A = 99 }},
		{"src_register_out_of_range", func(p *Program) { p.Code[2].B = -1 }},
		{"const_index_out_of_range", func(p *Program) { p.Code[0].B = 7 }},
		{"load_ref_out_of_range", func(p *Program) { p.Code[1].B = 5 }},
		{"store_ref_out_of_range", func(p *Program) { p.Code[5].A = -2 }},
		{"jump_past_end", func(p *Program) { p.Code[4].A = int32(len(p.Code)) }},
		{"negative_jump_target", func(p *Program) { p.Code[4].A = -1 }},
		{"jump_cond_register_out_of_range", func(p *Program) { p.Code[4].B = 88 }},
		{"guard_register_out_of_range", func(p *Program) { p.Code[3].B = 12 }},
		{"loop_jump_past_end", func(p *Program) { p.Code[3].A = int32(len(p.Code)) }},
		{"loop_negative_jump_target", func(p *Program) { p.Code[3].A = -3 }},
		{"unknown_opcode", func(p *Program) { p.Code[2].Op = Op(200) }},
		{"center_reg_count_mismatch", func(p *Program) { p.CenterReg = nil }},
		{"center_reg_out_of_range", func(p *Program) { p.CenterReg[0] = 44 }},
		{"negative_ncenter", func(p *Program) { p.NCenter = -1; p.CenterReg = nil }},
		{"ref_base_rank_mismatch", func(p *Program) { p.Refs[0].Base = []int64{1, 2} }},
		{"ref_coeff_length_mismatch", func(p *Program) { p.Refs[0].Coeff = []int64{1, 2, 3} }},
	}
	// Each call row gives the program a view ref 2 and the call table of
	// `v = F(G(v), v)` — nested site 0, statement site 1 — run by an
	// OpCall in place of the store at pc 5, then breaks one invariant.
	withCall := func(mut func(p *Program)) func(p *Program) {
		return func(p *Program) {
			p.Refs = append(p.Refs, Ref{Matrix: "B", Binding: "v", Kind: RefView, ND: 1,
				Base: []int64{0}, HiBase: []int64{4}})
			p.Calls = []CallSite{
				{Fn: "G", Args: []CallArg{{N: 2}}, Dest: -1},
				{Fn: "F", Args: []CallArg{{Nested: true, N: 0}, {N: 2}}, Dest: 2},
			}
			p.Code[5] = Instr{Op: OpCall, A: 1}
			mut(p)
		}
	}
	cp := validProgram()
	withCall(func(*Program) {})(cp)
	if err := cp.Validate(); err != nil {
		t.Fatalf("call table in place of the store: %v", err)
	}
	cases = append(cases, []struct {
		name   string
		mutate func(p *Program)
	}{
		{"call_site_out_of_range", withCall(func(p *Program) { p.Code[5].A = 2 })},
		{"call_site_negative", withCall(func(p *Program) { p.Code[5].A = -1 })},
		{"call_of_nested_site", withCall(func(p *Program) { p.Code[5].A = 0 })},
		{"call_arg_ref_out_of_range", withCall(func(p *Program) { p.Calls[1].Args[1].N = 3 })},
		{"call_arg_negative_ref", withCall(func(p *Program) { p.Calls[0].Args[0].N = -1 })},
		{"call_arg_cell_ref", withCall(func(p *Program) { p.Calls[1].Args[1].N = 0 })},
		{"call_nested_site_is_consumer", withCall(func(p *Program) { p.Calls[1].Args[0].N = 1 })},
		{"call_nested_site_after_consumer", withCall(func(p *Program) { p.Calls[0].Args[0] = CallArg{Nested: true, N: 1} })},
		{"call_nested_site_negative", withCall(func(p *Program) { p.Calls[1].Args[0].N = -1 })},
		{"call_dest_cell_ref", withCall(func(p *Program) { p.Calls[1].Dest = 1 })},
		{"call_dest_out_of_range", withCall(func(p *Program) { p.Calls[1].Dest = 3 })},
		{"call_dest_below_minus_one", withCall(func(p *Program) { p.Calls[0].Dest = -2 })},
	}...)
	// Each compare-and-branch replaces the OpJZ at pc 4 (target 6,
	// operands r2 and r1), then breaks its target or one operand.
	for _, op := range []Op{OpJNLT, OpJNLE, OpJNGT, OpJNGE, OpJNEQ, OpJNNE} {
		fused := func(mut func(in *Instr)) func(p *Program) {
			return func(p *Program) {
				p.Code[4] = Instr{Op: op, A: 6, B: 2, C: 1}
				mut(&p.Code[4])
			}
		}
		p := validProgram()
		fused(func(*Instr) {})(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s in place of jz: %v", op, err)
		}
		cases = append(cases, []struct {
			name   string
			mutate func(p *Program)
		}{
			{op.String() + "_jump_past_end", fused(func(in *Instr) { in.A = 7 })},
			{op.String() + "_negative_jump_target", fused(func(in *Instr) { in.A = -1 })},
			{op.String() + "_left_register_out_of_range", fused(func(in *Instr) { in.B = 3 })},
			{op.String() + "_right_register_out_of_range", fused(func(in *Instr) { in.C = -1 })},
		}...)
	}
	// Each loop row swaps in validLoopProgram, then breaks one field of
	// its looplt (pc 4) or of its two-cell compare (pc 2), made each of
	// the six in turn.
	loop := func(mut func(p *Program)) func(p *Program) {
		return func(p *Program) {
			*p = *validLoopProgram()
			mut(p)
		}
	}
	cases = append(cases, []struct {
		name   string
		mutate func(p *Program)
	}{
		{"looplt_jump_past_end", loop(func(p *Program) { p.Code[4].A = 6 })},
		{"looplt_negative_jump_target", loop(func(p *Program) { p.Code[4].A = -1 })},
		{"looplt_variable_out_of_range", loop(func(p *Program) { p.Code[4].B = 4 })},
		{"looplt_guard_negative", loop(func(p *Program) { p.Code[4].C = -1 })},
		{"looplt_bound_out_of_range", loop(func(p *Program) { p.Code[4].C = 3 })},
	}...)
	for _, op := range []Op{OpJNLTV, OpJNLEV, OpJNGTV, OpJNGEV, OpJNEQV, OpJNNEV} {
		cells := func(mut func(in *Instr)) func(p *Program) {
			return loop(func(p *Program) {
				p.Code[2].Op = op
				mut(&p.Code[2])
			})
		}
		p := validLoopProgram()
		cells(func(*Instr) {})(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s in the loop: %v", op, err)
		}
		cases = append(cases, []struct {
			name   string
			mutate func(p *Program)
		}{
			{op.String() + "_jump_past_end", cells(func(in *Instr) { in.A = 6 })},
			{op.String() + "_negative_jump_target", cells(func(in *Instr) { in.A = -1 })},
			{op.String() + "_left_ref_out_of_range", cells(func(in *Instr) { in.B = pack(4, 1) })},
			{op.String() + "_right_ref_out_of_range", cells(func(in *Instr) { in.B = pack(0, 0xffff) })},
			{op.String() + "_left_ref_a_cell_ref", cells(func(in *Instr) { in.B = pack(2, 1) })},
			{op.String() + "_right_ref_a_2d_view", cells(func(in *Instr) { in.B = pack(0, 3) })},
			{op.String() + "_left_index_out_of_range", cells(func(in *Instr) { in.C = pack(4, 3) })},
			{op.String() + "_right_index_out_of_range", cells(func(in *Instr) { in.C = pack(0, 0xffff) })},
		}...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validProgram()
			if err := p.Validate(); err != nil {
				t.Fatalf("baseline program invalid: %v", err)
			}
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("mutated program validated")
			}
		})
	}
}

// validLoopProgram is a rotated counted loop over a two-cell compare,
// `for (i = 0; i < 4; i++) if (v.cell(i) < r.cell(k)) k = i;`: the
// entry test, then the body, then the looplt whose guard r1 has the
// bound r2 above it. Ref 2 is a cell ref and ref 3 a 2-D view, the
// operands a two-cell compare must not take.
func validLoopProgram() *Program {
	return &Program{
		Name: "T/rule 3",
		Code: []Instr{
			{Op: OpConst, A: 1, B: 0},
			{Op: OpJNLT, A: 5, B: 0, C: 2},
			{Op: OpJNLTV, A: 4, B: pack(0, 1), C: pack(0, 3)},
			{Op: OpMov, A: 3, B: 0},
			{Op: OpLoopLT, A: 2, B: 0, C: 1},
			{Op: OpHalt},
		},
		Consts:  []float64{0},
		RegInit: []float64{0, 0, 4, 0},
		Refs: []Ref{
			{Matrix: "A", Binding: "v", Kind: RefView, ND: 1, Base: []int64{0}, HiBase: []int64{4}},
			{Matrix: "B", Binding: "r", Kind: RefView, ND: 2, Collapse: true, Base: []int64{0, 0}, HiBase: []int64{4, 1}},
			{Matrix: "A", Binding: "c", ND: 1, Base: []int64{0}},
			{Matrix: "B", Binding: "w", Kind: RefView, ND: 2, Base: []int64{0, 0}, HiBase: []int64{4, 4}},
		},
	}
}

// validViewProgram builds a program exercising the view-ref operand
// classes: a 1-D bounded view, a collapsed 2-D row view, and all four
// reduction/indexed ops over them.
func validViewProgram() *Program {
	return &Program{
		Name: "T/rule 1",
		Code: []Instr{
			{Op: OpSumV, A: 0, B: 1},          // reg0 = sum(view 1)
			{Op: OpDotV, A: 1, B: 1, C: 2},    // reg1 = dot(view 1, view 2)
			{Op: OpLoadAt, A: 1, B: 1, C: 0},  // reg1 = view1[regs[0]]
			{Op: OpStoreAt, A: 1, B: 0, C: 1}, // view1[regs[0]] = reg1
			{Op: OpHalt},
		},
		RegInit:   []float64{0, 0, 0},
		NCenter:   1,
		CenterReg: []int32{2},
		Refs: []Ref{
			{Matrix: "A", Binding: "a", ND: 1, Base: []int64{0}, Coeff: []int64{1}},
			{Matrix: "A", Binding: "v", Kind: RefView, ND: 1,
				Base: []int64{0}, Coeff: []int64{0}, HiBase: []int64{4}, HiCoeff: []int64{0}},
			{Matrix: "B", Binding: "r", Kind: RefView, ND: 2, Collapse: true,
				Base: []int64{0, 0}, Coeff: nil, HiBase: []int64{4, 1}, HiCoeff: nil},
		},
	}
}

// TestValidateViewRefRejections is TestValidateRejections for the view
// refs and reduction ops: each mutation breaks an invariant the vm's
// bindView/viewOff paths rely on without checking.
func TestValidateViewRefRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"unknown_ref_kind", func(p *Program) { p.Refs[1].Kind = RefKind(9) }},
		{"cell_ref_with_view_bounds", func(p *Program) { p.Refs[0].HiBase = []int64{4} }},
		{"cell_ref_with_collapse", func(p *Program) { p.Refs[0].Collapse = true }},
		{"zero_dim_view", func(p *Program) {
			p.Refs[1].ND = 0
			p.Refs[1].Base = nil
			p.Refs[1].Coeff = nil
			p.Refs[1].HiBase = nil
			p.Refs[1].HiCoeff = nil
		}},
		{"hi_base_rank_mismatch", func(p *Program) { p.Refs[1].HiBase = []int64{4, 5} }},
		{"hi_coeff_length_mismatch", func(p *Program) { p.Refs[1].HiCoeff = []int64{0, 0} }},
		{"collapse_on_1d_view", func(p *Program) { p.Refs[1].Collapse = true }},
		{"sumv_on_cell_ref", func(p *Program) { p.Code[0].B = 0 }},
		{"sumv_ref_out_of_range", func(p *Program) { p.Code[0].B = 7 }},
		{"sumv_dest_out_of_range", func(p *Program) { p.Code[0].A = 33 }},
		{"dotv_on_2d_view", func(p *Program) { p.Refs[2].Collapse = false }},
		{"dotv_on_cell_ref", func(p *Program) { p.Code[1].C = 0 }},
		{"loadat_on_cell_ref", func(p *Program) { p.Code[2].B = 0 }},
		{"loadat_index_block_out_of_range", func(p *Program) { p.Code[2].C = 3 }},
		{"storeat_on_cell_ref", func(p *Program) { p.Code[3].A = 0 }},
		{"storeat_index_block_negative", func(p *Program) { p.Code[3].B = -1 }},
		{"storeat_src_out_of_range", func(p *Program) { p.Code[3].C = 55 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validViewProgram()
			if err := p.Validate(); err != nil {
				t.Fatalf("baseline program invalid: %v", err)
			}
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("mutated program validated")
			}
		})
	}
}

// validCallProgram is a macro rule's shape with a call table: the
// statement `v = F(G(a), a)`, whose nested G(a) is site 0 and whose F
// is site 1, run by the one OpCall.
func validCallProgram() *Program {
	return &Program{
		Name: "T/rule 2",
		Code: []Instr{{Op: OpCall, A: 1}, {Op: OpHalt}},
		Refs: []Ref{
			{Matrix: "B", Binding: "v", Kind: RefView, ND: 1, Base: []int64{1}, HiBase: []int64{3}},
			{Matrix: "A", Binding: "a", Kind: RefView, ND: 1, Base: []int64{0}, HiBase: []int64{2}},
		},
		Calls: []CallSite{
			{Fn: "G", Args: []CallArg{{N: 1}}, Dest: -1},
			{Fn: "F", Args: []CallArg{{Nested: true, N: 0}, {N: 1}}, Dest: 0},
		},
	}
}

// TestViewProgramRoundTrip proves view refs survive the round trip with
// kind, bounds, and collapse intact, as do call sites and the packed
// operands of a two-cell compare.
func TestViewProgramRoundTrip(t *testing.T) {
	in := map[int]*Program{1: validViewProgram(), 2: validCallProgram(), 3: validLoopProgram()}
	payload, err := EncodePrograms(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePrograms(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestDecodeRejectsInvalidSetWhole proves one bad program poisons the
// whole set: warm-starting rules 0..k-1 while silently recompiling rule
// k would hide corruption, so the decoder refuses everything.
func TestDecodeRejectsInvalidSetWhole(t *testing.T) {
	good, bad := validProgram(), validProgram()
	bad.Code[4].A = 99 // jump target out of range
	payload, err := EncodePrograms(map[int]*Program{0: good, 1: bad})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePrograms(payload); err == nil {
		t.Error("set containing an invalid program decoded")
	}
}

// corpusPrograms lowers every rule of the example corpus that lowers at
// small sizes: real programs for the codec tests, with view and cell
// refs, loops, branches and constants. Keys are spaced three apart, so
// the set has gaps as a transform's rule indices do.
func corpusPrograms(tb testing.TB) map[int]*Program {
	tb.Helper()
	out := map[int]*Program{}
	for _, c := range []struct {
		src   string
		sizes map[string]int64
	}{
		{parser.RollingSumSrc, map[string]int64{"n": 8}},
		{parser.MatrixMultiplySrc, map[string]int64{"w": 4, "c": 4, "h": 4}},
		{parser.MergeSortSrc, map[string]int64{"n": 8, "a": 4, "b": 4}},
		{parser.Heat1DSrc, map[string]int64{"n": 8}},
		{parser.SummedAreaSrc, map[string]int64{"w": 4, "h": 4}},
	} {
		prog, err := parser.Parse(c.src)
		if err != nil {
			tb.Fatal(err)
		}
		for _, tr := range prog.Transforms {
			res, err := analysis.Analyze(prog, tr)
			if err != nil {
				tb.Fatal(err)
			}
			for _, ri := range res.Rules {
				if p, err := Compile(res, ri, c.sizes); err == nil {
					out[len(out)*3] = p
				}
			}
		}
	}
	return out
}

// equalSets is reflect.DeepEqual over two program sets, except that
// floats compare by their bits, so a NaN constant equals itself.
func equalSets(a, b map[int]*Program) bool {
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for ri, p := range a {
		q, ok := b[ri]
		if !ok || (p == nil) != (q == nil) {
			return false
		}
		if p == nil {
			continue
		}
		if !sameBits(p.Consts, q.Consts) || !sameBits(p.RegInit, q.RegInit) {
			return false
		}
		pc, qc := *p, *q
		pc.Consts, pc.RegInit, qc.Consts, qc.RegInit = nil, nil, nil, nil
		if !reflect.DeepEqual(pc, qc) {
			return false
		}
	}
	return true
}

// TestCorpusRoundTrip encodes every lowered corpus rule as one set:
// the set decodes to an equal one, and encoding is deterministic — the
// same set built in another order encodes to the same bytes.
func TestCorpusRoundTrip(t *testing.T) {
	in := corpusPrograms(t)
	if len(in) < 10 {
		t.Fatalf("only %d corpus rules lowered", len(in))
	}
	payload, err := EncodePrograms(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePrograms(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(in, out) {
		t.Error("corpus programs changed across the round trip")
	}
	rebuilt := map[int]*Program{}
	for ri, p := range out {
		rebuilt[ri] = p
	}
	again, err := EncodePrograms(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, again) {
		t.Error("equal program sets encode to different bytes")
	}
}

// TestDecodeRejectsMalformedFraming checks the framing rules: every
// proper prefix of a valid payload is rejected, as is a trailing byte, a
// length the remaining bytes cannot hold, rule indices out of order,
// an operand past int32, a collapse flag other than 0 or 1, and a call
// table whose name, site count or argument count overruns the payload
// or whose nested flag is not 0 or 1.
func TestDecodeRejectsMalformedFraming(t *testing.T) {
	payload, err := EncodePrograms(map[int]*Program{
		0: validProgram(), 1: validViewProgram(), 2: validCallProgram(), 3: validLoopProgram(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(payload); n++ {
		if _, err := DecodePrograms(payload[:n]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded", n, len(payload))
		}
	}
	if _, err := DecodePrograms(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Error("payload with a trailing byte decoded")
	}
	set := func(rules ...int) []byte {
		b := binary.AppendUvarint(nil, uint64(len(rules)))
		for _, ri := range rules {
			b = binary.AppendVarint(b, int64(ri))
			b = validProgram().appendTo(b)
		}
		return b
	}
	if _, err := DecodePrograms(set(0, 2)); err != nil {
		t.Fatalf("hand-framed set: %v", err)
	}
	for _, rules := range [][]int{{2, 0}, {1, 1}} {
		if _, err := DecodePrograms(set(rules...)); err == nil {
			t.Errorf("rule indices %v decoded", rules)
		}
	}
	// A count claiming far more programs than bytes remain.
	if _, err := DecodePrograms(binary.AppendUvarint(nil, 1<<40)); err == nil {
		t.Error("oversized count decoded")
	}
	// One program, rule 0, with its bytes edited.
	one := func(p *Program, edit func(b []byte) []byte) []byte {
		return edit(append([]byte{1, 0}, p.appendTo(nil)...))
	}
	wide := validProgram()
	wide.Code[2].A = 0x7eadbeef // a marker, widened past int32 below
	marker := binary.AppendVarint(nil, 0x7eadbeef)
	b := one(wide, func(b []byte) []byte {
		return bytes.Replace(b, marker, binary.AppendVarint(nil, math.MaxInt32+1), 1)
	})
	if _, err := DecodePrograms(b); err == nil {
		t.Error("operand past int32 decoded")
	}
	b = one(validViewProgram(), func(b []byte) []byte {
		// Ref 2's names, then its ND and kind, then the collapse byte.
		at := bytes.Index(b, []byte{1, 'B', 1, 'r'}) + 6
		if at < 6 || b[at] != 1 {
			t.Fatal("collapse byte not found")
		}
		b[at] = 2
		return b
	})
	if _, err := DecodePrograms(b); err == nil {
		t.Error("collapse byte 2 decoded")
	}
	// The call table is the last thing a program encodes: validCallProgram
	// framed without it, then each table under test.
	noCalls := validCallProgram()
	noCalls.Calls = nil
	head := noCalls.appendTo([]byte{1, 0})
	head = head[:len(head)-1] // the empty table's count
	withTable := func(table []byte) []byte { return append(head[:len(head):len(head)], table...) }
	if _, err := DecodePrograms(withTable(validCallProgram().appendTo(nil)[len(head)-2:])); err != nil {
		t.Fatalf("re-framed call table: %v", err)
	}
	for _, tc := range []struct {
		name  string
		table []byte
	}{
		{"call name past the end", []byte{1, 40, 'G', 0, 0}},
		{"call count past the end", binary.AppendUvarint(nil, 1<<40)},
		{"argument count past the end", append([]byte{1, 1, 'G', 1}, binary.AppendUvarint(nil, 1<<40)...)},
		{"nested byte 2", []byte{1, 1, 'G', 1, 1, 2, 2}},
	} {
		if _, err := DecodePrograms(withTable(tc.table)); err == nil {
			t.Errorf("%s decoded", tc.name)
		}
	}
}

// FuzzDecodePrograms feeds arbitrary bytes to DecodePrograms. It must
// never panic, and a payload it accepts holds only valid programs and
// survives encode → decode unchanged.
func FuzzDecodePrograms(f *testing.F) {
	// Small seeds: the fuzzer minimizes each new input, which takes the
	// better part of a minute on one the size of the whole corpus.
	var selection *Program
	for _, p := range corpusPrograms(f) {
		if p.Name == "SelectionSort/rule 0" {
			selection = p
		}
	}
	for _, set := range []map[int]*Program{
		{0: selection},
		{0: validProgram(), 2: validProgram()},
		{1: validViewProgram()},
		{2: validCallProgram()},
		{3: validLoopProgram()},
		{},
	} {
		b, err := EncodePrograms(set)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		progs, err := DecodePrograms(data)
		if err != nil {
			return
		}
		for ri, p := range progs {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted rule %d fails validation: %v", ri, err)
			}
		}
		b, err := EncodePrograms(progs)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodePrograms(b)
		if err != nil {
			t.Fatalf("re-encoded set rejected: %v", err)
		}
		if !equalSets(progs, again) {
			t.Fatal("accepted set changed across encode → decode")
		}
	})
}
