package codegen

import (
	"fmt"
	"strings"

	"petabricks/internal/choice"
	"petabricks/internal/pbc/analysis"
	"petabricks/internal/pbc/symbolic"
)

// goExpr renders a symbolic expression as exact Go integer arithmetic
// over the size variables. Affine expressions with rational coefficients
// use a single floorDiv over a common denominator, matching the
// interpreter's floor-at-the-end semantics; min/max recurse.
func (g *gen) goExpr(se *symbolic.Expr) (string, error) {
	if aff, ok := se.Affine(); ok {
		return affineGo(aff), nil
	}
	switch se.Op() {
	case symbolic.OpMin, symbolic.OpMax:
		fn := "minI"
		if se.Op() == symbolic.OpMax {
			fn = "maxI"
		}
		parts := make([]string, len(se.Args()))
		for i, a := range se.Args() {
			s, err := g.goExpr(a)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return fn + "(" + strings.Join(parts, ", ") + ")", nil
	}
	return "", fmt.Errorf("codegen: cannot emit expression %s", se)
}

func affineGo(aff symbolic.Affine) string {
	// Common denominator.
	den := int64(1)
	lcm := func(a, b int64) int64 {
		g := a
		x := b
		for x != 0 {
			g, x = x, g%x
		}
		return a / g * b
	}
	for _, v := range aff.Vars() {
		den = lcm(den, aff.Coeff(v).Den())
	}
	den = lcm(den, aff.Const().Den())
	var terms []string
	for _, v := range aff.Vars() {
		c := aff.Coeff(v).Mul(symbolic.RatInt(den)).Int()
		switch c {
		case 1:
			terms = append(terms, v)
		case -1:
			terms = append(terms, "-"+v)
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", c, v))
		}
	}
	k := aff.Const().Mul(symbolic.RatInt(den)).Int()
	if k != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", k))
	}
	sum := strings.Join(terms, " + ")
	sum = strings.ReplaceAll(sum, "+ -", "- ")
	if den == 1 {
		if len(terms) > 1 {
			return "(" + sum + ")"
		}
		return sum
	}
	return fmt.Sprintf("floorDiv(%s, %d)", sum, den)
}

// step emits one schedule step as loops with the statically selected
// rule per grid cell.
func (g *gen) step(res *analysis.Result, step *analysis.Step, locals map[string]string) (string, error) {
	var b strings.Builder
	if step.Lex != nil {
		return g.lexStep(res, step, locals)
	}
	if step.Cyclic {
		return g.cyclicStep(res, step, locals)
	}
	for _, node := range step.Nodes {
		if node.Input || node.Cell == nil || len(node.Cell.Rules) == 0 {
			continue
		}
		code, err := g.nodeLoops(res, node, locals, nil)
		if err != nil {
			return "", err
		}
		b.WriteString(code)
	}
	return b.String(), nil
}

// cyclicStep wraps the nodes in an outer wavefront loop on the iteration
// dimension.
func (g *gen) cyclicStep(res *analysis.Result, step *analysis.Step, locals map[string]string) (string, error) {
	var b strings.Builder
	d := step.IterDim
	var los, his []string
	for _, node := range step.Nodes {
		if node.Input {
			continue
		}
		lo, err := g.goExpr(node.Region[d].Begin)
		if err != nil {
			return "", err
		}
		hi, err := g.goExpr(node.Region[d].End)
		if err != nil {
			return "", err
		}
		los = append(los, lo)
		his = append(his, hi)
	}
	loAll := los[0]
	hiAll := his[0]
	if len(los) > 1 {
		loAll = "minI(" + strings.Join(los, ", ") + ")"
		hiAll = "maxI(" + strings.Join(his, ", ") + ")"
	}
	wv := fmt.Sprintf("wf%d", step.IterDim)
	if step.IterDir >= 0 {
		fmt.Fprintf(&b, "\tfor %s := %s; %s < %s; %s++ {\n", wv, loAll, wv, hiAll, wv)
	} else {
		fmt.Fprintf(&b, "\tfor %s := %s - 1; %s >= %s; %s-- {\n", wv, hiAll, wv, loAll, wv)
	}
	for _, node := range step.Nodes {
		if node.Input || node.Cell == nil || len(node.Cell.Rules) == 0 {
			continue
		}
		code, err := g.nodeLoops(res, node, locals, &wave{dim: d, v: wv})
		if err != nil {
			return "", err
		}
		b.WriteString(code)
	}
	b.WriteString("\t}\n")
	return b.String(), nil
}

type wave struct {
	dim int
	v   string
}

// lexStep emits a lexicographic-wavefront step: the single node's cells
// visited in the scheduled dimension order and directions.
func (g *gen) lexStep(res *analysis.Result, step *analysis.Step, locals map[string]string) (string, error) {
	var b strings.Builder
	for _, node := range step.Nodes {
		if node.Input || node.Cell == nil || len(node.Cell.Rules) == 0 {
			continue
		}
		gc := node.Cell
		sel := g.opt.Config.Selector("pbc."+res.Transform.Name, gc.Rules[0].Rule.Index)
		want := sel.Choose(1 << 30).Choice
		ri := gc.Rules[0]
		for _, cand := range gc.Rules {
			if cand.Rule.Index == want {
				ri = cand
			}
		}
		indent := "\t"
		var closers []string
		for _, ld := range step.Lex {
			d := ld.Dim
			cv := "cv_" + ri.CenterVars[d]
			if ri.CenterVars[d] == "" {
				cv = fmt.Sprintf("cv_const%d", d)
			}
			lo, err := g.goExpr(node.Region[d].Begin)
			if err != nil {
				return "", err
			}
			hi, err := g.goExpr(node.Region[d].End)
			if err != nil {
				return "", err
			}
			if ld.Dir >= 0 {
				fmt.Fprintf(&b, "%sfor %s := %s; %s < %s; %s++ {\n", indent, cv, lo, cv, hi, cv)
			} else {
				fmt.Fprintf(&b, "%sfor %s := %s - 1; %s >= %s; %s-- {\n", indent, cv, hi, cv, lo, cv)
			}
			closers = append(closers, indent+"}\n")
			indent += "\t"
		}
		body, err := g.ruleBody(res, ri, locals, indent)
		if err != nil {
			return "", err
		}
		b.WriteString(body)
		for i := len(closers) - 1; i >= 0; i-- {
			b.WriteString(closers[i])
		}
	}
	return b.String(), nil
}

// nodeLoops emits the per-cell loops for one grid node, selecting the
// rule statically from the baked configuration: each configured level
// becomes a branch of an if/else chain on pbSize.
func (g *gen) nodeLoops(res *analysis.Result, node *analysis.Node, locals map[string]string, wf *wave) (string, error) {
	gc := node.Cell
	sel := g.opt.Config.Selector("pbc."+res.Transform.Name, gc.Rules[0].Rule.Index)
	pick := func(want int) *analysis.RuleInfo {
		for _, ri := range gc.Rules {
			if ri.Rule.Index == want {
				return ri
			}
		}
		return gc.Rules[0]
	}
	var b strings.Builder
	for li, lvl := range sel.Levels {
		ri := pick(lvl.Choice)
		loops, err := g.ruleLoops(res, ri, node, locals, wf)
		if err != nil {
			return "", err
		}
		switch {
		case len(sel.Levels) == 1:
			b.WriteString(loops)
		case li == 0:
			fmt.Fprintf(&b, "\tif pbSize < %d {\n%s\t}", lvl.Cutoff, loops)
		case lvl.Cutoff == choice.Inf:
			fmt.Fprintf(&b, " else {\n%s\t}\n", loops)
		default:
			fmt.Fprintf(&b, " else if pbSize < %d {\n%s\t}", lvl.Cutoff, loops)
		}
	}
	if len(sel.Levels) > 1 && sel.Levels[len(sel.Levels)-1].Cutoff != choice.Inf {
		b.WriteString("\n")
	}
	return b.String(), nil
}

// ruleLoops emits nested loops over the node region running one cell
// rule's body per center.
func (g *gen) ruleLoops(res *analysis.Result, ri *analysis.RuleInfo, node *analysis.Node, locals map[string]string, wf *wave) (string, error) {
	var b strings.Builder
	indent := "\t"
	var closers []string
	for d := len(node.Region) - 1; d >= 0; d-- {
		cv := "cv_" + ri.CenterVars[d]
		if ri.CenterVars[d] == "" {
			cv = fmt.Sprintf("cv_const%d", d)
		}
		if wf != nil && d == wf.dim {
			// The wavefront variable covers this dimension; clamp to the
			// node's range.
			lo, err := g.goExpr(node.Region[d].Begin)
			if err != nil {
				return "", err
			}
			hi, err := g.goExpr(node.Region[d].End)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%sif %s >= %s && %s < %s {\n", indent, wf.v, lo, wf.v, hi)
			fmt.Fprintf(&b, "%s\t%s := %s\n%s\t_ = %s\n", indent, cv, wf.v, indent, cv)
			closers = append(closers, indent+"}\n")
			indent += "\t"
			continue
		}
		lo, err := g.goExpr(node.Region[d].Begin)
		if err != nil {
			return "", err
		}
		hi, err := g.goExpr(node.Region[d].End)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%sfor %s := %s; %s < %s; %s++ {\n", indent, cv, lo, cv, hi, cv)
		closers = append(closers, indent+"}\n")
		indent += "\t"
	}
	body, err := g.ruleBody(res, ri, locals, indent)
	if err != nil {
		return "", err
	}
	b.WriteString(body)
	for i := len(closers) - 1; i >= 0; i-- {
		b.WriteString(closers[i])
	}
	return b.String(), nil
}

// demoMain emits a tiny main() exercising the first transform on fixed
// inputs, so generated files are runnable end to end.
func (g *gen) demoMain(res *analysis.Result) string {
	t := res.Transform
	var b strings.Builder
	b.WriteString("func main() {\n")
	const n = 8
	var args []string
	for i, d := range t.From {
		mi := res.Matrices[d.Name]
		exts := make([]string, len(mi.Dims))
		for j := range mi.Dims {
			exts[j] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(&b, "\tin%d := NewMat(%s)\n", i, strings.Join(exts, ", "))
		fmt.Fprintf(&b, "\tfor k := range in%d.data { in%d.data[k] = float64(k%%7) + 1 }\n", i, i)
		args = append(args, fmt.Sprintf("in%d", i))
	}
	outs := make([]string, len(t.To))
	for i := range t.To {
		outs[i] = fmt.Sprintf("out%d", i)
	}
	fmt.Fprintf(&b, "\t%s := %s(%s)\n", strings.Join(outs, ", "), funcName(t.Name), strings.Join(args, ", "))
	for i := range t.To {
		fmt.Fprintf(&b, "\tfmt.Printf(\"%%s checksum %%.6f\\n\", %q, pbSum(out%d))\n", t.To[i].Name, i)
	}
	b.WriteString("}\n")
	return b.String()
}
