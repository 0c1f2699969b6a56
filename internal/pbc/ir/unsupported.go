package ir

import "fmt"

// Unsupported is the typed, per-rule reason a rule was not compiled:
// Build returns it for what no backend compiles, and each backend (the
// bytecode lowering in pbc/jit, the Go emitter in pbc/codegen) for what
// it alone cannot. Callers fall back per rule and surface *why* a rule
// stayed on a slower tier — the reasons end up in /v1/stats and the
// engine metrics.
//
// Construct is a stable, machine-readable token naming the rejected
// language construct (e.g. "raw-body", "view-scalar", "transform-call");
// Detail is free-form human context.
type Unsupported struct {
	Rule      string
	Construct string
	Detail    string
}

func (e *Unsupported) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("%s: unsupported %s", e.Rule, e.Construct)
	}
	return fmt.Sprintf("%s: unsupported %s: %s", e.Rule, e.Construct, e.Detail)
}

// Unsup builds an Unsupported error; detail is optional printf-style.
func Unsup(rule, construct string, detailFmt string, args ...any) *Unsupported {
	d := detailFmt
	if len(args) > 0 {
		d = fmt.Sprintf(detailFmt, args...)
	}
	return &Unsupported{Rule: rule, Construct: construct, Detail: d}
}
