package parser

import (
	"fmt"
	"petabricks/internal/pbc/ast"
)

// ParseTransform parses a source file expected to contain exactly one
// transform.
func ParseTransform(src string) (*ast.Transform, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Transforms) != 1 {
		return nil, fmt.Errorf("expected exactly one transform, found %d", len(prog.Transforms))
	}
	return prog.Transforms[0], nil
}
