package codegen

import (
	"go/parser"
	"go/token"
)

// Validate parses the generated source, returning any syntax error.
func Validate(src string) error {
	fset := token.NewFileSet()
	_, err := parser.ParseFile(fset, "generated.go", src, 0)
	return err
}
