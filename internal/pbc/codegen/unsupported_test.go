package codegen

import (
	"errors"
	"strings"
	"testing"

	"petabricks/internal/pbc/ir"
)

func TestGenerateUnsupportedIsTyped(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		construct string
	}{
		{"return-statement", `
transform R
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { return a; }
}
`, "return-statement"},
		{"unknown-function", `
transform F
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = nosuchfn(a, a); }
}
`, "unknown-function"},
		// What no backend compiles is decided once, by ir.Build: the vm
		// reports the same constructs for these two.
		{"builtin-arity", `
transform P
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = pow(a); }
}
`, "builtin-arity"},
		{"raw-body", `
transform RB
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) %{ b = a; }%
}
`, "raw-body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := analyzeAll(t, tc.src)
			_, err := Generate(results, Options{Package: "main"})
			var uns *ir.Unsupported
			if !errors.As(err, &uns) {
				t.Fatalf("err = %v, want *ir.Unsupported", err)
			}
			if uns.Construct != tc.construct {
				t.Fatalf("construct = %q, want %q", uns.Construct, tc.construct)
			}
			if uns.Rule == "" {
				t.Fatal("Unsupported must carry the rule name")
			}
			if !strings.Contains(uns.Error(), tc.construct) {
				t.Fatalf("error text %q missing construct", uns.Error())
			}
		})
	}
}

// TestGenerateNoTransform checks that a program with nothing to emit — a
// file holding only a comment — is a typed error, not a panic.
func TestGenerateNoTransform(t *testing.T) {
	results := analyzeAll(t, "// nothing here\n")
	if _, err := Generate(results, Options{Package: "main"}); !errors.Is(err, ErrNoTransform) {
		t.Fatalf("err = %v, want ErrNoTransform", err)
	}
}
