package parser

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/lexer"
	"petabricks/internal/pbc/token"
)

// lexThenParse is the reference the streaming Parse must agree with:
// the whole file lexed first, whose error wins, then the parser run over
// the token slice.
func lexThenParse(src string) (*ast.Program, error) {
	l := lexer.New(src)
	var toks []token.Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return parse(&sliceTokens{toks: toks})
}

// sliceTokens streams a lexed file, its EOF repeated at the end.
type sliceTokens struct {
	toks []token.Token
	i    int
}

func (s *sliceTokens) Next() (token.Token, error) {
	t := s.toks[s.i]
	if s.i < len(s.toks)-1 {
		s.i++
	}
	return t, nil
}

// FuzzParse checks the front end never panics on arbitrary input, that
// every rejection carries a source position, that Parse returns what
// lexing the whole file and then parsing it returns (lexThenParse: the
// same program, or the same error, a lexical one first), and that
// accepted programs satisfy the invariants the rest of the compiler
// assumes (run with `go test -fuzz=FuzzParse`).
func FuzzParse(f *testing.F) {
	f.Add(RollingSumSrc)
	f.Add(MatrixMultiplySrc)
	f.Add(MergeSortSrc)
	f.Add(Heat1DSrc)
	f.Add(SummedAreaSrc)
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) %{ raw }% }")
	f.Add("transform T template <K> from A[K] to B<0..K>[n] tunable x(1,2) { to (B b) from (A a) where n > 0 { b = a ? 1 : 0; } }")
	// Regression shapes for fuzz-found hazards: unbounded recursion in
	// ternary/unary/statement nesting and truncation at every layer.
	f.Add("transform " + strings.Repeat("(", 5000))
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) { b = " + strings.Repeat("(", 5000) + "a")
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) { b = " + strings.Repeat("-", 5000) + "a; } }")
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) { " + strings.Repeat("if (a) ", 5000) + "b = a; } }")
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) { b = a ? " + strings.Repeat("a ? ", 4000) + "1")
	f.Add("%{ unterminated")
	f.Add("to from where priority(9)")
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) { b = a")
	f.Add("transform T from A[n] to B[n] { to (B b) from (A a) { b = a; } } @")
	f.Add("transform T from A[n] to { } # trailing")
	f.Add("a + b // c\n/* d */ e")
	f.Add(strings.Repeat("0..", 50))
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		ref, refErr := lexThenParse(src)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || reflect.TypeOf(err) != reflect.TypeOf(refErr) {
			t.Fatalf("Parse error %T %v, lex-then-parse %T %v", err, err, refErr, refErr)
		}
		if !reflect.DeepEqual(prog, ref) {
			t.Fatal("Parse and lex-then-parse built different programs")
		}
		if err != nil {
			// Rejection is fine; panics are not, and the error must say
			// where — either a lexical or a syntactic positioned error.
			var pe *Error
			var le *lexer.Error
			switch {
			case errors.As(err, &pe):
				if pe.Pos.Line < 1 || pe.Pos.Col < 1 {
					t.Fatalf("parse error without position: %v", err)
				}
			case errors.As(err, &le):
				if le.Pos.Line < 1 || le.Pos.Col < 1 {
					t.Fatalf("lex error without position: %v", err)
				}
			default:
				t.Fatalf("Parse error is %T, want positioned *parser.Error or *lexer.Error: %v", err, err)
			}
			return
		}
		for _, tr := range prog.Transforms {
			if tr.Name == "" {
				t.Fatal("accepted transform with empty name")
			}
			for _, r := range tr.Rules {
				if len(r.To) == 0 || len(r.From) == 0 {
					t.Fatal("accepted rule without to/from")
				}
			}
		}
	})
}
