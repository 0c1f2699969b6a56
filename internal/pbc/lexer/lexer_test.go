package lexer

import (
	"os"
	"path/filepath"
	"testing"

	"petabricks/internal/pbc/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	out := make([]token.Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	got := kinds(t, "transform Foo from to through where tunable x")
	want := []token.Kind{
		token.KwTransform, token.IDENT, token.KwFrom, token.KwTo,
		token.KwThrough, token.KwWhere, token.KwTunable, token.IDENT, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	got := kinds(t, "= == != < <= > >= + += ++ - -= -- * / % && || ! ? : . ..")
	want := []token.Kind{
		token.Assign, token.Eq, token.Neq, token.LAngle, token.Leq,
		token.RAngle, token.Geq, token.Plus, token.PlusAssign, token.PlusPlus,
		token.Minus, token.MinusAssign, token.MinusMinus, token.Star,
		token.Slash, token.Percent, token.AndAnd, token.OrOr, token.Not,
		token.Question, token.Colon, token.Dot, token.DotDot, token.EOF,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbersAndRanges(t *testing.T) {
	toks, err := Lex("0..n 3.5 1e3 12")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.NUMBER || toks[0].Lexeme != "0" {
		t.Fatalf("tok0 = %v", toks[0])
	}
	if toks[1].Kind != token.DotDot {
		t.Fatalf("tok1 = %v", toks[1])
	}
	if toks[3].Lexeme != "3.5" || toks[4].Lexeme != "1e3" || toks[5].Lexeme != "12" {
		t.Fatalf("numbers = %v %v %v", toks[3], toks[4], toks[5])
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "a // line comment\n b /* block\n comment */ c")
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestRawEscape(t *testing.T) {
	toks, err := Lex("%{ raw c++ %%code }% x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.RAWCPP || toks[0].Lexeme != " raw c++ %%code " {
		t.Fatalf("raw = %v %q", toks[0].Kind, toks[0].Lexeme)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Fatalf("a pos = %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Fatalf("b pos = %v", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"#", "%{ open", "/* open", "@", "&x", "|x"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestLexAllocatesOnce pins that Lex sizes its token slice from the
// source length: every program of the benchmark's boot_cold table lexes
// in a small constant number of allocations, with the estimate never
// below the token count (which would mean append grew the slice).
func TestLexAllocatesOnce(t *testing.T) {
	files, err := filepath.Glob("../../../benchmark/programs/*.pbcc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark programs (%v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if est := len(src)/2 + 1; len(toks) > est {
			t.Errorf("%s: %d tokens exceed the estimate %d from %d bytes", f, len(toks), est, len(src))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Lex(src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: Lex made %.0f allocations, want at most 2", f, allocs)
		}
	}
}
