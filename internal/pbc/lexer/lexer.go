// Package lexer tokenizes PetaBricks source text.
package lexer

import (
	"fmt"
	"strings"
	"unicode"

	"petabricks/internal/pbc/token"
)

// Lexer scans PetaBricks source into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src, line: 1, col: 1} }

// Error is a lexical error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) here() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.here()
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &Error{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token.Token{}, err
	}
	pos := l.here()
	if l.pos >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.pos]
		if k, ok := token.Keywords[word]; ok {
			return token.Token{Kind: k, Lexeme: word, Pos: pos}, nil
		}
		return token.Token{Kind: token.IDENT, Lexeme: word, Pos: pos}, nil
	case unicode.IsDigit(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.peek())) || l.peek() == '.' || l.peek() == 'e' || l.peek() == 'E') {
			// Stop before ".." (range operator), and before exponent-less dots
			// followed by an identifier (member access like 2.cell is illegal
			// anyway, but ranges like 0..n must split).
			if l.peek() == '.' && l.peek2() == '.' {
				break
			}
			if (l.peek() == 'e' || l.peek() == 'E') && !unicode.IsDigit(rune(l.peek2())) && l.peek2() != '-' && l.peek2() != '+' {
				break
			}
			l.advance()
		}
		return token.Token{Kind: token.NUMBER, Lexeme: l.src[start:l.pos], Pos: pos}, nil
	case c == '%' && l.peek2() == '{':
		l.advance()
		l.advance()
		if i := strings.Index(l.src[l.pos:], "}%"); i >= 0 {
			raw := l.src[l.pos : l.pos+i]
			for j := 0; j < i+2; j++ {
				l.advance()
			}
			return token.Token{Kind: token.RAWCPP, Lexeme: raw, Pos: pos}, nil
		}
		return token.Token{}, &Error{Pos: pos, Msg: "unterminated %{ escape"}
	}
	start := l.pos
	l.advance()
	two := func(next byte, k2 token.Kind, k1 token.Kind) (token.Token, error) {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: k2, Lexeme: l.src[start:l.pos], Pos: pos}, nil
		}
		return token.Token{Kind: k1, Lexeme: l.src[start:l.pos], Pos: pos}, nil
	}
	switch c {
	case '(':
		return token.Token{Kind: token.LParen, Lexeme: "(", Pos: pos}, nil
	case ')':
		return token.Token{Kind: token.RParen, Lexeme: ")", Pos: pos}, nil
	case '{':
		return token.Token{Kind: token.LBrace, Lexeme: "{", Pos: pos}, nil
	case '}':
		return token.Token{Kind: token.RBrace, Lexeme: "}", Pos: pos}, nil
	case '[':
		return token.Token{Kind: token.LBracket, Lexeme: "[", Pos: pos}, nil
	case ']':
		return token.Token{Kind: token.RBracket, Lexeme: "]", Pos: pos}, nil
	case ',':
		return token.Token{Kind: token.Comma, Lexeme: ",", Pos: pos}, nil
	case ';':
		return token.Token{Kind: token.Semi, Lexeme: ";", Pos: pos}, nil
	case '.':
		return two('.', token.DotDot, token.Dot)
	case '?':
		return token.Token{Kind: token.Question, Lexeme: "?", Pos: pos}, nil
	case ':':
		return token.Token{Kind: token.Colon, Lexeme: ":", Pos: pos}, nil
	case '+':
		if l.peek() == '+' {
			l.advance()
			return token.Token{Kind: token.PlusPlus, Lexeme: "++", Pos: pos}, nil
		}
		return two('=', token.PlusAssign, token.Plus)
	case '-':
		if l.peek() == '-' {
			l.advance()
			return token.Token{Kind: token.MinusMinus, Lexeme: "--", Pos: pos}, nil
		}
		return two('=', token.MinusAssign, token.Minus)
	case '*':
		return token.Token{Kind: token.Star, Lexeme: "*", Pos: pos}, nil
	case '/':
		return token.Token{Kind: token.Slash, Lexeme: "/", Pos: pos}, nil
	case '%':
		return token.Token{Kind: token.Percent, Lexeme: "%", Pos: pos}, nil
	case '=':
		return two('=', token.Eq, token.Assign)
	case '!':
		return two('=', token.Neq, token.Not)
	case '<':
		return two('=', token.Leq, token.LAngle)
	case '>':
		return two('=', token.Geq, token.RAngle)
	case '&':
		if l.peek() == '&' {
			l.advance()
			return token.Token{Kind: token.AndAnd, Lexeme: "&&", Pos: pos}, nil
		}
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.OrOr, Lexeme: "||", Pos: pos}, nil
		}
	}
	return token.Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || unicode.IsDigit(rune(c))
}
