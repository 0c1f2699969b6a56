// Package parser builds PetaBricks ASTs from source text by recursive
// descent. It accepts the dialect used throughout the paper: transform
// headers with from/to/through/generator/tunable/template clauses, rules
// written `to (...) from (...) [where expr] { body }` with optional
// priority prefixes, region accessors (.cell/.row/.column/.region),
// matrix version syntax A<0..n>, and C-like rule bodies.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"petabricks/internal/pbc/ast"
	"petabricks/internal/pbc/lexer"
	"petabricks/internal/pbc/token"
)

// Error is a parse error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// tokens is the stream a parser reads: a *lexer.Lexer, which scans each
// token as the parser asks for it, or, in FuzzParse's reference, the
// tokens of a file lexed whole first.
type tokens interface {
	Next() (token.Token, error)
}

type parser struct {
	ts  tokens
	tok token.Token // the current token
	// lexErr is the stream's error; the parser has seen EOF since.
	lexErr error
	// depth counts nested expression/statement recursion; adversarial
	// input like "((((…" or deeply nested ifs must produce a parse
	// error, not a stack overflow.
	depth int
}

// maxDepth bounds expression and statement nesting. Real programs stay
// in the tens; the limit only exists to stop fuzzer-crafted input from
// exhausting the goroutine stack.
const maxDepth = 256

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf("nesting deeper than %d levels", maxDepth)}
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// Parse parses a whole source file. A lexical error anywhere in the
// file is the error Parse returns, ahead of any parse error: the parser
// reads its tokens as it goes, and after a parse error it scans the rest
// of the file for one.
func Parse(src string) (*ast.Program, error) { return parse(lexer.New(src)) }

func parse(ts tokens) (*ast.Program, error) {
	p := &parser{ts: ts}
	p.advance()
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		t, err := p.transform()
		if err != nil {
			for p.lexErr == nil && !p.at(token.EOF) {
				p.advance()
			}
			if p.lexErr != nil {
				return nil, p.lexErr
			}
			return nil, err
		}
		prog.Transforms = append(prog.Transforms, t)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, nil
}

// advance reads the next token into p.tok. A lexical error ends the
// stream: it is kept in p.lexErr, and the parser sees EOF from there on.
func (p *parser) advance() {
	t, err := p.ts.Next()
	if err != nil {
		p.lexErr = err
		t = token.Token{Kind: token.EOF, Pos: p.tok.Pos}
	}
	p.tok = t
}

func (p *parser) cur() token.Token     { return p.tok }
func (p *parser) at(k token.Kind) bool { return p.tok.Kind == k }

func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.advance()
	}
	return t
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf("expected %s, found %s", k, p.cur())}
	}
	return p.next(), nil
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// transform parses one transform declaration.
func (p *parser) transform() (*ast.Transform, error) {
	start, err := p.expect(token.KwTransform)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	t := &ast.Transform{Name: name.Lexeme, Pos: start.Pos}
	// Optional template parameter list: template <a, b>.
	for !p.at(token.LBrace) && !p.at(token.EOF) {
		switch {
		case p.accept(token.KwTemplate):
			if _, err := p.expect(token.LAngle); err != nil {
				return nil, err
			}
			for {
				id, err := p.expect(token.IDENT)
				if err != nil {
					return nil, err
				}
				t.Templates = append(t.Templates, id.Lexeme)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RAngle); err != nil {
				return nil, err
			}
		case p.accept(token.KwFrom):
			ds, err := p.matrixDecls()
			if err != nil {
				return nil, err
			}
			t.From = append(t.From, ds...)
		case p.accept(token.KwTo):
			ds, err := p.matrixDecls()
			if err != nil {
				return nil, err
			}
			t.To = append(t.To, ds...)
		case p.accept(token.KwThrough):
			ds, err := p.matrixDecls()
			if err != nil {
				return nil, err
			}
			t.Through = append(t.Through, ds...)
		case p.accept(token.KwGenerator):
			id, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			t.Generator = id.Lexeme
		case p.accept(token.KwTunable):
			td, err := p.tunableDecl()
			if err != nil {
				return nil, err
			}
			t.Tunables = append(t.Tunables, td)
		default:
			return nil, p.errorf("unexpected %s in transform header", p.cur())
		}
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	for !p.at(token.RBrace) {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		r.Index = len(t.Rules)
		t.Rules = append(t.Rules, r)
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return t, nil
}

// matrixDecls parses a comma-separated list like `A[c,h], B[w,c]`.
func (p *parser) matrixDecls() ([]*ast.MatrixDecl, error) {
	var out []*ast.MatrixDecl
	for {
		d, err := p.matrixDecl()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		if !p.accept(token.Comma) {
			return out, nil
		}
	}
}

func (p *parser) matrixDecl() (*ast.MatrixDecl, error) {
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	d := &ast.MatrixDecl{Name: name.Lexeme, Pos: name.Pos}
	if p.accept(token.LAngle) {
		// Version bounds use the comparison-free grammar so the closing
		// '>' is not mistaken for a greater-than operator.
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.DotDot); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RAngle); err != nil {
			return nil, err
		}
		d.Version = &ast.VersionRange{Lo: lo, Hi: hi}
	}
	if p.accept(token.LBracket) {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Dims = append(d.Dims, e)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) tunableDecl() (ast.TunableDecl, error) {
	name, err := p.expect(token.IDENT)
	if err != nil {
		return ast.TunableDecl{}, err
	}
	td := ast.TunableDecl{Name: name.Lexeme, Pos: name.Pos, Min: 1, Max: 1 << 30, Defalt: 1}
	if p.accept(token.LParen) {
		vals := make([]int64, 0, 3)
		for {
			num, err := p.expect(token.NUMBER)
			if err != nil {
				return ast.TunableDecl{}, err
			}
			v, err := strconv.ParseInt(num.Lexeme, 10, 64)
			if err != nil {
				return ast.TunableDecl{}, &Error{Pos: num.Pos, Msg: "tunable bounds must be integers"}
			}
			vals = append(vals, v)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return ast.TunableDecl{}, err
		}
		switch len(vals) {
		case 1:
			td.Defalt = vals[0]
		case 2:
			td.Min, td.Max = vals[0], vals[1]
			td.Defalt = vals[0]
		case 3:
			td.Min, td.Max, td.Defalt = vals[0], vals[1], vals[2]
		default:
			return ast.TunableDecl{}, p.errorf("tunable takes 1-3 arguments")
		}
	}
	return td, nil
}

// rule parses one rule: [priority(n)|primary|secondary]
// to ( regions ) from ( regions ) [where expr] { body } — or, for
// purely computational rules, `RuleName ... ` is not supported; the
// paper's rules are all to/from form.
func (p *parser) rule() (*ast.Rule, error) {
	r := &ast.Rule{Pos: p.cur().Pos}
	for {
		switch {
		case p.accept(token.KwPrimary):
			r.Priority = 0
			continue
		case p.accept(token.KwSecondary):
			r.Priority = 1
			continue
		case p.accept(token.KwPriority):
			if _, err := p.expect(token.LParen); err != nil {
				return nil, err
			}
			num, err := p.expect(token.NUMBER)
			if err != nil {
				return nil, err
			}
			v, err := strconv.Atoi(num.Lexeme)
			if err != nil {
				return nil, &Error{Pos: num.Pos, Msg: "priority must be an integer"}
			}
			r.Priority = v
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			continue
		case p.accept(token.KwRule):
			// Optional `rule Name` cosmetic prefix.
			if p.at(token.IDENT) {
				p.next()
			}
			continue
		}
		break
	}
	if _, err := p.expect(token.KwTo); err != nil {
		return nil, err
	}
	to, err := p.regionList()
	if err != nil {
		return nil, err
	}
	r.To = to
	if _, err := p.expect(token.KwFrom); err != nil {
		return nil, err
	}
	from, err := p.regionList()
	if err != nil {
		return nil, err
	}
	r.From = from
	if p.accept(token.KwWhere) {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		r.Where = w
	}
	if p.at(token.RAWCPP) {
		r.RawBody = p.next().Lexeme
		return r, nil
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	r.Body = body
	return r, nil
}

func (p *parser) regionList() ([]*ast.RegionRef, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var out []*ast.RegionRef
	for {
		ref, err := p.regionRef()
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) regionRef() (*ast.RegionRef, error) {
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	ref := &ast.RegionRef{Matrix: name.Lexeme, Kind: ast.RegionAll, Pos: name.Pos}
	if p.accept(token.LAngle) {
		v, err := p.addExpr() // comparison-free: '>' closes the version
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RAngle); err != nil {
			return nil, err
		}
		ref.Version = v
	}
	if p.accept(token.Dot) {
		acc, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		switch acc.Lexeme {
		case "cell":
			ref.Kind = ast.RegionCell
		case "row":
			ref.Kind = ast.RegionRow
		case "column", "col":
			ref.Kind = ast.RegionCol
		case "region":
			ref.Kind = ast.RegionRegion
		default:
			return nil, &Error{Pos: acc.Pos, Msg: fmt.Sprintf("unknown region accessor %q", acc.Lexeme)}
		}
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		if !p.at(token.RParen) {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				ref.Args = append(ref.Args, e)
				if !p.accept(token.Comma) {
					break
				}
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
	}
	// Optional `out`/`in` direction annotations are treated as binding
	// names unless followed by another identifier.
	if p.at(token.IDENT) {
		b := p.next()
		if p.at(token.IDENT) && (b.Lexeme == "out" || b.Lexeme == "in") {
			// `out name` form: annotation then binding.
			ref.Binding = p.next().Lexeme
		} else {
			ref.Binding = b.Lexeme
		}
	}
	// Trailing `out`/`in` annotation after the binding (Figure 1 style:
	// `to (AB.cell(x,y) out)` binds the cell to the name "out").
	return ref, nil
}

func (p *parser) block() ([]ast.Stmt, error) {
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	var out []ast.Stmt
	for !p.at(token.RBrace) {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) stmtOrBlock() ([]ast.Stmt, error) {
	if p.at(token.LBrace) {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []ast.Stmt{s}, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.at(token.KwIf):
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		then, err := p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
		var els []ast.Stmt
		if p.accept(token.KwElse) {
			els, err = p.stmtOrBlock()
			if err != nil {
				return nil, err
			}
		}
		return &ast.If{Cond: cond, Then: then, Else: els}, nil
	case p.at(token.KwFor):
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		var init ast.Stmt
		if !p.at(token.Semi) {
			s, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			init = s
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		var cond ast.Expr
		if !p.at(token.Semi) {
			c, err := p.expr()
			if err != nil {
				return nil, err
			}
			cond = c
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		var post ast.Stmt
		if !p.at(token.RParen) {
			s, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			post = s
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		body, err := p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
		return &ast.For{Init: init, Cond: cond, Post: post, Body: body}, nil
	case p.at(token.KwReturn):
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return &ast.Return{X: e}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// simpleStmt parses decls, assignments, inc/dec, and expression
// statements (without the trailing semicolon).
func (p *parser) simpleStmt() (ast.Stmt, error) {
	if p.at(token.KwInt) || p.at(token.KwDouble) {
		ty := p.next()
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		d := &ast.Decl{Type: ty.Lexeme, Name: name.Lexeme}
		if p.accept(token.Assign) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		return d, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(token.Assign) || p.at(token.PlusAssign) || p.at(token.MinusAssign):
		op := p.next()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		switch e.(type) {
		case *ast.Ident, *ast.Index:
		default:
			return nil, p.errorf("invalid assignment target %s", ast.ExprString(e))
		}
		return &ast.Assign{LHS: e, Op: op.Lexeme, RHS: rhs}, nil
	case p.at(token.PlusPlus) || p.at(token.MinusMinus):
		op := p.next()
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, p.errorf("%s requires a variable", op.Lexeme)
		}
		return &ast.IncDec{Name: id.Name, Op: op.Lexeme}, nil
	default:
		return &ast.ExprStmt{X: e}, nil
	}
}

// --- Expression parsing (precedence climbing) -----------------------------

func (p *parser) expr() (ast.Expr, error) { return p.ternary() }

func (p *parser) ternary() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	c, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if !p.accept(token.Question) {
		return c, nil
	}
	a, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	b, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return &ast.Cond{C: c, A: a, B: b}, nil
}

func (p *parser) orExpr() (ast.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.OrOr) {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (ast.Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.AndAnd) {
		p.next()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (ast.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().Kind {
		case token.LAngle:
			op = "<"
		case token.RAngle:
			op = ">"
		case token.Leq:
			op = "<="
		case token.Geq:
			op = ">="
		case token.Eq:
			op = "=="
		case token.Neq:
			op = "!="
		default:
			return l, nil
		}
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) addExpr() (ast.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.Plus) || p.at(token.Minus) {
		op := p.next().Lexeme
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (ast.Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(token.Star) || p.at(token.Slash) || p.at(token.Percent) {
		op := p.next().Lexeme
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.at(token.Minus) || p.at(token.Not) {
		op := p.next().Lexeme
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: op, X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (ast.Expr, error) {
	switch {
	case p.at(token.NUMBER):
		t := p.next()
		v, err := strconv.ParseFloat(t.Lexeme, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: fmt.Sprintf("bad number %q", t.Lexeme)}
		}
		return &ast.Num{Val: v, IsFl: strings.ContainsAny(t.Lexeme, ".eE")}, nil
	case p.at(token.LParen):
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(token.IDENT):
		name := p.next()
		// name.cell(args) indexing of a bound region.
		if p.accept(token.Dot) {
			acc, err := p.expect(token.IDENT)
			if err != nil {
				return nil, err
			}
			if acc.Lexeme != "cell" {
				return nil, &Error{Pos: acc.Pos, Msg: fmt.Sprintf("only .cell() indexing is allowed in bodies, got .%s", acc.Lexeme)}
			}
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &ast.Index{Base: name.Lexeme, Args: args}, nil
		}
		if p.at(token.LParen) {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &ast.Call{Fn: name.Lexeme, Args: args}, nil
		}
		return &ast.Ident{Name: name.Lexeme}, nil
	}
	return nil, p.errorf("unexpected %s in expression", p.cur())
}

func (p *parser) callArgs() ([]ast.Expr, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var args []ast.Expr
	if !p.at(token.RParen) {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return args, nil
}
