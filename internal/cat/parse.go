package cat

import (
	"fmt"
	"strings"
	"sync"
)

// Expr is a .cat relation expression.
type Expr interface{ exprString() string }

// Ident references a bound relation or function.
type Ident struct{ Name string }

func (e Ident) exprString() string { return e.Name }

// Union is "l | r".
type Union struct{ L, R Expr }

func (e Union) exprString() string { return e.L.exprString() + " | " + e.R.exprString() }

// Inter is "l & r".
type Inter struct{ L, R Expr }

func (e Inter) exprString() string { return e.L.exprString() + " & " + e.R.exprString() }

// Diff is "l \ r".
type Diff struct{ L, R Expr }

func (e Diff) exprString() string { return e.L.exprString() + " \\ " + e.R.exprString() }

// App applies a function: "WW(po-loc)" or "rmo(cta-fence)".
type App struct {
	Fn   string
	Args []Expr
}

func (e App) exprString() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.exprString()
	}
	return e.Fn + "(" + strings.Join(args, ", ") + ")"
}

// Stmt is a top-level statement: a let binding or a check.
type Stmt interface{ stmtString() string }

// Let binds a name (possibly parameterised) to an expression.
type Let struct {
	Name   string
	Params []string
	Body   Expr
}

func (s Let) stmtString() string {
	if len(s.Params) > 0 {
		return fmt.Sprintf("let %s(%s) = %s", s.Name, strings.Join(s.Params, ", "), s.Body.exprString())
	}
	return fmt.Sprintf("let %s = %s", s.Name, s.Body.exprString())
}

// Check is "acyclic e as name" (or irreflexive/empty).
type Check struct {
	Kind CheckKind
	Expr Expr
	Name string
}

func (s Check) stmtString() string {
	return fmt.Sprintf("%s %s as %s", s.Kind, s.Expr.exprString(), s.Name)
}

// Model is a parsed .cat model. Compile lowers it (once) to a flat slot
// program, which RunExec and RunExecVerdict evaluate.
type Model struct {
	Name  string
	Stmts []Stmt

	compileOnce sync.Once
	prog        *Program
	compileErr  error
}

// String reproduces the model source in canonical form.
func (m *Model) String() string {
	var sb strings.Builder
	if m.Name != "" {
		sb.WriteString(m.Name + "\n")
	}
	for _, s := range m.Stmts {
		sb.WriteString(s.stmtString() + "\n")
	}
	return sb.String()
}

// token kinds for the lexer.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tLParen
	tRParen
	tPipe
	tAmp
	tBackslash
	tEquals
	tComma
)

type token struct {
	kind tokKind
	text string
	line int
}

// lex tokenises .cat source. Identifiers may contain letters, digits, '_',
// '-' and '.', covering names like "po-loc-llh" and "membar.sys". Comments
// are "(* ... *)" and "//" to end of line.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '(' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*)")
			if end < 0 {
				return nil, fmt.Errorf("cat: line %d: unterminated comment", line)
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(':
			toks = append(toks, token{tLParen, "(", line})
			i++
		case c == ')':
			toks = append(toks, token{tRParen, ")", line})
			i++
		case c == '|':
			toks = append(toks, token{tPipe, "|", line})
			i++
		case c == '&':
			toks = append(toks, token{tAmp, "&", line})
			i++
		case c == '\\':
			toks = append(toks, token{tBackslash, "\\", line})
			i++
		case c == '=':
			toks = append(toks, token{tEquals, "=", line})
			i++
		case c == ',':
			toks = append(toks, token{tComma, ",", line})
			i++
		case isIdentByte(c):
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			toks = append(toks, token{tIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("cat: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tEOF, "", line})
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.'
}

// Parse parses .cat source into a model. The optional leading identifier
// line (a bare name before the first let/check) becomes the model name.
func Parse(src string) (*Model, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &Model{}
	// Optional model name: an identifier not followed by '=' or '(' and
	// not a keyword.
	if p.peek().kind == tIdent && !isKeyword(p.peek().text) {
		m.Name = p.next().text
	}
	for p.peek().kind != tEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		m.Stmts = append(m.Stmts, s)
	}
	return m, nil
}

// MustParse parses src and panics on error; for embedded model sources.
func MustParse(src string) *Model {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

func isKeyword(s string) bool {
	switch s {
	case "let", "acyclic", "irreflexive", "empty", "as":
		return true
	}
	return false
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1] // the tEOF sentinel
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("cat: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectIdent(text string) error {
	t := p.next()
	if t.kind != tIdent || t.text != text {
		return fmt.Errorf("cat: line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != tIdent {
		return nil, p.errf("expected statement, got %q", t.text)
	}
	switch t.text {
	case "let":
		return p.parseLet()
	case "acyclic":
		p.next()
		return p.parseCheck(Acyclic)
	case "irreflexive":
		p.next()
		return p.parseCheck(Irreflexive)
	case "empty":
		p.next()
		return p.parseCheck(Empty)
	default:
		return nil, p.errf("unexpected token %q", t.text)
	}
}

func (p *parser) parseLet() (Stmt, error) {
	if err := p.expectIdent("let"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.kind != tIdent {
		return nil, p.errf("expected name after let")
	}
	var params []string
	if p.peek().kind == tLParen {
		p.next()
		for {
			t := p.next()
			if t.kind != tIdent {
				return nil, p.errf("expected parameter name")
			}
			params = append(params, t.text)
			if p.peek().kind == tComma {
				p.next()
				continue
			}
			break
		}
		if t := p.next(); t.kind != tRParen {
			return nil, p.errf("expected ) after parameters")
		}
	}
	if t := p.next(); t.kind != tEquals {
		return nil, p.errf("expected = in let")
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return Let{Name: name.text, Params: params, Body: body}, nil
}

func (p *parser) parseCheck(kind CheckKind) (Stmt, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("as"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.kind != tIdent {
		return nil, p.errf("expected check name after as")
	}
	return Check{Kind: kind, Expr: e, Name: name.text}, nil
}

// Expression grammar, loosest to tightest: union < difference < inter <
// primary. ("\" and "&" at distinct levels keeps "a & b \ c" unambiguous.)
func (p *parser) parseExpr() (Expr, error) { return p.parseUnion() }

func (p *parser) parseUnion() (Expr, error) {
	l, err := p.parseDiff()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tPipe {
		p.next()
		r, err := p.parseDiff()
		if err != nil {
			return nil, err
		}
		l = Union{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseDiff() (Expr, error) {
	l, err := p.parseInter()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tBackslash {
		p.next()
		r, err := p.parseInter()
		if err != nil {
			return nil, err
		}
		l = Diff{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseInter() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tAmp {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = Inter{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if c := p.next(); c.kind != tRParen {
			return nil, p.errf("expected )")
		}
		return e, nil
	case tIdent:
		if isKeyword(t.text) {
			return nil, fmt.Errorf("cat: line %d: unexpected keyword %q in expression", t.line, t.text)
		}
		if p.peek().kind == tLParen {
			p.next()
			var args []Expr
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.peek().kind == tComma {
					p.next()
					continue
				}
				break
			}
			if c := p.next(); c.kind != tRParen {
				return nil, p.errf("expected ) after arguments")
			}
			return App{Fn: t.text, Args: args}, nil
		}
		return Ident{Name: t.text}, nil
	default:
		return nil, fmt.Errorf("cat: line %d: unexpected token %q in expression", t.line, t.text)
	}
}
