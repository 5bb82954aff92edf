package litmus

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// State is a final machine state against which a condition is evaluated:
// final register values per thread plus final memory.
type State interface {
	// Reg returns the final value of thread tid's register r.
	Reg(tid int, r ptx.Reg) (int64, bool)
	// Mem returns the final value of location loc.
	Mem(loc ptx.Sym) (int64, bool)
}

// Cond is a final-state condition ("exists (...)" in Fig. 12).
type Cond interface {
	fmt.Stringer
	// AppendTo appends the condition's String form to b and returns the
	// extended buffer.
	AppendTo(b []byte) []byte
	// Eval reports whether the condition holds in state s.
	Eval(s State) bool
}

// RegEq asserts thread Thread's register Reg holds Val ("0:r2=0").
type RegEq struct {
	Thread int
	Reg    ptx.Reg
	Val    int64
}

// Eval reports whether the register equality holds.
func (c RegEq) Eval(s State) bool {
	v, ok := s.Reg(c.Thread, c.Reg)
	return ok && v == c.Val
}

// String renders "tid:reg=val".
func (c RegEq) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends "tid:reg=val" to b.
func (c RegEq) AppendTo(b []byte) []byte {
	b = append(strconv.AppendInt(b, int64(c.Thread), 10), ':')
	b = append(append(b, c.Reg...), '=')
	return strconv.AppendInt(b, c.Val, 10)
}

// MemEq asserts location Loc holds Val ("x=1").
type MemEq struct {
	Loc ptx.Sym
	Val int64
}

// Eval reports whether the memory equality holds.
func (c MemEq) Eval(s State) bool {
	v, ok := s.Mem(c.Loc)
	return ok && v == c.Val
}

// String renders "loc=val".
func (c MemEq) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends "loc=val" to b.
func (c MemEq) AppendTo(b []byte) []byte {
	return strconv.AppendInt(append(append(b, c.Loc...), '='), c.Val, 10)
}

// CondAnd is a conjunction ("/\").
type CondAnd struct{ L, R Cond }

// Eval reports whether both conjuncts hold.
func (c CondAnd) Eval(s State) bool { return c.L.Eval(s) && c.R.Eval(s) }

// String renders "L /\ R".
func (c CondAnd) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends "L /\ R" to b.
func (c CondAnd) AppendTo(b []byte) []byte {
	return appendCondParen(append(appendCond(b, c.L), " /\\ "...), c.R)
}

// CondOr is a disjunction ("\/").
type CondOr struct{ L, R Cond }

// Eval reports whether either disjunct holds.
func (c CondOr) Eval(s State) bool { return c.L.Eval(s) || c.R.Eval(s) }

// String renders "(L \/ R)".
func (c CondOr) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends "(L \/ R)" to b.
func (c CondOr) AppendTo(b []byte) []byte {
	b = append(appendCond(append(b, '('), c.L), " \\/ "...)
	return append(appendCond(b, c.R), ')')
}

// CondNot is a negation ("~").
type CondNot struct{ C Cond }

// Eval reports whether the operand fails.
func (c CondNot) Eval(s State) bool { return !c.C.Eval(s) }

// String renders "~C".
func (c CondNot) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends "~C" to b.
func (c CondNot) AppendTo(b []byte) []byte { return appendCondParen(append(b, '~'), c.C) }

// appendCond appends c's String form; a nil condition renders the way
// fmt's %s verb prints it.
func appendCond(b []byte, c Cond) []byte {
	if c == nil {
		return append(b, "%!s(<nil>)"...)
	}
	return c.AppendTo(b)
}

// appendCondParen appends c, parenthesised when it is a binary connective.
func appendCondParen(b []byte, c Cond) []byte {
	switch c.(type) {
	case CondAnd, CondOr:
		return append(appendCond(append(b, '('), c), ')')
	}
	return appendCond(b, c)
}

// And builds the conjunction of one or more conditions.
func And(cs ...Cond) Cond {
	if len(cs) == 0 {
		panic("litmus: And of nothing")
	}
	c := cs[0]
	for _, n := range cs[1:] {
		c = CondAnd{L: c, R: n}
	}
	return c
}

// CondAtoms returns the leaf atoms (RegEq, MemEq) of a condition.
func CondAtoms(c Cond) []Cond {
	switch v := c.(type) {
	case CondAnd:
		return append(CondAtoms(v.L), CondAtoms(v.R)...)
	case CondOr:
		return append(CondAtoms(v.L), CondAtoms(v.R)...)
	case CondNot:
		return CondAtoms(v.C)
	default:
		return []Cond{c}
	}
}

// CondRegs calls f with each register atom of c, left to right.
func CondRegs(c Cond, f func(RegEq)) {
	switch v := c.(type) {
	case CondAnd:
		CondRegs(v.L, f)
		CondRegs(v.R, f)
	case CondOr:
		CondRegs(v.L, f)
		CondRegs(v.R, f)
	case CondNot:
		CondRegs(v.C, f)
	case RegEq:
		f(v)
	}
}

// ParseCond parses the condition fragment used by Fig. 12:
//
//	cond := or
//	or   := and ("\/" and)*
//	and  := unary ("/\" unary)*
//	unary := "~" unary | "(" cond ")" | atom
//	atom := TID ":" REG "=" INT | LOC "=" INT
//
// The paper's figures also write conjunction with the Unicode "∧", which is
// accepted, as is "∨" for disjunction.
func ParseCond(src string) (Cond, error) { return parseCond(src, nil) }

// parseCond is ParseCond, resolving each LOC atom against t as ResolveCond
// does when t is not nil.
func parseCond(src string, t *Test) (Cond, error) {
	toks := src
	if strings.Contains(src, "∧") || strings.Contains(src, "∨") {
		toks = strings.ReplaceAll(strings.ReplaceAll(src, "∧", "/\\"), "∨", "\\/")
	}
	p := &condParser{rest: toks, t: t}
	p.advance()
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok != "" {
		return nil, fmt.Errorf("litmus: trailing tokens in condition %q", src)
	}
	return c, nil
}

// condParser reads the condition's tokens in place: "/\", "\/", each of
// ( ) = : ~, and the runs between them and the blanks ' ', '\t', '\n' and
// '\r'.
type condParser struct {
	tok  string // the token at the head; "" at the end
	rest string // the source after tok
	t    *Test  // the test LOC atoms resolve against, or nil
}

// advance reads the next token into p.tok.
func (p *condParser) advance() {
	s := p.rest
	i := 0
	for i < len(s) && isCondBlank(s[i]) {
		i++
	}
	if i == len(s) {
		p.tok, p.rest = "", ""
		return
	}
	j := i + 1
	switch c := s[i]; {
	case isConnective(s, i):
		j++
	case c == '(' || c == ')' || c == '=' || c == ':' || c == '~':
	default:
		for j < len(s) && !isCondBlank(s[j]) && !isCondPunct(s[j]) && !isConnective(s, j) {
			j++
		}
	}
	p.tok, p.rest = s[i:j], s[j:]
}

func isCondBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isCondPunct(c byte) bool { return c == '(' || c == ')' || c == '=' || c == ':' || c == '~' }

// isConnective reports whether s[i:] starts with "/\" or "\/".
func isConnective(s string, i int) bool {
	return i+1 < len(s) && (s[i] == '/' && s[i+1] == '\\' || s[i] == '\\' && s[i+1] == '/')
}

func (p *condParser) next() string {
	tok := p.tok
	p.advance()
	return tok
}

func (p *condParser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok == "\\/" {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = CondOr{L: l, R: r}
	}
	return l, nil
}

func (p *condParser) parseAnd() (Cond, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok == "/\\" {
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = CondAnd{L: l, R: r}
	}
	return l, nil
}

func (p *condParser) parseUnary() (Cond, error) {
	switch p.tok {
	case "~":
		p.advance()
		c, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return CondNot{C: c}, nil
	case "(":
		p.advance()
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("litmus: missing ) in condition")
		}
		return c, nil
	}
	return p.parseAtom()
}

func (p *condParser) parseAtom() (Cond, error) {
	first := p.next()
	if first == "" {
		return nil, fmt.Errorf("litmus: unexpected end of condition")
	}
	if p.tok == ":" {
		// TID : REG = INT
		tid, err := strconv.Atoi(first)
		if err != nil {
			return nil, fmt.Errorf("litmus: bad thread id %q in condition", first)
		}
		p.advance() // ':'
		reg := p.next()
		if reg == "" {
			return nil, fmt.Errorf("litmus: missing register in condition")
		}
		if p.next() != "=" {
			return nil, fmt.Errorf("litmus: expected = in condition")
		}
		val, err := parseCondInt(p.next())
		if err != nil {
			return nil, err
		}
		return RegEq{Thread: tid, Reg: ptx.Reg(reg), Val: val}, nil
	}
	// LOC = INT, or bare REG = INT (the figures write "r1=1" with unique
	// register names across threads; such atoms are resolved against the
	// test, as ResolveCond does).
	if p.next() != "=" {
		return nil, fmt.Errorf("litmus: expected = after %q in condition", first)
	}
	val, err := parseCondInt(p.next())
	if err != nil {
		return nil, err
	}
	if p.t != nil {
		if tid, ok := regOwner(p.t, ptx.Reg(first)); ok {
			return RegEq{Thread: tid, Reg: ptx.Reg(first), Val: val}, nil
		}
	}
	return MemEq{Loc: ptx.Sym(first), Val: val}, nil
}

func parseCondInt(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("litmus: bad integer %q in condition", s)
	}
	return v, nil
}

// ResolveCond rewrites MemEq atoms whose "location" actually names a
// register declared by exactly one thread into RegEq atoms. The paper's
// figures use this shorthand ("final: r1=1 ∧ r2=0") since register names are
// unique across threads there. Subtrees without such an atom are returned
// as they are.
func ResolveCond(c Cond, t *Test) Cond {
	r, _ := resolveCond(c, t)
	return r
}

// resolveCond is ResolveCond, also reporting whether anything changed.
func resolveCond(c Cond, t *Test) (Cond, bool) {
	switch v := c.(type) {
	case CondAnd:
		l, lc := resolveCond(v.L, t)
		r, rc := resolveCond(v.R, t)
		if lc || rc {
			return CondAnd{L: l, R: r}, true
		}
	case CondOr:
		l, lc := resolveCond(v.L, t)
		r, rc := resolveCond(v.R, t)
		if lc || rc {
			return CondOr{L: l, R: r}, true
		}
	case CondNot:
		if n, changed := resolveCond(v.C, t); changed {
			return CondNot{C: n}, true
		}
	case MemEq:
		if tid, ok := regOwner(t, ptx.Reg(v.Loc)); ok {
			return RegEq{Thread: tid, Reg: ptx.Reg(v.Loc), Val: v.Val}, true
		}
	}
	return c, false
}

// regOwner returns the one thread whose program mentions r, if exactly one
// does.
func regOwner(t *Test, r ptx.Reg) (int, bool) {
	owner := -1
	for tid := range t.Threads {
		if t.Threads[tid].Prog.MentionsReg(r) {
			if owner >= 0 {
				return 0, false
			}
			owner = tid
		}
	}
	return owner, owner >= 0
}
