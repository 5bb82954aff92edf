package ptx

import (
	"fmt"
	"strconv"
	"strings"
)

// RegClassifier decides whether an identifier names a register (as opposed
// to a symbolic memory location). The litmus parser supplies a classifier
// built from the test's register declarations; DefaultRegClassifier is used
// when nil is passed.
type RegClassifier func(name string) bool

// DefaultRegClassifier treats identifiers of the form r<digits>, p<digits>,
// bare "p", or r<letter> (e.g. "rb") as registers, matching the naming used
// throughout the paper's figures.
func DefaultRegClassifier(name string) bool {
	if name == "" {
		return false
	}
	if name[0] != 'r' && name[0] != 'p' {
		return false
	}
	rest := name[1:]
	if rest == "" {
		return true
	}
	digits := true
	for _, c := range rest {
		if c < '0' || c > '9' {
			digits = false
			break
		}
	}
	if digits {
		return true
	}
	return name[0] == 'r' && len(rest) == 1 && rest[0] >= 'a' && rest[0] <= 'z'
}

// ParseInstr parses a single PTX instruction in the paper's concrete syntax,
// e.g. "st.cg [x],1", "!p4 ld.cg r1,[d]" or "atom.cas r0,[h],0,1". Guards
// may be written "@p", "@!p", "p" or "!p". If isReg is nil,
// DefaultRegClassifier is used.
func ParseInstr(line string, isReg RegClassifier) (Instr, error) {
	if isReg == nil {
		isReg = DefaultRegClassifier
	}
	p := &instrParser{isReg: isReg}
	return p.parse(line)
}

type instrParser struct {
	isReg RegClassifier
}

func (p *instrParser) parse(line string) (Instr, error) {
	s := strings.TrimSpace(line)
	if i := strings.Index(s, "//"); i >= 0 {
		s = strings.TrimSpace(s[:i])
	}
	if s == "" {
		return nil, fmt.Errorf("ptx: empty instruction")
	}

	// Label definition: "name:".
	if strings.HasSuffix(s, ":") && !strings.ContainsAny(s, " \t,[") {
		name := strings.TrimSuffix(s, ":")
		if name == "" {
			return nil, fmt.Errorf("ptx: empty label name")
		}
		return LabelDef{Name: name}, nil
	}

	// Optional guard before the opcode.
	var guard *Guard
	head, rest := splitToken(s)
	if g, ok := p.parseGuard(head); ok {
		guard = g
		s = strings.TrimSpace(rest)
		head, rest = splitToken(s)
	}
	if head == "" {
		return nil, fmt.Errorf("ptx: missing opcode in %q", line)
	}

	op, dotted, hasMods := strings.Cut(head, ".")
	mods := modList{rest: dotted}
	if hasMods {
		mods.n = strings.Count(dotted, ".") + 1
	}
	var args argList
	args.split(rest)

	inst, err := p.parseOp(op, mods, &args, line)
	if err != nil {
		return nil, err
	}
	if guard != nil {
		inst = inst.WithGuard(guard)
	}
	return inst, nil
}

func (p *instrParser) parseGuard(tok string) (*Guard, bool) {
	t := strings.TrimPrefix(tok, "@")
	neg := false
	if strings.HasPrefix(t, "!") {
		neg = true
		t = t[1:]
	}
	// A guard token must be a register name and not an opcode.
	if !p.isReg(t) || isOpcode(t) {
		return nil, false
	}
	return &Guard{Reg: Reg(t), Neg: neg}, true
}

func isOpcode(s string) bool {
	switch s {
	case "ld", "st", "atom", "membar", "mov", "add", "and", "xor", "cvt", "setp", "bra":
		return true
	}
	return false
}

// splitToken splits off the first whitespace-delimited token.
func splitToken(s string) (head, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i+1:]
}

// modList is an opcode's dot-separated modifiers, read in place: "cg.s32"
// holds the two modifiers of "ld.cg.s32", and "" with n == 1 the one empty
// modifier of "ld.".
type modList struct {
	rest string // the modifiers not yet taken
	n    int    // how many of them there are
}

// next takes the first remaining modifier; n must be positive.
func (m *modList) next() string {
	mod, rest, _ := strings.Cut(m.rest, ".")
	m.rest, m.n = rest, m.n-1
	return mod
}

// argList is an operand list split on commas, each operand trimmed. No
// instruction takes more than four operands, so only the first four are
// kept; n counts them all.
type argList struct {
	a [4]string
	n int
}

// split fills the list from s.
func (l *argList) split(s string) {
	s = strings.TrimSpace(s)
	if s == "" {
		return
	}
	for more := true; more; l.n++ {
		var arg string
		arg, s, more = strings.Cut(s, ",")
		if l.n < len(l.a) {
			l.a[l.n] = strings.TrimSpace(arg)
		}
	}
}

// memMods decodes the modifier list of a load or store.
func memMods(mods modList) (vol bool, c CacheOp, t Type, err error) {
	for mods.n > 0 {
		switch m := mods.next(); m {
		case "volatile":
			vol = true
		case "ca", "a": // the paper's figures abbreviate .ca as .a
			c = CacheCA
		case "cg", "g": // and .cg as .g
			c = CacheCG
		case "global", "shared": // state-space qualifiers: space comes from the memory map
		default:
			tt, terr := ParseType(m)
			if terr != nil {
				return false, CacheDefault, TypeNone, fmt.Errorf("ptx: unknown ld/st modifier %q", m)
			}
			t = tt
		}
	}
	return vol, c, t, nil
}

func (p *instrParser) parseOp(op string, mods modList, args *argList, line string) (Instr, error) {
	switch op {
	case "ld":
		vol, c, t, err := memMods(mods)
		if err != nil {
			return nil, err
		}
		if args.n != 2 {
			return nil, fmt.Errorf("ptx: ld wants 2 operands in %q", line)
		}
		dst, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		a, err := p.addr(args.a[1])
		if err != nil {
			return nil, err
		}
		return Ld{base: base{Type: t}, Dst: dst, Addr: a, CacheOp: c, Volatile: vol}, nil

	case "st":
		vol, c, t, err := memMods(mods)
		if err != nil {
			return nil, err
		}
		if args.n != 2 {
			return nil, fmt.Errorf("ptx: st wants 2 operands in %q", line)
		}
		a, err := p.addr(args.a[0])
		if err != nil {
			return nil, err
		}
		src, err := p.operand(args.a[1])
		if err != nil {
			return nil, err
		}
		return St{base: base{Type: t}, Addr: a, Src: src, CacheOp: c, Volatile: vol}, nil

	case "atom":
		return p.parseAtom(mods, args, line)

	case "membar":
		if mods.n != 1 {
			return nil, fmt.Errorf("ptx: membar wants a scope in %q", line)
		}
		var sc Scope
		switch scope := mods.next(); scope {
		case "cta":
			sc = ScopeCTA
		case "gl":
			sc = ScopeGL
		case "sys":
			sc = ScopeSys
		default:
			return nil, fmt.Errorf("ptx: unknown membar scope %q", scope)
		}
		return Membar{Scope: sc}, nil

	case "mov":
		t, err := onlyType(mods)
		if err != nil {
			return nil, err
		}
		if args.n != 2 {
			return nil, fmt.Errorf("ptx: mov wants 2 operands in %q", line)
		}
		dst, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		src, err := p.operand(args.a[1])
		if err != nil {
			return nil, err
		}
		return Mov{base: base{Type: t}, Dst: dst, Src: src}, nil

	case "add", "and", "xor":
		t, err := onlyType(mods)
		if err != nil {
			return nil, err
		}
		if args.n != 3 {
			return nil, fmt.Errorf("ptx: %s wants 3 operands in %q", op, line)
		}
		dst, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		a, err := p.operand(args.a[1])
		if err != nil {
			return nil, err
		}
		b, err := p.operand(args.a[2])
		if err != nil {
			return nil, err
		}
		switch op {
		case "add":
			return Add{base: base{Type: t}, Dst: dst, A: a, B: b}, nil
		case "and":
			return And{base: base{Type: t}, Dst: dst, A: a, B: b}, nil
		default:
			return Xor{base: base{Type: t}, Dst: dst, A: a, B: b}, nil
		}

	case "cvt":
		if mods.n != 2 {
			return nil, fmt.Errorf("ptx: cvt wants two type specifiers in %q", line)
		}
		dt, err := ParseType(mods.next())
		if err != nil {
			return nil, err
		}
		st, err := ParseType(mods.next())
		if err != nil {
			return nil, err
		}
		if args.n != 2 {
			return nil, fmt.Errorf("ptx: cvt wants 2 operands in %q", line)
		}
		dst, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		src, err := p.operand(args.a[1])
		if err != nil {
			return nil, err
		}
		return Cvt{DstType: dt, SrcType: st, Dst: dst, Src: src}, nil

	case "setp":
		if mods.n < 1 || mods.next() != "eq" {
			return nil, fmt.Errorf("ptx: only setp.eq is supported, got %q", line)
		}
		t, err := onlyType(mods)
		if err != nil {
			return nil, err
		}
		if args.n != 3 {
			return nil, fmt.Errorf("ptx: setp.eq wants 3 operands in %q", line)
		}
		pr, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		a, err := p.operand(args.a[1])
		if err != nil {
			return nil, err
		}
		b, err := p.operand(args.a[2])
		if err != nil {
			return nil, err
		}
		return SetpEq{base: base{Type: t}, P: pr, A: a, B: b}, nil

	case "bra":
		if args.n != 1 {
			return nil, fmt.Errorf("ptx: bra wants a target in %q", line)
		}
		return Bra{Target: args.a[0]}, nil
	}
	return nil, fmt.Errorf("ptx: unknown opcode %q in %q", op, line)
}

func (p *instrParser) parseAtom(mods modList, args *argList, line string) (Instr, error) {
	if mods.n == 0 {
		return nil, fmt.Errorf("ptx: atom wants an operation in %q", line)
	}
	var aop string
	var t Type
	for mods.n > 0 {
		switch m := mods.next(); m {
		case "cas", "exch", "add", "inc":
			aop = m
		case "global", "shared":
		default:
			tt, err := ParseType(m)
			if err != nil {
				return nil, fmt.Errorf("ptx: unknown atom modifier %q", m)
			}
			t = tt
		}
	}
	switch aop {
	case "cas":
		if args.n != 4 {
			return nil, fmt.Errorf("ptx: atom.cas wants 4 operands in %q", line)
		}
		dst, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		a, err := p.addr(args.a[1])
		if err != nil {
			return nil, err
		}
		cmp, err := p.operand(args.a[2])
		if err != nil {
			return nil, err
		}
		nw, err := p.operand(args.a[3])
		if err != nil {
			return nil, err
		}
		return AtomCAS{base: base{Type: t}, Dst: dst, Addr: a, Cmp: cmp, New: nw}, nil
	case "exch", "add", "inc":
		if args.n != 3 {
			return nil, fmt.Errorf("ptx: atom.%s wants 3 operands in %q", aop, line)
		}
		dst, err := p.reg(args.a[0])
		if err != nil {
			return nil, err
		}
		a, err := p.addr(args.a[1])
		if err != nil {
			return nil, err
		}
		src, err := p.operand(args.a[2])
		if err != nil {
			return nil, err
		}
		switch aop {
		case "exch":
			return AtomExch{base: base{Type: t}, Dst: dst, Addr: a, Src: src}, nil
		case "add":
			return AtomAdd{base: base{Type: t}, Dst: dst, Addr: a, Src: src}, nil
		default:
			return AtomInc{base: base{Type: t}, Dst: dst, Addr: a, Bound: src}, nil
		}
	}
	return nil, fmt.Errorf("ptx: unknown atom operation in %q", line)
}

func onlyType(mods modList) (Type, error) {
	t := TypeNone
	for mods.n > 0 {
		tt, err := ParseType(mods.next())
		if err != nil {
			return TypeNone, err
		}
		t = tt
	}
	return t, nil
}

func (p *instrParser) reg(s string) (Reg, error) {
	if !p.isReg(s) {
		return "", fmt.Errorf("ptx: expected register, got %q", s)
	}
	return Reg(s), nil
}

// addr parses "[x]" or "[r1]".
func (p *instrParser) addr(s string) (Operand, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("ptx: expected [address], got %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, fmt.Errorf("ptx: empty address in %q", s)
	}
	if p.isReg(inner) {
		return Reg(inner), nil
	}
	if !isIdent(inner) {
		// A non-identifier location name would not survive the canonical
		// rendering (memory-map and condition lines delimit on punctuation).
		return nil, fmt.Errorf("ptx: bad location name in address %q", s)
	}
	return Sym(inner), nil
}

// operand parses a register, immediate, or symbolic location.
func (p *instrParser) operand(s string) (Operand, error) {
	if s == "" {
		return nil, fmt.Errorf("ptx: empty operand")
	}
	// Only a sign or a digit can start an integer; trying any other
	// operand would build a strconv error only to discard it.
	if c := s[0]; c == '+' || c == '-' || c >= '0' && c <= '9' {
		if v, err := strconv.ParseInt(s, 0, 64); err == nil {
			return Imm(v), nil
		}
	}
	if p.isReg(s) {
		return Reg(s), nil
	}
	if isIdent(s) {
		return Sym(s), nil
	}
	return nil, fmt.Errorf("ptx: cannot parse operand %q", s)
}

// IsIdent reports whether s is a well-formed identifier for symbolic
// names (locations, registers): letters, digits and underscores, not
// starting with a digit. The litmus parser applies the same rule to the
// names it introduces, so every accepted name survives the canonical
// rendering's punctuation-delimited lines.
func IsIdent(s string) bool { return isIdent(s) }

func isIdent(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// ParseProgram parses a sequence of instructions separated by newlines or
// semicolons. Blank lines and //-comments are skipped.
func ParseProgram(src string, isReg RegClassifier) (Program, error) {
	var prog Program
	for _, line := range strings.FieldsFunc(src, func(r rune) bool { return r == '\n' || r == ';' }) {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		inst, err := ParseInstr(line, isReg)
		if err != nil {
			return nil, err
		}
		prog = append(prog, inst)
	}
	return prog, nil
}
