package ptx

import (
	"fmt"
	"strconv"
	"strings"
)

// parseInstrOracle is ParseInstr as it was before the parser stopped
// splitting: the opcode's modifiers come from strings.Split, the operands
// from a split on commas, and every operand is first tried as an integer.
// TestParseInstrMatchesOracle checks that ParseInstr returns the same
// instruction, or the same error text, for every input it is given.
func parseInstrOracle(line string, isReg RegClassifier) (Instr, error) {
	if isReg == nil {
		isReg = DefaultRegClassifier
	}
	p := &instrParser{isReg: isReg}
	return p.parseOracle(line)
}

func (p *instrParser) parseOracle(line string) (Instr, error) {
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

	parts := strings.Split(head, ".")
	op := parts[0]
	mods := parts[1:]
	args := splitArgsOracle(rest)

	inst, err := p.parseOpOracle(op, mods, args, line)
	if err != nil {
		return nil, err
	}
	if guard != nil {
		inst = inst.WithGuard(guard)
	}
	return inst, nil
}

// splitArgsOracle splits an operand list on commas, trimming whitespace.
func splitArgsOracle(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	raw := strings.Split(s, ",")
	args := make([]string, 0, len(raw))
	for _, a := range raw {
		args = append(args, strings.TrimSpace(a))
	}
	return args
}

// memModsOracle decodes the modifier list of a load or store.
func memModsOracle(mods []string) (vol bool, c CacheOp, t Type, err error) {
	for _, m := range mods {
		switch m {
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

func (p *instrParser) parseOpOracle(op string, mods, args []string, line string) (Instr, error) {
	switch op {
	case "ld":
		vol, c, t, err := memModsOracle(mods)
		if err != nil {
			return nil, err
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("ptx: ld wants 2 operands in %q", line)
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		a, err := p.addr(args[1])
		if err != nil {
			return nil, err
		}
		return Ld{base: base{Type: t}, Dst: dst, Addr: a, CacheOp: c, Volatile: vol}, nil

	case "st":
		vol, c, t, err := memModsOracle(mods)
		if err != nil {
			return nil, err
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("ptx: st wants 2 operands in %q", line)
		}
		a, err := p.addr(args[0])
		if err != nil {
			return nil, err
		}
		src, err := p.operandOracle(args[1])
		if err != nil {
			return nil, err
		}
		return St{base: base{Type: t}, Addr: a, Src: src, CacheOp: c, Volatile: vol}, nil

	case "atom":
		return p.parseAtomOracle(mods, args, line)

	case "membar":
		if len(mods) != 1 {
			return nil, fmt.Errorf("ptx: membar wants a scope in %q", line)
		}
		var sc Scope
		switch mods[0] {
		case "cta":
			sc = ScopeCTA
		case "gl":
			sc = ScopeGL
		case "sys":
			sc = ScopeSys
		default:
			return nil, fmt.Errorf("ptx: unknown membar scope %q", mods[0])
		}
		return Membar{Scope: sc}, nil

	case "mov":
		t, err := onlyTypeOracle(mods)
		if err != nil {
			return nil, err
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("ptx: mov wants 2 operands in %q", line)
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		src, err := p.operandOracle(args[1])
		if err != nil {
			return nil, err
		}
		return Mov{base: base{Type: t}, Dst: dst, Src: src}, nil

	case "add", "and", "xor":
		t, err := onlyTypeOracle(mods)
		if err != nil {
			return nil, err
		}
		if len(args) != 3 {
			return nil, fmt.Errorf("ptx: %s wants 3 operands in %q", op, line)
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		a, err := p.operandOracle(args[1])
		if err != nil {
			return nil, err
		}
		b, err := p.operandOracle(args[2])
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
		if len(mods) != 2 {
			return nil, fmt.Errorf("ptx: cvt wants two type specifiers in %q", line)
		}
		dt, err := ParseType(mods[0])
		if err != nil {
			return nil, err
		}
		st, err := ParseType(mods[1])
		if err != nil {
			return nil, err
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("ptx: cvt wants 2 operands in %q", line)
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		src, err := p.operandOracle(args[1])
		if err != nil {
			return nil, err
		}
		return Cvt{DstType: dt, SrcType: st, Dst: dst, Src: src}, nil

	case "setp":
		if len(mods) < 1 || mods[0] != "eq" {
			return nil, fmt.Errorf("ptx: only setp.eq is supported, got %q", line)
		}
		t, err := onlyTypeOracle(mods[1:])
		if err != nil {
			return nil, err
		}
		if len(args) != 3 {
			return nil, fmt.Errorf("ptx: setp.eq wants 3 operands in %q", line)
		}
		pr, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		a, err := p.operandOracle(args[1])
		if err != nil {
			return nil, err
		}
		b, err := p.operandOracle(args[2])
		if err != nil {
			return nil, err
		}
		return SetpEq{base: base{Type: t}, P: pr, A: a, B: b}, nil

	case "bra":
		if len(args) != 1 {
			return nil, fmt.Errorf("ptx: bra wants a target in %q", line)
		}
		return Bra{Target: args[0]}, nil
	}
	return nil, fmt.Errorf("ptx: unknown opcode %q in %q", op, line)
}

func (p *instrParser) parseAtomOracle(mods, args []string, line string) (Instr, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("ptx: atom wants an operation in %q", line)
	}
	var aop string
	var t Type
	for _, m := range mods {
		switch m {
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
		if len(args) != 4 {
			return nil, fmt.Errorf("ptx: atom.cas wants 4 operands in %q", line)
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		a, err := p.addr(args[1])
		if err != nil {
			return nil, err
		}
		cmp, err := p.operandOracle(args[2])
		if err != nil {
			return nil, err
		}
		nw, err := p.operandOracle(args[3])
		if err != nil {
			return nil, err
		}
		return AtomCAS{base: base{Type: t}, Dst: dst, Addr: a, Cmp: cmp, New: nw}, nil
	case "exch", "add", "inc":
		if len(args) != 3 {
			return nil, fmt.Errorf("ptx: atom.%s wants 3 operands in %q", aop, line)
		}
		dst, err := p.reg(args[0])
		if err != nil {
			return nil, err
		}
		a, err := p.addr(args[1])
		if err != nil {
			return nil, err
		}
		src, err := p.operandOracle(args[2])
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

func onlyTypeOracle(mods []string) (Type, error) {
	t := TypeNone
	for _, m := range mods {
		tt, err := ParseType(m)
		if err != nil {
			return TypeNone, err
		}
		t = tt
	}
	return t, nil
}

// operandOracle parses a register, immediate, or symbolic location.
func (p *instrParser) operandOracle(s string) (Operand, error) {
	if s == "" {
		return nil, fmt.Errorf("ptx: empty operand")
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return Imm(v), nil
	}
	if p.isReg(s) {
		return Reg(s), nil
	}
	if isIdent(s) {
		return Sym(s), nil
	}
	return nil, fmt.Errorf("ptx: cannot parse operand %q", s)
}
