package ptx

import "fmt"

// Instr is a single PTX instruction. Concrete types are Ld, St, AtomCAS,
// AtomExch, AtomAdd, AtomInc, Membar, Mov, Add, And, Xor, Cvt, SetpEq, Bra
// and LabelDef. Every instruction may carry a predicate guard.
type Instr interface {
	fmt.Stringer
	// AppendTo appends the instruction's String form to b and returns the
	// extended buffer.
	AppendTo(b []byte) []byte
	// Pred returns the instruction's predicate guard, or nil when the
	// instruction is unconditional.
	Pred() *Guard
	// WithGuard returns a copy of the instruction guarded by g.
	WithGuard(g *Guard) Instr
}

// base carries the fields common to all instructions.
type base struct {
	Guard *Guard // predicate guard, or nil
	Type  Type   // type specifier (may be TypeNone)
}

func (b base) Pred() *Guard { return b.Guard }

// appendPrefix appends the guard and the opcode.
func (b base) appendPrefix(dst []byte, op string) []byte {
	if b.Guard != nil {
		dst = append(b.Guard.AppendTo(dst), ' ')
	}
	return append(dst, op...)
}

// appendSuffix appends the type specifier, if any, and the separating
// space before the operands.
func (b base) appendSuffix(dst []byte) []byte {
	if b.Type != TypeNone {
		dst = append(append(dst, '.'), b.Type.String()...)
	}
	return append(dst, ' ')
}

// Ld is a load: "ld[.volatile][.cacheop][.type] dst,[addr]". Loads from
// global memory may target the L1 (.ca) or L2 (.cg) cache (Sec. 2.3).
type Ld struct {
	base
	Dst      Reg
	Addr     Operand // Reg holding an address, or a Sym
	CacheOp  CacheOp
	Volatile bool
}

// St is a store: "st[.volatile][.cacheop][.type] [addr],src".
type St struct {
	base
	Addr     Operand
	Src      Operand
	CacheOp  CacheOp
	Volatile bool
}

// AtomCAS is an atomic compare-and-swap: "atom.cas dst,[addr],cmp,new".
// dst receives the old value; the location is set to new iff it held cmp.
type AtomCAS struct {
	base
	Dst  Reg
	Addr Operand
	Cmp  Operand
	New  Operand
}

// AtomExch is an atomic exchange: "atom.exch dst,[addr],src".
type AtomExch struct {
	base
	Dst  Reg
	Addr Operand
	Src  Operand
}

// AtomAdd is an atomic add: "atom.add dst,[addr],src"; dst receives the old
// value.
type AtomAdd struct {
	base
	Dst  Reg
	Addr Operand
	Src  Operand
}

// AtomInc is an atomic increment with wraparound bound: "atom.inc
// dst,[addr],bound" (the CUDA atomicAdd(...,1) of Table 5 maps here).
type AtomInc struct {
	base
	Dst   Reg
	Addr  Operand
	Bound Operand
}

// Membar is a scoped memory fence: "membar.{cta,gl,sys}" (Sec. 2.3).
type Membar struct {
	base
	Scope Scope
}

// Mov copies an operand into a register: "mov dst,src".
type Mov struct {
	base
	Dst Reg
	Src Operand
}

// Add is a register add: "add dst,a,b".
type Add struct {
	base
	Dst  Reg
	A, B Operand
}

// And is a bitwise and: "and dst,a,b". The paper's dependency-manufacturing
// scheme ands a loaded value with 0x80000000 (Sec. 4.5, Fig. 13b).
type And struct {
	base
	Dst  Reg
	A, B Operand
}

// Xor is a bitwise exclusive or: "xor dst,a,b". Used both for (optimisable)
// false dependencies (Fig. 13a) and for optcheck specification instructions
// (Sec. 4.4).
type Xor struct {
	base
	Dst  Reg
	A, B Operand
}

// Cvt converts between register widths: "cvt.u64.u32 dst,src" (Fig. 13).
// DstType/SrcType record the two type specifiers.
type Cvt struct {
	base
	DstType Type
	SrcType Type
	Dst     Reg
	Src     Operand
}

// SetpEq sets a predicate register if two operands are equal:
// "setp.eq p,a,b" (Sec. 2.3).
type SetpEq struct {
	base
	P    Reg
	A, B Operand
}

// Bra is an unconditional (possibly guarded) jump to a label: "bra target".
type Bra struct {
	base
	Target string
}

// LabelDef defines a jump target: "name:".
type LabelDef struct {
	base
	Name string
}

// WithGuard implementations return a guarded copy of each instruction.

// WithGuard returns a copy of the load guarded by g.
func (i Ld) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the store guarded by g.
func (i St) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the CAS guarded by g.
func (i AtomCAS) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the exchange guarded by g.
func (i AtomExch) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the atomic add guarded by g.
func (i AtomAdd) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the atomic increment guarded by g.
func (i AtomInc) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the fence guarded by g.
func (i Membar) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the move guarded by g.
func (i Mov) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the add guarded by g.
func (i Add) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the and guarded by g.
func (i And) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the xor guarded by g.
func (i Xor) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the conversion guarded by g.
func (i Cvt) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the comparison guarded by g.
func (i SetpEq) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the branch guarded by g.
func (i Bra) WithGuard(g *Guard) Instr { i.Guard = g; return i }

// WithGuard returns a copy of the label guarded by g (labels are never
// guarded in practice; the method exists for interface completeness).
func (i LabelDef) WithGuard(g *Guard) Instr { i.Guard = g; return i }

func appendMemSuffix(b []byte, volatile bool, c CacheOp) []byte {
	if volatile {
		b = append(b, ".volatile"...)
	}
	if c != CacheDefault {
		b = append(append(b, '.'), c.String()...)
	}
	return b
}

// appendOperand appends o's String form; a nil operand renders the way
// fmt's %s verb prints it.
func appendOperand(b []byte, o Operand) []byte {
	if o == nil {
		return append(b, "%!s(<nil>)"...)
	}
	return o.AppendTo(b)
}

// appendOperands appends the comma-separated operands.
func appendOperands(b []byte, ops ...Operand) []byte {
	for k, o := range ops {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendOperand(b, o)
	}
	return b
}

// appendAddr appends a bracketed address operand.
func appendAddr(b []byte, a Operand) []byte {
	return append(appendOperand(append(b, '['), a), ']')
}

// appendDst appends a destination register and the following comma.
func appendDst(b []byte, r Reg) []byte { return append(append(b, r...), ',') }

// AppendTo appends the load in the paper's concrete syntax.
func (i Ld) AppendTo(b []byte) []byte {
	b = appendMemSuffix(i.appendPrefix(b, "ld"), i.Volatile, i.CacheOp)
	return appendAddr(appendDst(i.appendSuffix(b), i.Dst), i.Addr)
}

// AppendTo appends the store in the paper's concrete syntax.
func (i St) AppendTo(b []byte) []byte {
	b = appendMemSuffix(i.appendPrefix(b, "st"), i.Volatile, i.CacheOp)
	b = appendAddr(i.appendSuffix(b), i.Addr)
	return appendOperand(append(b, ','), i.Src)
}

// AppendTo appends the CAS in the paper's concrete syntax.
func (i AtomCAS) AppendTo(b []byte) []byte {
	b = appendAddr(appendDst(i.appendSuffix(i.appendPrefix(b, "atom.cas")), i.Dst), i.Addr)
	return appendOperands(append(b, ','), i.Cmp, i.New)
}

// AppendTo appends the exchange in the paper's concrete syntax.
func (i AtomExch) AppendTo(b []byte) []byte {
	b = appendAddr(appendDst(i.appendSuffix(i.appendPrefix(b, "atom.exch")), i.Dst), i.Addr)
	return appendOperand(append(b, ','), i.Src)
}

// AppendTo appends the atomic add in the paper's concrete syntax.
func (i AtomAdd) AppendTo(b []byte) []byte {
	b = appendAddr(appendDst(i.appendSuffix(i.appendPrefix(b, "atom.add")), i.Dst), i.Addr)
	return appendOperand(append(b, ','), i.Src)
}

// AppendTo appends the atomic increment in the paper's concrete syntax.
func (i AtomInc) AppendTo(b []byte) []byte {
	b = appendAddr(appendDst(i.appendSuffix(i.appendPrefix(b, "atom.inc")), i.Dst), i.Addr)
	return appendOperand(append(b, ','), i.Bound)
}

// AppendTo appends the fence with its scope suffix.
func (i Membar) AppendTo(b []byte) []byte {
	return append(i.appendPrefix(b, "membar."), i.Scope.String()...)
}

// AppendTo appends the move.
func (i Mov) AppendTo(b []byte) []byte {
	return appendOperand(appendDst(i.appendSuffix(i.appendPrefix(b, "mov")), i.Dst), i.Src)
}

// AppendTo appends the add.
func (i Add) AppendTo(b []byte) []byte {
	return appendOperands(appendDst(i.appendSuffix(i.appendPrefix(b, "add")), i.Dst), i.A, i.B)
}

// AppendTo appends the and.
func (i And) AppendTo(b []byte) []byte {
	return appendOperands(appendDst(i.appendSuffix(i.appendPrefix(b, "and")), i.Dst), i.A, i.B)
}

// AppendTo appends the xor.
func (i Xor) AppendTo(b []byte) []byte {
	return appendOperands(appendDst(i.appendSuffix(i.appendPrefix(b, "xor")), i.Dst), i.A, i.B)
}

// AppendTo appends the conversion with both type specifiers.
func (i Cvt) AppendTo(b []byte) []byte {
	b = append(append(i.appendPrefix(b, "cvt."), i.DstType.String()...), '.')
	b = append(append(b, i.SrcType.String()...), ' ')
	return appendOperand(appendDst(b, i.Dst), i.Src)
}

// AppendTo appends the predicate-setting comparison.
func (i SetpEq) AppendTo(b []byte) []byte {
	return appendOperands(appendDst(i.appendSuffix(i.appendPrefix(b, "setp.eq")), i.P), i.A, i.B)
}

// AppendTo appends the branch.
func (i Bra) AppendTo(b []byte) []byte {
	return append(i.appendPrefix(b, "bra "), i.Target...)
}

// AppendTo appends the label definition (labels carry no guard).
func (i LabelDef) AppendTo(b []byte) []byte { return append(append(b, i.Name...), ':') }

// String renders the load in the paper's concrete syntax.
func (i Ld) String() string { return string(i.AppendTo(nil)) }

// String renders the store in the paper's concrete syntax.
func (i St) String() string { return string(i.AppendTo(nil)) }

// String renders the CAS in the paper's concrete syntax.
func (i AtomCAS) String() string { return string(i.AppendTo(nil)) }

// String renders the exchange in the paper's concrete syntax.
func (i AtomExch) String() string { return string(i.AppendTo(nil)) }

// String renders the atomic add in the paper's concrete syntax.
func (i AtomAdd) String() string { return string(i.AppendTo(nil)) }

// String renders the atomic increment in the paper's concrete syntax.
func (i AtomInc) String() string { return string(i.AppendTo(nil)) }

// String renders the fence with its scope suffix.
func (i Membar) String() string { return string(i.AppendTo(nil)) }

// String renders the move.
func (i Mov) String() string { return string(i.AppendTo(nil)) }

// String renders the add.
func (i Add) String() string { return string(i.AppendTo(nil)) }

// String renders the and.
func (i And) String() string { return string(i.AppendTo(nil)) }

// String renders the xor.
func (i Xor) String() string { return string(i.AppendTo(nil)) }

// String renders the conversion with both type specifiers.
func (i Cvt) String() string { return string(i.AppendTo(nil)) }

// String renders the predicate-setting comparison.
func (i SetpEq) String() string { return string(i.AppendTo(nil)) }

// String renders the branch.
func (i Bra) String() string { return string(i.AppendTo(nil)) }

// String renders the label definition.
func (i LabelDef) String() string { return i.Name + ":" }

// IsMemAccess reports whether the instruction reads or writes memory
// (loads, stores and atomics; fences are not accesses).
func IsMemAccess(i Instr) bool {
	switch i.(type) {
	case Ld, St, AtomCAS, AtomExch, AtomAdd, AtomInc:
		return true
	}
	return false
}

// IsAtomic reports whether the instruction is an atomic read-modify-write.
func IsAtomic(i Instr) bool {
	switch i.(type) {
	case AtomCAS, AtomExch, AtomAdd, AtomInc:
		return true
	}
	return false
}

// AddrOf returns the address operand of a memory access, or nil when the
// instruction does not access memory.
func AddrOf(i Instr) Operand {
	switch v := i.(type) {
	case Ld:
		return v.Addr
	case St:
		return v.Addr
	case AtomCAS:
		return v.Addr
	case AtomExch:
		return v.Addr
	case AtomAdd:
		return v.Addr
	case AtomInc:
		return v.Addr
	}
	return nil
}

// DstOf returns the destination register of an instruction and true, or
// ("", false) when the instruction has no destination register.
func DstOf(i Instr) (Reg, bool) {
	switch v := i.(type) {
	case Ld:
		return v.Dst, true
	case AtomCAS:
		return v.Dst, true
	case AtomExch:
		return v.Dst, true
	case AtomAdd:
		return v.Dst, true
	case AtomInc:
		return v.Dst, true
	case Mov:
		return v.Dst, true
	case Add:
		return v.Dst, true
	case And:
		return v.Dst, true
	case Xor:
		return v.Dst, true
	case Cvt:
		return v.Dst, true
	case SetpEq:
		return v.P, true
	}
	return "", false
}

// AppendSrcs appends the instruction's source operands to dst and returns
// the extended slice: a memory access's address first, then the value
// operands in field order. Destinations and guards are not operands. No
// instruction has more than three, so a caller can pass a stack array.
func AppendSrcs(dst []Operand, i Instr) []Operand {
	switch v := i.(type) {
	case Ld:
		return append(dst, v.Addr)
	case St:
		return append(dst, v.Addr, v.Src)
	case AtomCAS:
		return append(dst, v.Addr, v.Cmp, v.New)
	case AtomExch:
		return append(dst, v.Addr, v.Src)
	case AtomAdd:
		return append(dst, v.Addr, v.Src)
	case AtomInc:
		return append(dst, v.Addr, v.Bound)
	case Mov:
		return append(dst, v.Src)
	case Add:
		return append(dst, v.A, v.B)
	case And:
		return append(dst, v.A, v.B)
	case Xor:
		return append(dst, v.A, v.B)
	case Cvt:
		return append(dst, v.Src)
	case SetpEq:
		return append(dst, v.A, v.B)
	}
	return dst
}

// SrcRegs returns the registers read by the instruction, including address
// registers and guard predicates.
func SrcRegs(i Instr) []Reg {
	var regs []Reg
	var buf [3]Operand
	for _, o := range AppendSrcs(buf[:0], i) {
		if r, ok := o.(Reg); ok {
			regs = append(regs, r)
		}
	}
	if g := i.Pred(); g != nil {
		regs = append(regs, g.Reg)
	}
	return regs
}
