// Package ptx models the subset of Nvidia's Parallel Thread Execution (PTX)
// intermediate language used by the ASPLOS 2015 study "GPU Concurrency: Weak
// Behaviours and Programming Assumptions" (Alglave et al.).
//
// The subset comprises loads and stores (with cache operators and volatile
// qualifiers), atomic read-modify-writes, scoped memory fences, ALU
// operations, conversions, predicate-setting comparisons, unconditional
// jumps, and predicated execution (Sec. 2.3 of the paper). Instructions are
// represented as an interface with one concrete type per opcode; programs
// are flat instruction sequences with symbolic labels.
package ptx

import (
	"fmt"
	"strconv"
)

// Scope names a level of the GPU concurrency hierarchy at which a fence or
// atomic provides ordering (Sec. 2.3): a CTA, the whole GPU (grid), or the
// full system including the host.
type Scope int

// Fence and atomic scopes, from narrowest to widest.
const (
	ScopeNone Scope = iota // no scope (non-scoped instruction)
	ScopeCTA               // membar.cta: ordering within a CTA
	ScopeGL                // membar.gl: ordering within the GPU
	ScopeSys               // membar.sys: ordering with the host
)

// String returns the PTX suffix for the scope ("cta", "gl", "sys").
func (s Scope) String() string {
	switch s {
	case ScopeCTA:
		return "cta"
	case ScopeGL:
		return "gl"
	case ScopeSys:
		return "sys"
	case ScopeNone:
		return "none"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// CacheOp is a PTX cache operator on a load or store. The paper's tests use
// .ca (cache at all levels, i.e. may hit the incoherent per-SM L1) and .cg
// (cache at global level, i.e. the coherent L2); see Sec. 2.3 and 3.1.2.
type CacheOp int

// Cache operators.
const (
	CacheDefault CacheOp = iota // no explicit operator (compiler default, .ca for loads)
	CacheCA                     // .ca: cache at all levels (L1)
	CacheCG                     // .cg: cache at global level (L2)
)

// String returns the PTX suffix for the cache operator ("" for default).
func (c CacheOp) String() string {
	switch c {
	case CacheCA:
		return "ca"
	case CacheCG:
		return "cg"
	case CacheDefault:
		return ""
	default:
		return fmt.Sprintf("CacheOp(%d)", int(c))
	}
}

// Type is a PTX type specifier. It records the width and kind of an
// instruction's operands; the paper's tests use .s32 for data and .b64 for
// addresses and omit the specifier when it is clear from context (Sec. 2.3).
type Type int

// Type specifiers used by the litmus subset.
const (
	TypeNone Type = iota // elided specifier
	TypeS32              // .s32: signed 32-bit
	TypeU32              // .u32: unsigned 32-bit
	TypeB32              // .b32: untyped 32-bit
	TypeS64              // .s64: signed 64-bit
	TypeU64              // .u64: unsigned 64-bit
	TypeB64              // .b64: untyped 64-bit
	TypePred             // .pred: predicate register
)

// String returns the PTX spelling of the type specifier without the dot.
func (t Type) String() string {
	switch t {
	case TypeNone:
		return ""
	case TypeS32:
		return "s32"
	case TypeU32:
		return "u32"
	case TypeB32:
		return "b32"
	case TypeS64:
		return "s64"
	case TypeU64:
		return "u64"
	case TypeB64:
		return "b64"
	case TypePred:
		return "pred"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a PTX type specifier (without the leading dot).
func ParseType(s string) (Type, error) {
	switch s {
	case "s32":
		return TypeS32, nil
	case "u32":
		return TypeU32, nil
	case "b32":
		return TypeB32, nil
	case "s64":
		return TypeS64, nil
	case "u64":
		return TypeU64, nil
	case "b64":
		return TypeB64, nil
	case "pred":
		return TypePred, nil
	default:
		return TypeNone, fmt.Errorf("ptx: unknown type specifier %q", s)
	}
}

// Reg is a PTX register name, e.g. "r0" or "p1". Register names are local to
// a thread.
type Reg string

// isOperand marks Reg as an Operand.
func (Reg) isOperand() {}

// String returns the register name.
func (r Reg) String() string { return string(r) }

// AppendTo appends the register name to b.
func (r Reg) AppendTo(b []byte) []byte { return append(b, r...) }

// Imm is an immediate integer operand.
type Imm int64

// isOperand marks Imm as an Operand.
func (Imm) isOperand() {}

// String formats the immediate in decimal, or hex when it looks like a mask
// (any bit at or above bit 16 set), matching the paper's examples.
func (i Imm) String() string { return string(i.AppendTo(nil)) }

// AppendTo appends the immediate's String form to b.
func (i Imm) AppendTo(b []byte) []byte {
	if uint64(i) >= 0x10000 && i > 0 {
		return strconv.AppendInt(append(b, "0x"...), int64(i), 16)
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// Sym is a symbolic memory-location name, e.g. "x", usable directly as an
// address ("st.cg [x],1" in the paper's figures).
type Sym string

// isOperand marks Sym as an Operand.
func (Sym) isOperand() {}

// String returns the location name.
func (s Sym) String() string { return string(s) }

// AppendTo appends the location name to b.
func (s Sym) AppendTo(b []byte) []byte { return append(b, s...) }

// Operand is a source operand: a register, an immediate, or a symbolic
// location name.
type Operand interface {
	fmt.Stringer
	// AppendTo appends the operand's String form to b and returns the
	// extended buffer.
	AppendTo(b []byte) []byte
	isOperand()
}

// Guard is a predicate guard on an instruction: "@p" executes the
// instruction only if p is set, "@!p" only if p is unset. The paper's
// figures write guards without the @ sigil (e.g. "!p4 membar.gl"); both
// spellings are accepted by the parser.
type Guard struct {
	Reg Reg  // predicate register
	Neg bool // true for @!p
}

// String renders the guard with the canonical @ sigil.
func (g Guard) String() string { return string(g.AppendTo(nil)) }

// AppendTo appends the guard's String form to b.
func (g Guard) AppendTo(b []byte) []byte {
	if g.Neg {
		return append(append(b, "@!"...), g.Reg...)
	}
	return append(append(b, '@'), g.Reg...)
}
