package ptx

import (
	"fmt"
	"strings"
)

// Program is the instruction sequence executed by one thread.
type Program []Instr

// String renders the program one instruction per line.
func (p Program) String() string {
	var sb strings.Builder
	for i, inst := range p {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(inst.String())
	}
	return sb.String()
}

// Labels returns the index of each label definition in the program.
func (p Program) Labels() map[string]int {
	m := make(map[string]int)
	for i, inst := range p {
		if l, ok := inst.(LabelDef); ok {
			m[l.Name] = i
		}
	}
	return m
}

// MemAccesses returns the indices of instructions that access memory, in
// program order.
func (p Program) MemAccesses() []int {
	var idx []int
	for i, inst := range p {
		if IsMemAccess(inst) {
			idx = append(idx, i)
		}
	}
	return idx
}

// Symbols returns the set of symbolic memory locations referenced by the
// program, either as direct [x] addresses or as operands.
func (p Program) Symbols() map[Sym]bool {
	syms := make(map[Sym]bool)
	var buf [3]Operand
	for _, inst := range p {
		for _, o := range AppendSrcs(buf[:0], inst) {
			if s, ok := o.(Sym); ok {
				syms[s] = true
			}
		}
	}
	return syms
}

// Validate checks structural well-formedness: every branch target is
// defined, labels are unique, and guards reference predicate-looking
// registers that are written by some setp or declared externally (the
// declared set may be nil to skip that check).
func (p Program) Validate() error {
	labels := make(map[string]bool)
	for _, inst := range p {
		if l, ok := inst.(LabelDef); ok {
			if labels[l.Name] {
				return fmt.Errorf("ptx: duplicate label %q", l.Name)
			}
			labels[l.Name] = true
		}
	}
	for i, inst := range p {
		if b, ok := inst.(Bra); ok {
			if !labels[b.Target] {
				return fmt.Errorf("ptx: instruction %d branches to undefined label %q", i, b.Target)
			}
		}
	}
	return nil
}

// Regs returns every register mentioned by the program (read or written).
func (p Program) Regs() map[Reg]bool {
	regs := make(map[Reg]bool)
	for _, inst := range p {
		if d, ok := DstOf(inst); ok {
			regs[d] = true
		}
		for _, r := range SrcRegs(inst) {
			regs[r] = true
		}
	}
	return regs
}

// MentionsReg reports whether r is in Regs() without building the map:
// some instruction writes r, reads it as an operand, or is guarded by it.
func (p Program) MentionsReg(r Reg) bool {
	var buf [3]Operand
	for _, inst := range p {
		if d, ok := DstOf(inst); ok && d == r {
			return true
		}
		if g := inst.Pred(); g != nil && g.Reg == r {
			return true
		}
		for _, o := range AppendSrcs(buf[:0], inst) {
			if v, ok := o.(Reg); ok && v == r {
				return true
			}
		}
	}
	return false
}

// UsesSym reports whether s is in Symbols() without building the map.
func (p Program) UsesSym(s Sym) bool {
	var buf [3]Operand
	for _, inst := range p {
		for _, o := range AppendSrcs(buf[:0], inst) {
			if v, ok := o.(Sym); ok && v == s {
				return true
			}
		}
	}
	return false
}
