package litmus

import (
	"slices"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Slots is a test's one resolution of final-state names to slots, which
// the simulator, the enumerator and the harness layout share. Locations
// come first, in Locations order; then each thread's registers: declared,
// then named by its program in first-use order (guard, destination,
// sources), then named only by the condition. It is computed from a test,
// not cached on it, and only read once built.
type Slots struct {
	locs  []ptx.Sym
	regs  []ptx.Reg // every thread's registers, thread by thread
	first []int     // thread tid's registers are regs[first[tid]:first[tid+1]]
}

// NewSlots resolves t's final-state names; a condition register of a
// thread t lacks gets no slot.
func NewSlots(t *Test) *Slots {
	// Built tests, and those parsed from their printed form, declare every
	// register a program names; the slack is for condition-only ones.
	n := len(t.Decls) + len(t.Threads)
	s := &Slots{locs: t.Locations(), regs: make([]ptx.Reg, 0, n), first: make([]int, len(t.Threads)+1)}
	var buf [3]ptx.Operand
	for tid, th := range t.Threads {
		s.first[tid] = len(s.regs)
		for _, d := range t.Decls {
			if d.Thread == tid {
				s.addReg(tid, d.Reg)
			}
		}
		for _, inst := range th.Prog {
			if g := inst.Pred(); g != nil {
				s.addReg(tid, g.Reg)
			}
			if d, ok := ptx.DstOf(inst); ok {
				s.addReg(tid, d)
			}
			for _, o := range ptx.AppendSrcs(buf[:0], inst) {
				if r, ok := o.(ptx.Reg); ok {
					s.addReg(tid, r)
				}
			}
		}
		CondRegs(t.Exists, func(a RegEq) {
			if a.Thread == tid {
				s.addReg(tid, a.Reg)
			}
		})
	}
	s.first[len(t.Threads)] = len(s.regs)
	return s
}

// addReg gives thread tid's register r the next slot unless it has one.
func (s *Slots) addReg(tid int, r ptx.Reg) {
	if !slices.Contains(s.regs[s.first[tid]:], r) {
		s.regs = append(s.regs, r)
	}
}

// Len returns the number of slots.
func (s *Slots) Len() int { return len(s.locs) + len(s.regs) }

// Locs returns the locations, location i in slot i (read-only).
func (s *Slots) Locs() []ptx.Sym { return s.locs }

// Regs returns thread tid's registers in slot order (read-only).
func (s *Slots) Regs(tid int) []ptx.Reg { return s.regs[s.first[tid]:s.first[tid+1]] }

// Loc returns location loc's slot, or -1.
func (s *Slots) Loc(loc ptx.Sym) int {
	if i, ok := slices.BinarySearch(s.locs, loc); ok {
		return i
	}
	return -1
}

// Reg returns thread tid's register r's slot, or -1.
func (s *Slots) Reg(tid int, r ptx.Reg) int {
	if tid < 0 || tid >= len(s.first)-1 {
		return -1
	}
	if k := slices.Index(s.Regs(tid), r); k >= 0 {
		return len(s.locs) + s.first[tid] + k
	}
	return -1
}

// NewFinal returns a final state over s, every slot absent.
func (s *Slots) NewFinal() *Final { return &Final{slots: s, vals: make([]SlotValue, s.Len())} }

// SlotValue is one slot of a final state; the zero SlotValue is absent.
type SlotValue struct {
	Val     int64
	Present bool
}

// Final is a final state over a Slots: a value and a presence bit per
// slot. It is a State by name, through its Slots and without allocating,
// and reads by slot (At) for the layers that know the slot. Slot -1,
// outside every resolution, reads absent and is never set.
type Final struct {
	slots *Slots
	vals  []SlotValue
}

// Reset binds f to s with every slot absent, reusing f's storage.
func (f *Final) Reset(s *Slots) {
	f.slots = s
	f.vals = slices.Grow(f.vals[:0], s.Len())[:s.Len()]
	clear(f.vals)
}

// Slots returns f's resolution.
func (f *Final) Slots() *Slots { return f.slots }

// At returns slot i's value, 0 when absent.
func (f *Final) At(i int) (int64, bool) {
	if uint(i) >= uint(len(f.vals)) {
		return 0, false
	}
	return f.vals[i].Val, f.vals[i].Present
}

// Set makes slot i present with value v.
func (f *Final) Set(i int, v int64) {
	if uint(i) < uint(len(f.vals)) {
		f.vals[i] = SlotValue{Val: v, Present: true}
	}
}

// Regs returns thread tid's register values in Slots.Regs order.
func (f *Final) Regs(tid int) []SlotValue {
	base := len(f.slots.locs)
	return f.vals[base+f.slots.first[tid] : base+f.slots.first[tid+1]]
}

// Reg returns thread tid's final register r.
func (f *Final) Reg(tid int, r ptx.Reg) (int64, bool) { return f.At(f.slots.Reg(tid, r)) }

// Mem returns location loc's final value.
func (f *Final) Mem(loc ptx.Sym) (int64, bool) { return f.At(f.slots.Loc(loc)) }

// Clone returns a copy of f that later writes to f leave alone.
func (f *Final) Clone() *Final { return &Final{slots: f.slots, vals: slices.Clone(f.vals)} }
