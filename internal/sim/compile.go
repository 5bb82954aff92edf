package sim

import (
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Compiled is a litmus test decoded for one chip and incantation: flat
// per-thread programs whose operands are immediates, register slots or
// location slots, with every address, label target, memory space and
// initial value the simulator needs computed up front. It is immutable,
// so any number of machines (one per goroutine) may share it.
type Compiled struct {
	test    *litmus.Test
	prof    *chip.Profile
	eff     effProbs
	locs    []ptx.Sym // location slots, in Test.Locations order
	locSlot map[ptx.Sym]int32
	shared  []bool  // per location slot: lives in per-SM shared memory
	init    []int64 // per location slot: initial value
	// memFrom says, per location slot, which copy the final state
	// reports: memL2, memNone, or the index of the SM whose shared memory
	// holds it.
	memFrom []int32
	threads []threadCode
	stale   []staleLine
}

// Final-state sources of a location (Compiled.memFrom).
const (
	memL2   = -1 // global: the L2 copy
	memNone = -2 // shared but named by no thread's program: not reported
)

// staleLine is a candidate residual L1 line: an SM and a global location
// one of its threads reads with .ca. The candidates are listed in the
// order the machine draws for them.
type staleLine struct{ sm, loc int32 }

// threadCode is one thread's decoded program.
type threadCode struct {
	cta     int
	prog    []instr
	regs    []ptx.Reg // register slot -> name
	regSlot map[ptx.Reg]int32
	init    []regv // registers at the start of an iteration: the declared ones set
}

type opcode uint8

const (
	opLabel opcode = iota // label definition: no effect
	opBra
	opMov // mov and cvt
	opAdd
	opAnd
	opXor
	opSetp
	opMembar
	opLd
	opSt
	opCAS
	opExch
	opAtomAdd
	opAtomInc
)

type operandKind uint8

const (
	noOperand operandKind = iota
	immOperand
	regOperand
	locOperand // a location symbol: the address of the location
)

type operand struct {
	kind operandKind
	slot int32 // register or location slot
	imm  int64
}

// instr is one decoded instruction. The sources a and b are, per opcode:
// mov/cvt and st: a = source; add/and/xor/setp: a, b; atom.cas: a = compare,
// b = new value; atom.exch/atom.add: a = source; atom.inc: a = bound.
type instr struct {
	op       opcode
	guardNeg bool
	ca       bool  // ld: the .ca cache operator
	guard    int32 // predicate register slot, or -1 when unguarded
	dst      int32 // register slot written
	target   int32 // bra: instruction index of the label
	scope    ptx.Scope
	addr     operand
	a, b     operand
}

// Compile validates the test and decodes it for the chip and incantation.
func Compile(t *litmus.Test, p *chip.Profile, inc chip.Incant) (*Compiled, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{test: t, prof: p, eff: effectiveProbs(t, p, inc)}

	c.locs = t.Locations()
	c.locSlot = make(map[ptx.Sym]int32, len(c.locs))
	c.shared = make([]bool, len(c.locs))
	c.init = make([]int64, len(c.locs))
	c.memFrom = make([]int32, len(c.locs))
	for i, loc := range c.locs {
		c.locSlot[loc] = int32(i)
		c.init[i] = t.InitOf(loc)
		c.memFrom[i] = memL2
		if t.SpaceOf(loc) != litmus.Shared {
			continue
		}
		// Shared locations: report the copy of the (unique) CTA that
		// accesses them.
		c.shared[i] = true
		c.memFrom[i] = memNone
		for tid := range t.Threads {
			if t.Threads[tid].Prog.UsesSym(loc) {
				c.memFrom[i] = int32(t.Scope.CTAOf(tid))
				break
			}
		}
	}

	c.threads = make([]threadCode, len(t.Threads))
	for tid := range t.Threads {
		if err := c.compileThread(tid); err != nil {
			return nil, err
		}
	}

	// Residual stale L1 lines from previous iterations of the enclosing
	// kernel (Sec. 4.2 runs tests thousands of times in one launch): a
	// location a thread will read with .ca may have a line holding the
	// initial value in that thread's SM even after the racing store hits
	// L2.
	if c.eff.staleL1 > 0 {
		for tid, th := range t.Threads {
			for _, inst := range th.Prog {
				ld, ok := inst.(ptx.Ld)
				if !ok || ld.CacheOp != ptx.CacheCA {
					continue
				}
				loc, err := t.ResolveAddr(tid, ld.Addr)
				if err != nil || t.SpaceOf(loc) != litmus.Global {
					continue
				}
				c.stale = append(c.stale, staleLine{sm: int32(c.threads[tid].cta), loc: c.locSlot[loc]})
			}
		}
	}
	return c, nil
}

// effectiveProbs scales the chip probabilities by the incantation
// response. The mechanism class follows the test's placement (Table 6
// separates intra-CTA from inter-CTA behaviour).
func effectiveProbs(t *litmus.Test, p *chip.Profile, inc chip.Incant) effProbs {
	class := chip.Inter
	if len(t.Scope.CTAs) == 1 {
		class = chip.Intra
	}
	mult := p.Multiplier(class, inc)
	staleMult := p.Multiplier(chip.Stale, inc)
	return effProbs{
		storeDelay:       p.PStoreDelay * mult,
		storeAtomicDelay: p.PStoreAtomicDelay * mult,
		wwCommit:         p.PWWCommit * mult,
		loadDelay:        p.PLoadDelay * mult,
		loadRR:           p.PLoadRR * mult,
		loadRW:           p.PLoadRW * mult,
		coRR:             p.PCoRR * mult,
		staleL1:          p.PStaleL1 * staleMult,
		cgEvictFail:      p.PCgEvictFail,
		coRRMixed:        p.PCoRRMixed * staleMult,
		shared:           p.SharedFactor,
	}
}

func (c *Compiled) compileThread(tid int) error {
	t := c.test
	tc := &c.threads[tid]
	tc.cta = t.Scope.CTAOf(tid)
	if tc.cta < 0 {
		return fmt.Errorf("sim: thread %d not in scope tree", tid)
	}
	tc.regSlot = make(map[ptx.Reg]int32)
	reg := func(r ptx.Reg) int32 {
		s, ok := tc.regSlot[r]
		if !ok {
			s = int32(len(tc.regs))
			tc.regSlot[r] = s
			tc.regs = append(tc.regs, r)
			tc.init = append(tc.init, regv{})
		}
		return s
	}
	// Every symbol a program names is one of the test's locations.
	opnd := func(o ptx.Operand) operand {
		switch v := o.(type) {
		case ptx.Imm:
			return operand{kind: immOperand, imm: int64(v)}
		case ptx.Reg:
			return operand{kind: regOperand, slot: reg(v)}
		case ptx.Sym:
			return operand{kind: locOperand, slot: c.locSlot[v]}
		}
		return operand{}
	}

	for _, d := range t.Decls {
		if d.Thread != tid {
			continue
		}
		base := int32(0)
		if d.Loc != "" {
			base = c.locSlot[d.Loc] + 1
		}
		s := reg(d.Reg)
		tc.init[s] = regv{base: base, set: true}
	}

	prog := t.Threads[tid].Prog
	labels := prog.Labels()
	tc.prog = make([]instr, len(prog))
	for i, inst := range prog {
		in := instr{guard: -1, dst: -1}
		if g := inst.Pred(); g != nil {
			in.guard, in.guardNeg = reg(g.Reg), g.Neg
		}
		switch v := inst.(type) {
		case ptx.LabelDef:
			in.op = opLabel
		case ptx.Bra:
			in.op, in.target = opBra, int32(labels[v.Target])
		case ptx.Mov:
			in.op, in.dst, in.a = opMov, reg(v.Dst), opnd(v.Src)
		case ptx.Cvt:
			in.op, in.dst, in.a = opMov, reg(v.Dst), opnd(v.Src)
		case ptx.Add:
			in.op, in.dst, in.a, in.b = opAdd, reg(v.Dst), opnd(v.A), opnd(v.B)
		case ptx.And:
			in.op, in.dst, in.a, in.b = opAnd, reg(v.Dst), opnd(v.A), opnd(v.B)
		case ptx.Xor:
			in.op, in.dst, in.a, in.b = opXor, reg(v.Dst), opnd(v.A), opnd(v.B)
		case ptx.SetpEq:
			in.op, in.dst, in.a, in.b = opSetp, reg(v.P), opnd(v.A), opnd(v.B)
		case ptx.Membar:
			in.op, in.scope = opMembar, v.Scope
		case ptx.Ld:
			in.op, in.dst, in.addr, in.ca = opLd, reg(v.Dst), opnd(v.Addr), v.CacheOp == ptx.CacheCA
		case ptx.St:
			in.op, in.addr, in.a = opSt, opnd(v.Addr), opnd(v.Src)
		case ptx.AtomCAS:
			in.op, in.dst, in.addr, in.a, in.b = opCAS, reg(v.Dst), opnd(v.Addr), opnd(v.Cmp), opnd(v.New)
		case ptx.AtomExch:
			in.op, in.dst, in.addr, in.a = opExch, reg(v.Dst), opnd(v.Addr), opnd(v.Src)
		case ptx.AtomAdd:
			in.op, in.dst, in.addr, in.a = opAtomAdd, reg(v.Dst), opnd(v.Addr), opnd(v.Src)
		case ptx.AtomInc:
			in.op, in.dst, in.addr, in.a = opAtomInc, reg(v.Dst), opnd(v.Addr), opnd(v.Bound)
		default:
			return fmt.Errorf("sim: thread %d: unsupported instruction %v", tid, inst)
		}
		tc.prog[i] = in
	}
	return nil
}
