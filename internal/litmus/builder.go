package litmus

import (
	"fmt"
	"slices"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Builder constructs litmus tests programmatically. Methods record the first
// error encountered; Build returns it.
//
//	t := litmus.NewTest("mp").
//		Global("x", 0).Global("y", 0).
//		Thread("st.cg [x],1", "st.cg [y],1").
//		Thread("ld.cg r1,[y]", "ld.cg r2,[x]").
//		InterCTA().
//		Exists("1:r1=1 /\\ 1:r2=0").
//		MustBuild()
type Builder struct {
	t   *Test
	err error
}

// NewTest starts a builder for a test with the given name.
func NewTest(name string) *Builder {
	return &Builder{t: &Test{
		Arch:    "GPU_PTX",
		Name:    name,
		MemInit: make(map[ptx.Sym]int64),
		MemMap:  make(map[ptx.Sym]Space),
	}}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return b
}

// Doc sets the test description.
func (b *Builder) Doc(s string) *Builder {
	b.t.Doc = s
	return b
}

// Global declares a global-memory location with an initial value.
func (b *Builder) Global(loc string, init int64) *Builder {
	b.t.MemMap[ptx.Sym(loc)] = Global
	if init != 0 {
		b.t.MemInit[ptx.Sym(loc)] = init
	}
	return b
}

// SharedLoc declares a shared-memory location with an initial value.
func (b *Builder) SharedLoc(loc string, init int64) *Builder {
	b.t.MemMap[ptx.Sym(loc)] = Shared
	if init != 0 {
		b.t.MemInit[ptx.Sym(loc)] = init
	}
	return b
}

// Thread appends a thread whose program is given one instruction per
// string. Empty strings are skipped, so fence slots can be filled
// conditionally. Names are classified as Parse classifies them: a
// register the thread has declared (AddrReg before Thread) is a register,
// whatever its spelling.
func (b *Builder) Thread(instrs ...string) *Builder {
	if b.err != nil {
		return b
	}
	tid := len(b.t.Threads)
	regs := declRegs{decls: b.t.Decls, tid: tid}
	var prog ptx.Program
	for _, line := range instrs {
		if strings.TrimSpace(line) == "" {
			continue
		}
		inst, err := ptx.ParseInstr(line, regs.isReg)
		if err != nil {
			return b.fail("litmus: thread %d: %v", tid, err)
		}
		prog = append(prog, inst)
	}
	b.t.Threads = append(b.t.Threads, Thread{ID: tid, Prog: prog})
	return b
}

// ThreadProg appends a thread with an already-built program.
func (b *Builder) ThreadProg(prog ptx.Program) *Builder {
	b.t.Threads = append(b.t.Threads, Thread{ID: len(b.t.Threads), Prog: prog})
	return b
}

// AddrReg declares a .b64 address register of thread tid bound to the
// address of loc (the "0:.reg .b64 r1 = x" declarations of Fig. 12).
func (b *Builder) AddrReg(tid int, reg, loc string) *Builder {
	b.t.Decls = append(b.t.Decls, RegDecl{Thread: tid, Type: ptx.TypeB64, Reg: ptx.Reg(reg), Loc: ptx.Sym(loc)})
	return b
}

// Scope sets an explicit scope tree.
func (b *Builder) Scope(tree ScopeTree) *Builder {
	b.t.Scope = tree
	return b
}

// IntraCTA places every thread in one CTA, each in its own warp.
func (b *Builder) IntraCTA() *Builder {
	ids := make([]int, len(b.t.Threads))
	for i := range ids {
		ids[i] = i
	}
	b.t.Scope = IntraCTA(ids...)
	return b
}

// InterCTA places every thread in its own CTA.
func (b *Builder) InterCTA() *Builder {
	ids := make([]int, len(b.t.Threads))
	for i := range ids {
		ids[i] = i
	}
	b.t.Scope = InterCTA(ids...)
	return b
}

// Exists sets the final condition from its concrete syntax.
func (b *Builder) Exists(cond string) *Builder {
	if b.err != nil {
		return b
	}
	c, err := ParseCond(cond)
	if err != nil {
		return b.fail("litmus: %v", err)
	}
	b.t.Exists = c
	return b
}

// ExistsCond sets the final condition directly.
func (b *Builder) ExistsCond(c Cond) *Builder {
	b.t.Exists = c
	return b
}

// Build finalises the test: any location referenced by a program but not
// declared is mapped to global memory, registers used by programs are
// auto-declared (.s32 for r*, .pred for p*), the condition is resolved, and
// the test validated.
func (b *Builder) Build() (*Test, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := b.t
	// Locations() covers program symbols and decl-bound locations alike,
	// so a location reachable only through an address register still gets
	// its region materialised (the parser mirrors this exactly).
	for _, s := range t.Locations() {
		if _, ok := t.MemMap[s]; !ok {
			t.MemMap[s] = Global
		}
	}
	// Auto-declare, in name order, the registers the programs name (their
	// slots in the resolution of the programs alone) that no declaration
	// covers.
	used := NewSlots(&Test{Threads: t.Threads})
	for tid := range t.Threads {
		var regs []ptx.Reg
		for _, r := range used.Regs(tid) {
			if !slices.ContainsFunc(t.Decls, func(d RegDecl) bool { return d.Thread == tid && d.Reg == r }) {
				regs = append(regs, r)
			}
		}
		slices.Sort(regs)
		for _, r := range regs {
			typ := ptx.TypeS32
			if strings.HasPrefix(string(r), "p") {
				typ = ptx.TypePred
			}
			t.Decls = append(t.Decls, RegDecl{Thread: tid, Type: typ, Reg: r})
		}
	}
	if len(t.Scope.CTAs) == 0 {
		ids := make([]int, len(t.Threads))
		for i := range ids {
			ids[i] = i
		}
		t.Scope = IntraCTA(ids...)
	}
	if t.Exists != nil {
		t.Exists = ResolveCond(t.Exists, t)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build that panics on error; for the static test library.
func (b *Builder) MustBuild() *Test {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
