// Package litmus implements the GPU litmus-test format of Sec. 4.1 of the
// paper (Fig. 12): short concurrent PTX programs together with register
// declarations, memory-region maps, scope trees placing threads in the GPU
// execution hierarchy, and an existential condition on the final state.
//
// The package provides a parser and printer for the concrete format, a
// programmatic builder, a condition evaluator, and a library of every litmus
// test that appears in the paper's figures.
package litmus

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Space is a GPU memory region (Sec. 2.2). Global memory is shared by the
// whole grid and may be cached in L1/L2; shared memory is per-SM and visible
// only within a CTA.
type Space int

// Memory regions.
const (
	Global Space = iota // global memory (device memory, cached in L1/L2)
	Shared              // shared memory (per-SM scratchpad, banked)
)

// String returns "global" or "shared".
func (s Space) String() string {
	switch s {
	case Global:
		return "global"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// ParseSpace parses "global" or "shared".
func ParseSpace(s string) (Space, error) {
	switch s {
	case "global":
		return Global, nil
	case "shared":
		return Shared, nil
	default:
		return 0, fmt.Errorf("litmus: unknown memory space %q", s)
	}
}

// RegDecl declares a register of one thread, optionally binding it to the
// address of a memory location ("0:.reg .b64 r1 = x" in Fig. 12).
type RegDecl struct {
	Thread int
	Type   ptx.Type
	Reg    ptx.Reg
	Loc    ptx.Sym // non-empty when the register holds the address of Loc
}

// String renders the declaration in the Fig. 12 concrete syntax.
func (d RegDecl) String() string { return string(d.AppendTo(nil)) }

// AppendTo appends the declaration's String form to b.
func (d RegDecl) AppendTo(b []byte) []byte {
	b = append(strconv.AppendInt(b, int64(d.Thread), 10), ":.reg ."...)
	b = append(append(append(b, d.Type.String()...), ' '), d.Reg...)
	if d.Loc != "" {
		b = append(append(b, " = "...), d.Loc...)
	}
	return b
}

// Thread is one column of a litmus test: a thread identifier and its PTX
// program.
type Thread struct {
	ID   int
	Prog ptx.Program
}

// Test is a complete GPU litmus test.
type Test struct {
	Arch    string // architecture tag, "GPU_PTX"
	Name    string // test name, e.g. "SB" or "coRR"
	Doc     string // optional description
	Threads []Thread
	Decls   []RegDecl
	MemInit map[ptx.Sym]int64 // initial values; locations absent default to 0
	MemMap  map[ptx.Sym]Space // region of each location
	Scope   ScopeTree
	Exists  Cond // the final condition asked by "exists (...)"
}

// NumThreads returns the number of threads in the test.
func (t *Test) NumThreads() int { return len(t.Threads) }

// Locations returns the test's memory locations in sorted order: the
// mapped ones, those the programs name, and those address registers are
// bound to.
func (t *Test) Locations() []ptx.Sym {
	n := len(t.MemMap) + len(t.Decls)
	for _, th := range t.Threads {
		n += len(th.Prog)
	}
	locs := make([]ptx.Sym, 0, n)
	for l := range t.MemMap {
		locs = append(locs, l)
	}
	var buf [3]ptx.Operand
	for _, th := range t.Threads {
		for _, inst := range th.Prog {
			for _, o := range ptx.AppendSrcs(buf[:0], inst) {
				if s, ok := o.(ptx.Sym); ok {
					locs = append(locs, s)
				}
			}
		}
	}
	for _, d := range t.Decls {
		if d.Loc != "" {
			locs = append(locs, d.Loc)
		}
	}
	slices.Sort(locs)
	return slices.Compact(locs)
}

// SpaceOf returns the memory region of a location (Global when unmapped).
func (t *Test) SpaceOf(loc ptx.Sym) Space {
	if s, ok := t.MemMap[loc]; ok {
		return s
	}
	return Global
}

// InitOf returns the initial value of a location (0 when unspecified).
func (t *Test) InitOf(loc ptx.Sym) int64 {
	if v, ok := t.MemInit[loc]; ok {
		return v
	}
	return 0
}

// RegLoc resolves an address-register binding: if thread tid declared reg
// with "= loc", it returns (loc, true).
func (t *Test) RegLoc(tid int, reg ptx.Reg) (ptx.Sym, bool) {
	for _, d := range t.Decls {
		if d.Thread == tid && d.Reg == reg && d.Loc != "" {
			return d.Loc, true
		}
	}
	return "", false
}

// DeclaredRegs returns the registers declared for thread tid (including
// address registers).
func (t *Test) DeclaredRegs(tid int) []ptx.Reg {
	var regs []ptx.Reg
	for _, d := range t.Decls {
		if d.Thread == tid {
			regs = append(regs, d.Reg)
		}
	}
	return regs
}

// ResolveAddr resolves a memory-access address operand of thread tid to a
// location symbol, following address-register bindings.
func (t *Test) ResolveAddr(tid int, a ptx.Operand) (ptx.Sym, error) {
	switch v := a.(type) {
	case ptx.Sym:
		return v, nil
	case ptx.Reg:
		if loc, ok := t.RegLoc(tid, v); ok {
			return loc, nil
		}
		return "", fmt.Errorf("litmus: thread %d register %s is not bound to a location", tid, v)
	default:
		return "", fmt.Errorf("litmus: bad address operand %v", a)
	}
}

// Validate checks internal consistency: contiguous thread IDs from 0, a
// scope tree covering exactly the test's threads, programs that validate,
// resolvable memory addresses, and a final condition referring to known
// threads.
func (t *Test) Validate() error {
	if len(t.Threads) == 0 {
		return fmt.Errorf("litmus: test %q has no threads", t.Name)
	}
	for i, th := range t.Threads {
		if th.ID != i {
			return fmt.Errorf("litmus: thread IDs must be contiguous from 0; slot %d has ID %d", i, th.ID)
		}
		if err := th.Prog.Validate(); err != nil {
			return fmt.Errorf("litmus: thread %d: %w", i, err)
		}
		for j, inst := range th.Prog {
			a := ptx.AddrOf(inst)
			if a == nil {
				continue
			}
			// A location, or a register bound to one, resolves (the cases
			// ResolveAddr accepts, without building its error).
			if _, ok := a.(ptx.Sym); ok {
				continue
			}
			reg, isReg := a.(ptx.Reg)
			if isReg {
				if _, ok := t.RegLoc(i, reg); ok {
					continue
				}
			}
			// Address registers may be computed (the Fig. 13b
			// address-dependency scheme): accept registers some earlier
			// instruction writes; the execution engines resolve them.
			computed := false
			if isReg {
				for k := 0; k < j; k++ {
					if d, ok := ptx.DstOf(th.Prog[k]); ok && d == reg {
						computed = true
						break
					}
				}
			}
			if !computed {
				return fmt.Errorf("litmus: thread %d instruction %d: address %v is neither bound nor computed", i, j, a)
			}
		}
	}
	if err := t.Scope.Validate(len(t.Threads)); err != nil {
		return err
	}
	if t.Exists == nil {
		return fmt.Errorf("litmus: test %q has no final condition", t.Name)
	}
	// Shared memory is per-SM: threads in different CTAs cannot exchange
	// values through a shared-memory location. When several locations
	// break this, the least one is reported.
	var crossed ptx.Sym
	for loc, sp := range t.MemMap {
		if sp == Shared && (crossed == "" || loc < crossed) && t.sharedAcrossCTAs(loc) {
			crossed = loc
		}
	}
	if crossed != "" {
		return fmt.Errorf("litmus: shared location %s accessed from multiple CTAs", crossed)
	}
	return checkCondThreads(t.Exists, len(t.Threads))
}

// sharedAcrossCTAs reports whether threads of more than one CTA access loc,
// by name or through an address register bound to it.
func (t *Test) sharedAcrossCTAs(loc ptx.Sym) bool {
	cta := -1
	for tid := range t.Threads {
		if !t.Threads[tid].Prog.UsesSym(loc) && !threadBindsLoc(t, tid, loc) {
			continue
		}
		c := t.Scope.CTAOf(tid)
		if cta == -1 {
			cta = c
		} else if c != cta {
			return true
		}
	}
	return false
}

// checkCondThreads reports the first atom of c, in CondAtoms order, that
// names a thread outside 0..n-1.
func checkCondThreads(c Cond, n int) error {
	switch v := c.(type) {
	case CondAnd:
		if err := checkCondThreads(v.L, n); err != nil {
			return err
		}
		return checkCondThreads(v.R, n)
	case CondOr:
		if err := checkCondThreads(v.L, n); err != nil {
			return err
		}
		return checkCondThreads(v.R, n)
	case CondNot:
		return checkCondThreads(v.C, n)
	case RegEq:
		if v.Thread < 0 || v.Thread >= n {
			return fmt.Errorf("litmus: condition references unknown thread %d", v.Thread)
		}
	}
	return nil
}

// threadBindsLoc reports whether thread tid declares an address register
// bound to loc.
func threadBindsLoc(t *Test, tid int, loc ptx.Sym) bool {
	for _, d := range t.Decls {
		if d.Thread == tid && d.Loc == loc {
			return true
		}
	}
	return false
}

// String renders the test in the concrete format of Fig. 12 so that
// Parse(String(t)) reproduces the test.
func (t *Test) String() string {
	var sb strings.Builder
	arch := t.Arch
	if arch == "" {
		arch = "GPU_PTX"
	}
	fmt.Fprintf(&sb, "%s %s\n", arch, t.Name)
	if t.Doc != "" {
		fmt.Fprintf(&sb, "\"%s\"\n", t.Doc)
	}
	sb.WriteString("{")
	first := true
	for _, d := range t.Decls {
		if !first {
			sb.WriteString(" ")
		}
		sb.WriteString(d.String() + ";")
		first = false
	}
	inits := make([]ptx.Sym, 0, len(t.MemInit))
	for l := range t.MemInit {
		inits = append(inits, l)
	}
	sort.Slice(inits, func(i, j int) bool { return inits[i] < inits[j] })
	for _, l := range inits {
		if !first {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s = %d;", l, t.MemInit[l])
		first = false
	}
	sb.WriteString("}\n")

	// Thread table.
	cols := make([][]string, len(t.Threads))
	maxLen := 0
	for i, th := range t.Threads {
		cols[i] = append(cols[i], fmt.Sprintf("T%d", th.ID))
		for _, inst := range th.Prog {
			cols[i] = append(cols[i], inst.String())
		}
		if len(cols[i]) > maxLen {
			maxLen = len(cols[i])
		}
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		for _, s := range c {
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	for row := 0; row < maxLen; row++ {
		cells := make([]string, len(cols))
		for i, c := range cols {
			s := ""
			if row < len(c) {
				s = c[row]
			}
			cells[i] = fmt.Sprintf("%-*s", widths[i], s)
		}
		sb.WriteString(" " + strings.Join(cells, " | ") + " ;\n")
	}

	fmt.Fprintf(&sb, "ScopeTree(%s)\n", t.Scope)

	locs := t.Locations()
	parts := make([]string, 0, len(locs))
	for _, l := range locs {
		parts = append(parts, fmt.Sprintf("%s: %s", l, t.SpaceOf(l)))
	}
	if len(parts) > 0 {
		sb.WriteString(strings.Join(parts, ", ") + "\n")
	}
	fmt.Fprintf(&sb, "exists (%s)\n", t.Exists)
	return sb.String()
}
