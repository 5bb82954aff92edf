package ptx

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, line string) Instr {
	t.Helper()
	inst, err := ParseInstr(line, nil)
	if err != nil {
		t.Fatalf("ParseInstr(%q): %v", line, err)
	}
	return inst
}

func TestParseLd(t *testing.T) {
	tests := []struct {
		line    string
		dst     Reg
		cacheOp CacheOp
		vol     bool
	}{
		{"ld.cg r1,[x]", "r1", CacheCG, false},
		{"ld.ca r2,[x]", "r2", CacheCA, false},
		{"ld.volatile r1,[y]", "r1", CacheDefault, true},
		{"ld.cg.s32 r2,[r3]", "r2", CacheCG, false},
		{"ld r5,[r4]", "r5", CacheDefault, false},
	}
	for _, tt := range tests {
		inst := mustParse(t, tt.line)
		ld, ok := inst.(Ld)
		if !ok {
			t.Fatalf("%q: got %T, want Ld", tt.line, inst)
		}
		if ld.Dst != tt.dst || ld.CacheOp != tt.cacheOp || ld.Volatile != tt.vol {
			t.Errorf("%q: got %+v", tt.line, ld)
		}
	}
}

func TestParseSt(t *testing.T) {
	inst := mustParse(t, "st.cg [x],1")
	st, ok := inst.(St)
	if !ok {
		t.Fatalf("got %T, want St", inst)
	}
	if st.Addr != Sym("x") {
		t.Errorf("Addr = %v, want x", st.Addr)
	}
	if st.Src != Imm(1) {
		t.Errorf("Src = %v, want 1", st.Src)
	}
	if st.CacheOp != CacheCG {
		t.Errorf("CacheOp = %v, want cg", st.CacheOp)
	}

	inst = mustParse(t, "st.volatile [t],r2")
	st = inst.(St)
	if !st.Volatile || st.Src != Reg("r2") {
		t.Errorf("volatile store: %+v", st)
	}
}

func TestParseAtomics(t *testing.T) {
	inst := mustParse(t, "atom.cas r0,[h],0,1")
	cas, ok := inst.(AtomCAS)
	if !ok {
		t.Fatalf("got %T, want AtomCAS", inst)
	}
	if cas.Dst != "r0" || cas.Addr != Sym("h") || cas.Cmp != Imm(0) || cas.New != Imm(1) {
		t.Errorf("cas = %+v", cas)
	}

	inst = mustParse(t, "atom.exch r0,[m],0")
	exch := inst.(AtomExch)
	if exch.Dst != "r0" || exch.Addr != Sym("m") || exch.Src != Imm(0) {
		t.Errorf("exch = %+v", exch)
	}

	inst = mustParse(t, "atom.inc r2,[t],0x7fffffff")
	inc := inst.(AtomInc)
	if inc.Bound != Imm(0x7fffffff) {
		t.Errorf("inc bound = %v", inc.Bound)
	}

	inst = mustParse(t, "atom.add r1,[c],1")
	add := inst.(AtomAdd)
	if add.Src != Imm(1) {
		t.Errorf("atom.add src = %v", add.Src)
	}
}

func TestParseMembar(t *testing.T) {
	for _, tt := range []struct {
		line  string
		scope Scope
	}{
		{"membar.cta", ScopeCTA},
		{"membar.gl", ScopeGL},
		{"membar.sys", ScopeSys},
	} {
		inst := mustParse(t, tt.line)
		mb, ok := inst.(Membar)
		if !ok || mb.Scope != tt.scope {
			t.Errorf("%q: got %v", tt.line, inst)
		}
	}
	if _, err := ParseInstr("membar.bogus", nil); err == nil {
		t.Error("membar.bogus should fail")
	}
}

func TestParseGuards(t *testing.T) {
	for _, tt := range []struct {
		line string
		reg  Reg
		neg  bool
	}{
		{"!p4 membar.gl", "p4", true},
		{"p4 ld.cg r1,[d]", "p4", false},
		{"@p1 st.cg [x],1", "p1", false},
		{"@!p st.cg [x],1", "p", true},
		{"p membar.gl", "p", false},
	} {
		inst := mustParse(t, tt.line)
		g := inst.Pred()
		if g == nil {
			t.Fatalf("%q: no guard", tt.line)
		}
		if g.Reg != tt.reg || g.Neg != tt.neg {
			t.Errorf("%q: guard = %+v", tt.line, g)
		}
	}
}

func TestParseALU(t *testing.T) {
	inst := mustParse(t, "mov.s32 r0,1")
	mov := inst.(Mov)
	if mov.Dst != "r0" || mov.Src != Imm(1) || mov.Type != TypeS32 {
		t.Errorf("mov = %+v", mov)
	}

	inst = mustParse(t, "add r2,r2,1")
	add := inst.(Add)
	if add.Dst != "r2" || add.A != Reg("r2") || add.B != Imm(1) {
		t.Errorf("add = %+v", add)
	}

	inst = mustParse(t, "and.b32 r2, r1, 0x80000000")
	and := inst.(And)
	if and.B != Imm(0x80000000) {
		t.Errorf("and = %+v", and)
	}

	inst = mustParse(t, "xor.b32 r2, rb, 0x07f3a001")
	xor := inst.(Xor)
	if xor.A != Reg("rb") || xor.B != Imm(0x07f3a001) {
		t.Errorf("xor = %+v", xor)
	}

	inst = mustParse(t, "cvt.u64.u32 r3, r2")
	cvt := inst.(Cvt)
	if cvt.DstType != TypeU64 || cvt.SrcType != TypeU32 {
		t.Errorf("cvt = %+v", cvt)
	}

	inst = mustParse(t, "setp.eq p4,r0,0")
	setp := inst.(SetpEq)
	if setp.P != "p4" || setp.A != Reg("r0") || setp.B != Imm(0) {
		t.Errorf("setp = %+v", setp)
	}
}

func TestParseControlFlow(t *testing.T) {
	inst := mustParse(t, "bra DONE")
	if b := inst.(Bra); b.Target != "DONE" {
		t.Errorf("bra = %+v", b)
	}
	inst = mustParse(t, "DONE:")
	if l := inst.(LabelDef); l.Name != "DONE" {
		t.Errorf("label = %+v", l)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate r0,r1",
		"ld.cg r1",
		"ld.cg r1,x", // address must be bracketed
		"st.cg [x]",
		"atom.cas r0,[h],0",
		"setp.lt p,r0,0",
		"cvt.u64 r3,r2",
		"membar",
	}
	for _, line := range bad {
		if _, err := ParseInstr(line, nil); err == nil {
			t.Errorf("ParseInstr(%q): expected error", line)
		}
	}
}

// TestRoundTrip verifies String∘Parse is the identity on re-parse for the
// instruction forms used by the paper's figures.
func TestRoundTrip(t *testing.T) {
	lines := []string{
		"st.cg [x],1",
		"ld.cg r1,[x]",
		"ld.ca r2,[x]",
		"st.volatile [x],1",
		"ld.volatile r1,[y]",
		"membar.cta",
		"membar.gl",
		"membar.sys",
		"atom.cas r0,[h],0,1",
		"atom.exch r0,[m],0",
		"atom.inc r2,[t],1",
		"mov r2,1",
		"add r2,r2,1",
		"setp.eq p4,r0,0",
		"@!p4 membar.gl",
		"@p4 ld.cg r1,[d]",
		"bra END",
		"END:",
	}
	for _, line := range lines {
		first := mustParse(t, line)
		second := mustParse(t, first.String())
		if first.String() != second.String() {
			t.Errorf("round trip failed: %q -> %q -> %q", line, first, second)
		}
	}
}

func TestProgramValidate(t *testing.T) {
	prog, err := ParseProgram("setp.eq p,r0,0; @p bra SKIP; st.cg [x],1; SKIP:", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}

	prog, err = ParseProgram("bra NOWHERE", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err == nil {
		t.Error("expected undefined-label error")
	}

	prog, err = ParseProgram("L:; L:", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err == nil {
		t.Error("expected duplicate-label error")
	}
}

func TestProgramSymbolsAndRegs(t *testing.T) {
	prog, err := ParseProgram("st.cg [x],1\nld.cg r1,[y]\nadd r2,r1,1", nil)
	if err != nil {
		t.Fatal(err)
	}
	syms := prog.Symbols()
	if !syms["x"] || !syms["y"] || len(syms) != 2 {
		t.Errorf("Symbols = %v", syms)
	}
	for _, r := range []Reg{"r1", "r2", "r3", "x"} {
		if got, want := prog.MentionsReg(r), r == "r1" || r == "r2"; got != want {
			t.Errorf("MentionsReg(%s) = %v, want %v", r, got, want)
		}
	}
}

func TestMemAccessHelpers(t *testing.T) {
	prog, err := ParseProgram("st.cg [x],1\nmembar.gl\nld.cg r1,[x]\natom.cas r2,[m],0,1", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := prog.MemAccesses()
	want := []int{0, 2, 3}
	if len(idx) != len(want) {
		t.Fatalf("MemAccesses = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("MemAccesses = %v, want %v", idx, want)
		}
	}
	if IsAtomic(prog[0]) || !IsAtomic(prog[3]) {
		t.Error("IsAtomic misclassifies")
	}
	if AddrOf(prog[1]) != nil {
		t.Error("membar has no address")
	}
	if AddrOf(prog[0]) != Sym("x") {
		t.Error("AddrOf(st) != x")
	}
}

func TestScopeIncludes(t *testing.T) {
	if !ScopeSys.Includes(ScopeCTA) || !ScopeGL.Includes(ScopeCTA) || !ScopeGL.Includes(ScopeGL) {
		t.Error("wider scopes must include narrower")
	}
	if ScopeCTA.Includes(ScopeGL) {
		t.Error("cta must not include gl")
	}
}

func TestDefaultRegClassifier(t *testing.T) {
	for _, name := range []string{"r0", "r12", "p", "p4", "rb"} {
		if !DefaultRegClassifier(name) {
			t.Errorf("%q should classify as register", name)
		}
	}
	for _, name := range []string{"x", "head", "tail", "mutex", "", "q0"} {
		if DefaultRegClassifier(name) {
			t.Errorf("%q should not classify as register", name)
		}
	}
}

// TestQuickGuardRoundTrip property-checks that guards survive formatting and
// re-parsing for arbitrary predicate register numbers.
func TestQuickGuardRoundTrip(t *testing.T) {
	f := func(n uint8, neg bool) bool {
		g := &Guard{Reg: Reg("p" + itoa(int(n)%100)), Neg: neg}
		inst := St{Addr: Sym("x"), Src: Imm(1), CacheOp: CacheCG}.WithGuard(g)
		parsed, err := ParseInstr(inst.String(), nil)
		if err != nil {
			return false
		}
		got := parsed.Pred()
		return got != nil && got.Reg == g.Reg && got.Neg == g.Neg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickImmRoundTrip property-checks immediate formatting/parsing.
func TestQuickImmRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		inst := Mov{Dst: "r0", Src: Imm(v)}
		parsed, err := ParseInstr(inst.String(), nil)
		if err != nil {
			return false
		}
		m, ok := parsed.(Mov)
		return ok && m.Src == Imm(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestParseProgramComments(t *testing.T) {
	src := `
	// store then flag
	st.cg [x],1 // data
	membar.gl
	st.cg [y],1
	`
	prog, err := ParseProgram(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 {
		t.Fatalf("len = %d, want 3: %v", len(prog), prog)
	}
	if !strings.HasPrefix(prog[0].String(), "st.cg") {
		t.Errorf("prog[0] = %v", prog[0])
	}
}
