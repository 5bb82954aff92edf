package litmus

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

func TestParseFig12(t *testing.T) {
	test := SB()
	if test.Name != "SB" {
		t.Errorf("Name = %q", test.Name)
	}
	if n := test.NumThreads(); n != 2 {
		t.Fatalf("NumThreads = %d", n)
	}
	if len(test.Threads[0].Prog) != 3 || len(test.Threads[1].Prog) != 3 {
		t.Errorf("program lengths: %d, %d", len(test.Threads[0].Prog), len(test.Threads[1].Prog))
	}
	if test.SpaceOf("x") != Shared || test.SpaceOf("y") != Global {
		t.Errorf("memory map wrong: x=%v y=%v", test.SpaceOf("x"), test.SpaceOf("y"))
	}
	if !test.Scope.SameCTA(0, 1) || test.Scope.SameWarp(0, 1) {
		t.Errorf("scope tree wrong: %v", test.Scope)
	}
	// Address-register bindings.
	if loc, ok := test.RegLoc(0, "r1"); !ok || loc != "x" {
		t.Errorf("T0 r1 binding = %v %v", loc, ok)
	}
	if loc, ok := test.RegLoc(1, "r1"); !ok || loc != "y" {
		t.Errorf("T1 r1 binding = %v %v", loc, ok)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, test := range PaperTests() {
		s := test.String()
		re, err := Parse(s)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", test.Name, err, s)
		}
		if re.String() != s {
			t.Errorf("%s: round trip mismatch:\n%s\nvs\n%s", test.Name, s, re.String())
		}
	}
}

func TestPaperTestsValidate(t *testing.T) {
	for _, test := range PaperTests() {
		if err := test.Validate(); err != nil {
			t.Errorf("%s: %v", test.Name, err)
		}
	}
}

func TestScopeTreeParse(t *testing.T) {
	tests := []struct {
		src      string
		sameCTA  bool
		sameWarp bool
		numCTAs  int
	}{
		{"grid(cta(warp T0) (warp T1))", true, false, 1},
		{"grid(cta(warp T0 T1))", true, true, 1},
		{"grid(cta(warp T0)) (cta(warp T1))", false, false, 2},
	}
	for _, tt := range tests {
		tree, err := ParseScopeTree(tt.src)
		if err != nil {
			t.Fatalf("%q: %v", tt.src, err)
		}
		if got := tree.SameCTA(0, 1); got != tt.sameCTA {
			t.Errorf("%q: SameCTA = %v", tt.src, got)
		}
		if got := tree.SameWarp(0, 1); got != tt.sameWarp {
			t.Errorf("%q: SameWarp = %v", tt.src, got)
		}
		if len(tree.CTAs) != tt.numCTAs {
			t.Errorf("%q: CTAs = %d", tt.src, len(tree.CTAs))
		}
		// Round trip.
		re, err := ParseScopeTree(tree.String())
		if err != nil {
			t.Fatalf("%q: reparse %q: %v", tt.src, tree.String(), err)
		}
		if re.String() != tree.String() {
			t.Errorf("%q: scope round trip %q vs %q", tt.src, tree, re)
		}
	}
}

func TestScopeTreeErrors(t *testing.T) {
	bad := []string{
		"",
		"grid()",
		"grid(warp T0)",
		"grid(cta())",
		"grid(cta(warp))",
		"grid(cta(warp T0)",
	}
	for _, src := range bad {
		if _, err := ParseScopeTree(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestScopeTreeValidate(t *testing.T) {
	tree, _ := ParseScopeTree("grid(cta(warp T0) (warp T1))")
	if err := tree.Validate(2); err != nil {
		t.Errorf("Validate(2): %v", err)
	}
	if err := tree.Validate(3); err == nil {
		t.Error("Validate(3) should fail: T2 missing")
	}
	dup := ScopeTree{CTAs: []CTAScope{{Warps: []WarpScope{{Threads: []int{0, 0}}}}}}
	if err := dup.Validate(1); err == nil {
		t.Error("duplicate thread should fail")
	}
}

// condState returns a final state with every slot absent over a test of
// the given thread count and global locations whose condition is c.
func condState(c Cond, threads int, locs ...ptx.Sym) *Final {
	t := &Test{Threads: make([]Thread, threads), MemMap: make(map[ptx.Sym]Space), Exists: c}
	for _, l := range locs {
		t.MemMap[l] = Global
	}
	return NewSlots(t).NewFinal()
}

func TestCondEval(t *testing.T) {
	c, err := ParseCond("0:r2=0 /\\ 1:r2=0")
	if err != nil {
		t.Fatal(err)
	}
	s := condState(c, 2)
	s.Set(s.Slots().Reg(0, "r2"), 0)
	s.Set(s.Slots().Reg(1, "r2"), 0)
	if !c.Eval(s) {
		t.Error("condition should hold")
	}
	s.Set(s.Slots().Reg(1, "r2"), 1)
	if c.Eval(s) {
		t.Error("condition should fail")
	}
}

func TestCondOperators(t *testing.T) {
	c, err := ParseCond("(0:r0=1 \\/ 0:r0=2) /\\ ~x=3")
	if err != nil {
		t.Fatal(err)
	}
	s := condState(c, 1, "x")
	s.Set(s.Slots().Reg(0, "r0"), 2)
	s.Set(s.Slots().Loc("x"), 0)
	if !c.Eval(s) {
		t.Error("should hold with r0=2, x=0")
	}
	s.Set(s.Slots().Loc("x"), 3)
	if c.Eval(s) {
		t.Error("should fail with x=3")
	}
	s.Set(s.Slots().Loc("x"), 0)
	s.Set(s.Slots().Reg(0, "r0"), 3)
	if c.Eval(s) {
		t.Error("should fail with r0=3")
	}
}

func TestCondUnicode(t *testing.T) {
	c, err := ParseCond("1:r1=1 ∧ 1:r2=0")
	if err != nil {
		t.Fatal(err)
	}
	s := condState(c, 2)
	s.Set(s.Slots().Reg(1, "r1"), 1)
	s.Set(s.Slots().Reg(1, "r2"), 0)
	if !c.Eval(s) {
		t.Error("unicode conjunction should parse and hold")
	}
}

func TestCondRoundTrip(t *testing.T) {
	srcs := []string{
		"0:r2=0 /\\ 1:r2=0",
		"(0:r0=1 \\/ 1:r1=0)",
		"~0:r0=1",
		"x=1",
		"0:r0=1 /\\ (1:r1=0 \\/ 1:r1=2)",
	}
	for _, src := range srcs {
		c, err := ParseCond(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		re, err := ParseCond(c.String())
		if err != nil {
			t.Fatalf("%q: reparse %q: %v", src, c, err)
		}
		if re.String() != c.String() {
			t.Errorf("%q: round trip %q vs %q", src, c, re)
		}
	}
}

func TestCondErrors(t *testing.T) {
	bad := []string{"", "0:r0", "0:r0=", "=5", "0:r0=1 /\\", "(0:r0=1", "0:r0=zap"}
	for _, src := range bad {
		if _, err := ParseCond(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestResolveCondShorthand(t *testing.T) {
	// The figures write "r1=1 ∧ r2=0" with register names unique across
	// threads; ResolveCond must map them to the owning thread.
	test := NewTest("mp-short").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "st.cg [y],1").
		Thread("ld.cg r1,[y]", "ld.cg r2,[x]").
		InterCTA().
		Exists("r1=1 /\\ r2=0").
		MustBuild()
	s := NewSlots(test).NewFinal()
	s.Set(s.Slots().Reg(1, "r1"), 1)
	s.Set(s.Slots().Reg(1, "r2"), 0)
	if !test.Exists.Eval(s) {
		t.Error("shorthand condition should resolve to thread 1 registers")
	}
}

func TestValidateErrors(t *testing.T) {
	// Unresolvable address register.
	_, err := NewTest("bad").
		Thread("ld.cg r1,[r9]").
		IntraCTA().
		Exists("0:r1=0").
		Build()
	if err == nil {
		t.Error("unbound address register should fail validation")
	}

	// Condition referencing unknown thread.
	_, err = NewTest("bad2").
		Global("x", 0).
		Thread("ld.cg r1,[x]").
		IntraCTA().
		Exists("7:r1=0").
		Build()
	if err == nil {
		t.Error("unknown thread in condition should fail validation")
	}

	// No condition.
	b := NewTest("bad3").Global("x", 0).Thread("ld.cg r1,[x]").IntraCTA()
	if _, err := b.Build(); err == nil {
		t.Error("missing condition should fail validation")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"X86 SB\n{}\n T0 ;\n st.cg [x],1 ;\nexists (0:r0=0)",
		"GPU_PTX\n{}\n T0 ;\nexists (0:r0=0)",
		"GPU_PTX t\n{}\n T0 | T1 ;\n st.cg [x],1 ;\nexists (0:r0=0)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%.40q): expected error", src)
		}
	}
}

func TestParseMemInit(t *testing.T) {
	src := `GPU_PTX init-test
{m = 1;}
 T0               ;
 atom.cas r0,[m],0,1 ;
m: global
exists (0:r0=1)
`
	test, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if test.InitOf("m") != 1 {
		t.Errorf("InitOf(m) = %d, want 1", test.InitOf("m"))
	}
}

func TestParseMemMapWithInit(t *testing.T) {
	src := `GPU_PTX map-init
{}
 T0               ;
 atom.cas r0,[m],0,1 ;
m: global = 1
exists (0:r0=1)
`
	test, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if test.InitOf("m") != 1 || test.SpaceOf("m") != Global {
		t.Errorf("m: init=%d space=%v", test.InitOf("m"), test.SpaceOf("m"))
	}
}

func TestCasSLShape(t *testing.T) {
	test := CasSL(false)
	if test.InitOf("m") != 1 {
		t.Errorf("mutex must start locked, got %d", test.InitOf("m"))
	}
	if test.Scope.SameCTA(0, 1) {
		t.Error("cas-sl is inter-CTA")
	}
	// The fenced variant has two more instructions.
	fenced := CasSL(true)
	n0 := len(test.Threads[0].Prog) + len(test.Threads[1].Prog)
	n1 := len(fenced.Threads[0].Prog) + len(fenced.Threads[1].Prog)
	if n1 != n0+2 {
		t.Errorf("fenced cas-sl should add 2 fences: %d vs %d", n0, n1)
	}
}

func TestDlbTestsUseGuards(t *testing.T) {
	test := DlbMP(true)
	found := false
	for _, inst := range test.Threads[1].Prog {
		if g := inst.Pred(); g != nil && g.Neg && g.Reg == "p4" {
			found = true
		}
	}
	if !found {
		t.Error("dlb-mp+fences must contain @!p4-guarded instructions")
	}
}

func TestLocations(t *testing.T) {
	test := MP(NoFence)
	locs := test.Locations()
	if len(locs) != 2 || locs[0] != "x" || locs[1] != "y" {
		t.Errorf("Locations = %v", locs)
	}
}

func TestResolveAddr(t *testing.T) {
	test := SB()
	loc, err := test.ResolveAddr(0, ptx.Reg("r1"))
	if err != nil || loc != "x" {
		t.Errorf("ResolveAddr(0, r1) = %v, %v", loc, err)
	}
	loc, err = test.ResolveAddr(1, ptx.Sym("y"))
	if err != nil || loc != "y" {
		t.Errorf("ResolveAddr(1, y) = %v, %v", loc, err)
	}
	if _, err := test.ResolveAddr(0, ptx.Reg("r99")); err == nil {
		t.Error("unbound register should error")
	}
}

func TestStringContainsSections(t *testing.T) {
	s := CoRR().String()
	for _, want := range []string{"GPU_PTX coRR", "ScopeTree(", "exists (", "x: global"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
