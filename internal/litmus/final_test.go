package litmus

import (
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// TestSlotsOrder pins the resolution's order: locations as Locations()
// sorts them, then per thread the declared registers, the registers the
// program names in first-use order (guard, destination, sources), and the
// condition's registers no program names.
func TestSlotsOrder(t *testing.T) {
	test := MustParse(`GPU_PTX order
{0:.reg .b64 r5 = y;}
 T0              | T1              ;
 st.cg [r5],1    | ld.cg r2,[x]    ;
 st.cg [x],r3    | setp.eq p1,r2,1 ;
                 | @p1 add r1,r4,r2 ;
ScopeTree(grid(cta(warp T0) (warp T1)))
x: global, y: global
exists (1:r1=7 /\ 1:r9=0 /\ 0:r3=1)
`)
	s := NewSlots(test)
	if got, want := s.Locs(), []ptx.Sym{"x", "y"}; !slices.Equal(got, want) {
		t.Errorf("locations %v, want %v", got, want)
	}
	if got, want := s.Regs(0), []ptx.Reg{"r5", "r3"}; !slices.Equal(got, want) {
		t.Errorf("thread 0 registers %v, want %v", got, want)
	}
	if got, want := s.Regs(1), []ptx.Reg{"r2", "p1", "r1", "r4", "r9"}; !slices.Equal(got, want) {
		t.Errorf("thread 1 registers %v, want %v", got, want)
	}
	if s.Len() != 9 || s.Loc("y") != 1 || s.Reg(0, "r3") != 3 || s.Reg(1, "r9") != 8 {
		t.Errorf("slots: len %d, y %d, 0:r3 %d, 1:r9 %d", s.Len(), s.Loc("y"), s.Reg(0, "r3"), s.Reg(1, "r9"))
	}
	for _, i := range []int{s.Loc("z"), s.Reg(0, "r9"), s.Reg(2, "r1"), s.Reg(-1, "r1")} {
		if i != -1 {
			t.Errorf("a name outside the resolution has slot %d", i)
		}
	}
}

// TestFinalByNameAndIndex checks that a final state reads the same by name
// and by slot, that every slot starts absent and an absent slot reads 0,
// that names outside the resolution are absent and setting them sets
// nothing, and that a clone is independent of its source.
func TestFinalByNameAndIndex(t *testing.T) {
	test := MP(NoFence)
	s := NewSlots(test)
	f := s.NewFinal()
	for i := -1; i <= s.Len(); i++ {
		if v, ok := f.At(i); ok || v != 0 {
			t.Fatalf("fresh slot %d reads %d/%t", i, v, ok)
		}
	}
	f.Set(f.Slots().Reg(1, "r1"), 1)
	f.Set(f.Slots().Loc("x"), 1)
	f.Set(f.Slots().Reg(1, "r7"), 1)
	f.Set(f.Slots().Loc("z"), 1)
	f.Set(f.Slots().Reg(5, "r1"), 1)
	f.Set(-1, 1)
	for i := 0; i < s.Len(); i++ {
		if _, ok := f.At(i); ok != (i == s.Loc("x") || i == s.Reg(1, "r1")) {
			t.Fatalf("after setting x, 1:r1 and names without slots, slot %d reads present %t", i, ok)
		}
	}
	if v, ok := f.At(s.Reg(1, "r1")); !ok || v != 1 {
		t.Errorf("1:r1 by index reads %d/%t", v, ok)
	}
	if v, ok := f.Mem("x"); !ok || v != 1 {
		t.Errorf("x by name reads %d/%t", v, ok)
	}
	if _, ok := f.Reg(1, "r2"); ok {
		t.Error("an unset register reads present")
	}
	c := f.Clone()
	f.Set(s.Loc("x"), 2)
	f.Reset(s)
	if v, ok := c.Mem("x"); !ok || v != 1 {
		t.Errorf("the clone's x reads %d/%t after its source changed", v, ok)
	}
	if _, ok := f.Reg(1, "r1"); ok {
		t.Error("Reset left a slot present")
	}
	if got := f.Regs(1); len(got) != len(s.Regs(1)) {
		t.Errorf("thread 1 has %d register values for %d slots", len(got), len(s.Regs(1)))
	}
}

// TestFinalReadsAllocateNothing checks that reading a final state by name,
// as a condition does, allocates nothing.
func TestFinalReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	test := MP(NoFence)
	f := NewSlots(test).NewFinal()
	f.Set(f.Slots().Reg(1, "r1"), 1)
	f.Set(f.Slots().Loc("y"), 1)
	if n := testing.AllocsPerRun(100, func() { test.Exists.Eval(f) }); n != 0 {
		t.Errorf("Eval over a final state allocates %v times", n)
	}
}
