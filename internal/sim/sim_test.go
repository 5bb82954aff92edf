package sim

import (
	"sort"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// countWeak runs the test n times and counts final states satisfying the
// exists-condition.
func countWeak(t *testing.T, test *litmus.Test, p *chip.Profile, inc chip.Incant, n int) int {
	t.Helper()
	weak := 0
	for i := 0; i < n; i++ {
		res, err := Run(test, p, inc, int64(i)*7919+13)
		if err != nil {
			t.Fatalf("%s on %s: %v", test.Name, p.ShortName, err)
		}
		if test.Exists.Eval(res.State) {
			weak++
		}
	}
	return weak
}

const iters = 3000

func TestSBWeakOnTitan(t *testing.T) {
	w := countWeak(t, litmus.SBGlobal(), chip.GTXTitan, chip.Default(), iters)
	if w == 0 {
		t.Error("Titan must exhibit store buffering under stress")
	}
}

func TestSBNeverOnGTX280(t *testing.T) {
	w := countWeak(t, litmus.SBGlobal(), chip.GTX280, chip.Default(), iters)
	if w != 0 {
		t.Errorf("GTX 280 showed %d weak sb outcomes; the paper observed none", w)
	}
}

func TestNoWeakWithoutMemStressOnTitanInter(t *testing.T) {
	// Table 6: Titan lb/sb columns 1-8 (no memory stress) are all zero.
	inc := chip.Incant{BankConflicts: true, ThreadSync: true, ThreadRand: true}
	for _, test := range []*litmus.Test{litmus.SBGlobal(), litmus.LB(litmus.NoFence), litmus.MP(litmus.NoFence)} {
		if w := countWeak(t, test, chip.GTXTitan, inc, iters); w != 0 {
			t.Errorf("%s on Titan without memory stress: %d weak outcomes, want 0", test.Name, w)
		}
	}
}

func TestMPWeakThenFenced(t *testing.T) {
	inc := chip.Default()
	weak := countWeak(t, litmus.MP(litmus.NoFence), chip.GTXTitan, inc, iters)
	if weak == 0 {
		t.Error("mp without fences must be observable on Titan")
	}
	fenced := countWeak(t, litmus.MP(litmus.FenceGL), chip.GTXTitan, inc, iters)
	if fenced != 0 {
		t.Errorf("mp+membar.gls must never be weak, got %d", fenced)
	}
}

func TestLBWeakOnHD7970(t *testing.T) {
	// Table 6: HD 7970 shows lb in every column, by far its most frequent
	// weak behaviour.
	inc := chip.Incant{} // even with no incantations
	lb := countWeak(t, litmus.LB(litmus.NoFence), chip.HD7970, inc, iters)
	if lb == 0 {
		t.Error("HD 7970 must exhibit lb even without incantations")
	}
	sb := countWeak(t, litmus.SBGlobal(), chip.HD7970, inc, iters)
	if sb*10 > lb {
		t.Errorf("HD 7970: sb (%d) must be far rarer than lb (%d)", sb, lb)
	}
}

func TestCoRRPerChip(t *testing.T) {
	// Fig. 1: coRR on Fermi and Kepler; zero on Maxwell, AMD and GTX 280.
	inc := chip.Default()
	for _, p := range []*chip.Profile{chip.GTX540m, chip.TeslaC2075, chip.GTX660, chip.GTXTitan} {
		if w := countWeak(t, litmus.CoRR(), p, inc, iters); w == 0 {
			t.Errorf("coRR must be observable on %s", p.ShortName)
		}
	}
	for _, p := range []*chip.Profile{chip.GTX750, chip.HD6570, chip.HD7970, chip.GTX280} {
		if w := countWeak(t, litmus.CoRR(), p, inc, iters); w != 0 {
			t.Errorf("coRR must not be observable on %s, got %d", p.ShortName, w)
		}
	}
}

func TestMPL1FenceRows(t *testing.T) {
	inc := chip.Default()
	// Tesla C2075: weak no matter the fence (Fig. 3).
	for _, f := range litmus.Fences {
		if w := countWeak(t, litmus.MPL1(f), chip.TeslaC2075, inc, iters); w == 0 {
			t.Errorf("TesC mp-L1 with %s must stay weak", f.Name())
		}
	}
	// GTX 540m: any fence restores order.
	if w := countWeak(t, litmus.MPL1(litmus.NoFence), chip.GTX540m, inc, iters); w == 0 {
		t.Error("GTX5 mp-L1 without fences must be weak")
	}
	for _, f := range []litmus.Fence{litmus.FenceCTA, litmus.FenceGL, litmus.FenceSys} {
		if w := countWeak(t, litmus.MPL1(f), chip.GTX540m, inc, iters); w != 0 {
			t.Errorf("GTX5 mp-L1 with %s must be 0, got %d", f.Name(), w)
		}
	}
	// Titan: weak under membar.cta, restored by membar.gl.
	if w := countWeak(t, litmus.MPL1(litmus.FenceCTA), chip.GTXTitan, inc, 6000); w == 0 {
		t.Error("Titan mp-L1 with membar.cta must stay weak")
	}
	if w := countWeak(t, litmus.MPL1(litmus.FenceGL), chip.GTXTitan, inc, iters); w != 0 {
		t.Errorf("Titan mp-L1 with membar.gl must be 0, got %d", w)
	}
}

func TestCoRRL2L1FenceRows(t *testing.T) {
	inc := chip.Default()
	// Tesla C2075: weak under every fence (Fig. 4).
	for _, f := range litmus.Fences {
		if w := countWeak(t, litmus.CoRRL2L1(f), chip.TeslaC2075, inc, iters); w == 0 {
			t.Errorf("TesC coRR-L2-L1 with %s must stay weak", f.Name())
		}
	}
	// GTX 540m: weak at no-fence and membar.cta; clean at membar.gl.
	if w := countWeak(t, litmus.CoRRL2L1(litmus.FenceCTA), chip.GTX540m, inc, iters); w == 0 {
		t.Error("GTX5 coRR-L2-L1 with membar.cta must stay weak")
	}
	if w := countWeak(t, litmus.CoRRL2L1(litmus.FenceGL), chip.GTX540m, inc, iters); w != 0 {
		t.Errorf("GTX5 coRR-L2-L1 with membar.gl must be 0, got %d", w)
	}
}

func TestMPVolatile(t *testing.T) {
	inc := chip.Default()
	// Fig. 5: volatile does not restore SC on Fermi/Kepler; Maxwell clean.
	if w := countWeak(t, litmus.MPVolatile(), chip.GTX540m, inc, iters); w == 0 {
		t.Error("mp-volatile must be weak on GTX5")
	}
	if w := countWeak(t, litmus.MPVolatile(), chip.GTX750, inc, iters); w != 0 {
		t.Errorf("mp-volatile must be 0 on GTX7, got %d", w)
	}
}

func TestSpinLockTests(t *testing.T) {
	inc := chip.Default()
	// cas-sl (Fig. 9): stale reads on Kepler; fences repair it.
	if w := countWeak(t, litmus.CasSL(false), chip.GTXTitan, inc, 6000); w == 0 {
		t.Error("cas-sl must exhibit stale reads on Titan")
	}
	if w := countWeak(t, litmus.CasSL(true), chip.GTXTitan, inc, iters); w != 0 {
		t.Errorf("fenced cas-sl must never be weak, got %d", w)
	}
	// sl-future (Fig. 11): future reads; the repair forbids them.
	if w := countWeak(t, litmus.SlFuture(false), chip.GTXTitan, inc, 6000); w == 0 {
		t.Error("sl-future must exhibit future reads on Titan")
	}
	if w := countWeak(t, litmus.SlFuture(true), chip.GTXTitan, inc, iters); w != 0 {
		t.Errorf("repaired sl-future must never be weak, got %d", w)
	}
}

func TestDlbTests(t *testing.T) {
	inc := chip.Default()
	if w := countWeak(t, litmus.DlbLB(false), chip.GTXTitan, inc, 6000); w == 0 {
		t.Error("dlb-lb must be observable on Titan")
	}
	if w := countWeak(t, litmus.DlbLB(true), chip.GTXTitan, inc, iters); w != 0 {
		t.Errorf("fenced dlb-lb must never be weak, got %d", w)
	}
	if w := countWeak(t, litmus.DlbMP(true), chip.GTXTitan, inc, iters); w != 0 {
		t.Errorf("fenced dlb-mp must never be weak, got %d", w)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	test := litmus.MP(litmus.NoFence)
	a, err := Run(test, chip.GTXTitan, chip.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(test, chip.GTXTitan, chip.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 2; tid++ {
		for _, r := range a.State.Slots().Regs(tid) {
			v, vok := a.State.Reg(tid, r)
			if w, wok := b.State.Reg(tid, r); w != v || wok != vok {
				t.Errorf("seed 42 not reproducible: thread %d %s: %d/%t vs %d/%t", tid, r, v, vok, w, wok)
			}
		}
	}
}

func TestFinalMemoryConsistent(t *testing.T) {
	// After every run, memory must reflect some committed store (or init).
	test := litmus.MP(litmus.NoFence)
	for i := 0; i < 500; i++ {
		res, err := Run(test, chip.TeslaC2075, chip.Default(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range test.Locations() {
			v, ok := res.State.Mem(loc)
			if !ok || (v != 0 && v != 1) {
				t.Fatalf("iteration %d: bad final value %v for %s", i, v, loc)
			}
		}
	}
}

func TestAtomicsAreAtomic(t *testing.T) {
	// Two increments on the same counter must never be lost.
	test := litmus.NewTest("inc2").
		Global("c", 0).
		Thread("atom.add r0,[c],1").
		Thread("atom.add r1,[c],1").
		InterCTA().
		Exists("c=2").
		MustBuild()
	for i := 0; i < 1000; i++ {
		res, err := Run(test, chip.GTXTitan, chip.Default(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := res.State.Mem("c"); v != 2 {
			t.Fatalf("lost update: c = %d at seed %d", v, i)
		}
	}
}

func TestCASMutualExclusion(t *testing.T) {
	// Competing CAS(0->1): exactly one winner, every run, on every chip.
	test := litmus.NewTest("cas2").
		Global("c", 0).
		Thread("atom.cas r0,[c],0,1").
		Thread("atom.cas r1,[c],0,1").
		InterCTA().
		Exists("0:r0=0 /\\ 1:r1=0").
		MustBuild()
	for _, p := range chip.All() {
		for i := 0; i < 300; i++ {
			res, err := Run(test, p, chip.Default(), int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if test.Exists.Eval(res.State) {
				t.Fatalf("both CAS won on %s seed %d", p.ShortName, i)
			}
		}
	}
}

// TestSCPerLocationHolds: no simulated chip may violate coherence idioms
// the paper never observed broken: coWR (read own overwritten value) and
// coWW (same-location writes reorder).
func TestSCPerLocationHolds(t *testing.T) {
	coWR := litmus.NewTest("coWR").
		Global("x", 0).
		Thread("st.cg [x],1", "ld.cg r1,[x]").
		InterCTA().
		Exists("0:r1=0").
		MustBuild()
	coWW := litmus.NewTest("coWW").
		Global("x", 0).
		Thread("st.cg [x],1", "st.cg [x],2").
		InterCTA().
		Exists("x=1").
		MustBuild()
	for _, p := range []*chip.Profile{chip.GTXTitan, chip.TeslaC2075, chip.HD7970} {
		if w := countWeak(t, coWR, p, chip.Default(), 2000); w != 0 {
			t.Errorf("%s: coWR violated %d times", p.ShortName, w)
		}
		if w := countWeak(t, coWW, p, chip.Default(), 2000); w != 0 {
			t.Errorf("%s: coWW violated %d times", p.ShortName, w)
		}
	}
}

func TestSharedAcrossCTAsRejected(t *testing.T) {
	_, err := litmus.NewTest("bad-shared").
		SharedLoc("x", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]").
		InterCTA().
		Exists("1:r1=1").
		Build()
	if err == nil {
		t.Error("shared location across CTAs must fail validation")
	}
}

func TestIncantationMultipliers(t *testing.T) {
	// Bank conflicts alone expose nothing on Nvidia (Table 6 column 5).
	m := chip.GTXTitan.Multiplier(chip.Inter, chip.Incant{BankConflicts: true})
	if m != 0 {
		t.Errorf("Titan inter multiplier with bank conflicts alone = %v, want 0", m)
	}
	// Memory stress + sync + rand is the strongest inter combination.
	best := chip.GTXTitan.Multiplier(chip.Inter, chip.Default())
	all := chip.GTXTitan.Multiplier(chip.Inter, chip.Incant{MemStress: true, BankConflicts: true, ThreadSync: true, ThreadRand: true})
	if all >= best {
		t.Errorf("bank conflicts must depress Titan inter rates: %v vs %v", all, best)
	}
}

// TestMachineReuseMatchesRun pins that one machine reused across seeds
// gives every iteration exactly the final state and ticks of a one-shot
// Run, and that the machine's reused final state, read as a litmus.State,
// agrees with Run's. The machine alternates the longest and shortest
// remaining runs, so a reseed after many draws is followed by one after few
// and the other way round.
func TestMachineReuseMatchesRun(t *testing.T) {
	const seeds = 60
	for _, test := range append(litmus.PaperTests(), guardedSharedTest()) {
		for _, p := range []*chip.Profile{chip.GTXTitan, chip.TeslaC2075, chip.HD7970} {
			c, err := Compile(test, litmus.NewSlots(test), p, chip.Default())
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*Result, seeds)
			byTicks := make([]int64, seeds)
			for seed := range refs {
				if refs[seed], err = Run(test, p, chip.Default(), int64(seed)); err != nil {
					t.Fatal(err)
				}
				byTicks[seed] = int64(seed)
			}
			sort.SliceStable(byTicks, func(i, j int) bool { return refs[byTicks[i]].Ticks > refs[byTicks[j]].Ticks })
			m := c.NewMachine()
			for i := 0; i < seeds; i++ {
				seed := byTicks[i/2]
				if i%2 == 1 {
					seed = byTicks[seeds-1-i/2]
				}
				ref := refs[seed]
				ticks, err := m.Run(seed)
				if err != nil {
					t.Fatal(err)
				}
				if ticks != ref.Ticks || !sameFinal(m.Final(), ref.State) {
					t.Fatalf("%s on %s seed %d: reused machine diverged from Run", test.Name, p.ShortName, seed)
				}
				for _, a := range litmus.CondAtoms(test.Exists) {
					if a.Eval(m.Final()) != a.Eval(ref.State) {
						t.Fatalf("%s on %s seed %d: %s evaluates differently on the machine", test.Name, p.ShortName, seed, a)
					}
				}
			}
		}
	}
}

// sameFinal reports whether two final states of one test hold the same
// value and presence in every slot.
func sameFinal(a, b *litmus.Final) bool {
	if a.Slots().Len() != b.Slots().Len() {
		return false
	}
	for i := 0; i < a.Slots().Len(); i++ {
		av, aok := a.At(i)
		if bv, bok := b.At(i); av != bv || aok != bok {
			return false
		}
	}
	return true
}

// guardedSharedTest has a shared-memory location one thread stores to
// through an address register, and a condition register written only
// behind a predicate.
func guardedSharedTest() *litmus.Test {
	return litmus.MustParse(`GPU_PTX guarded-shared
{0:.reg .b64 r5 = s;}
 T0              | T1              ;
 st.cg [r5],1    | ld.cg r2,[s]    ;
 st.cg [x],1     | ld.cg r0,[x]    ;
                 | setp.eq p1,r0,1 ;
                 | @p1 mov r1,7    ;
ScopeTree(grid(cta(warp T0) (warp T1)))
s: shared, x: global
exists (1:r1=7 /\ s=1)
`)
}
