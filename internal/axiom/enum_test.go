package axiom

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

func enumerate(t *testing.T, test *litmus.Test) []*Execution {
	t.Helper()
	execs, err := Enumerate(test, DefaultOpts())
	if err != nil {
		t.Fatalf("%s: %v", test.Name, err)
	}
	if len(execs) == 0 {
		t.Fatalf("%s: no candidate executions", test.Name)
	}
	return execs
}

// hasFinal reports whether some execution's final state satisfies the
// test's exists-condition.
func hasFinal(execs []*Execution, test *litmus.Test) bool {
	for _, x := range execs {
		if test.Exists.Eval(x.Final) {
			return true
		}
	}
	return false
}

func TestEnumerateMP(t *testing.T) {
	test := litmus.MP(litmus.NoFence)
	execs := enumerate(t, test)
	// T1's two loads each range over {0,1}: 4 path combos; rf forced by
	// values; one write per location so one co each.
	if len(execs) != 4 {
		t.Errorf("mp: %d executions, want 4", len(execs))
	}
	if !hasFinal(execs, test) {
		t.Error("mp: weak outcome candidate must exist (model decides allowed)")
	}
}

func TestEnumerateCoRR(t *testing.T) {
	test := litmus.CoRR()
	execs := enumerate(t, test)
	if len(execs) != 4 {
		t.Errorf("coRR: %d executions, want 4", len(execs))
	}
	if !hasFinal(execs, test) {
		t.Error("coRR: r1=1,r2=0 candidate must exist")
	}
}

func TestEnumerateSB(t *testing.T) {
	test := litmus.SBGlobal()
	execs := enumerate(t, test)
	// Each thread's load ranges over {0,1}: 4 combos; co per location has
	// one write; total 4.
	if len(execs) != 4 {
		t.Errorf("sb: %d executions, want 4", len(execs))
	}
	if !hasFinal(execs, test) {
		t.Error("sb: weak outcome candidate must exist")
	}
}

func TestEnumerateFig12SB(t *testing.T) {
	test := litmus.SB()
	execs := enumerate(t, test)
	if !hasFinal(execs, test) {
		t.Error("Fig. 12 sb: weak candidate must exist")
	}
	// Address registers resolve through declarations: check event
	// locations are x and y, not register names.
	for _, x := range execs {
		for _, ev := range x.Events {
			if ev.IsMem() && ev.Loc != "x" && ev.Loc != "y" {
				t.Fatalf("unexpected event location %q", ev.Loc)
			}
		}
	}
}

func TestEnumerateDlbLB(t *testing.T) {
	test := litmus.DlbLB(false)
	execs := enumerate(t, test)
	if !hasFinal(execs, test) {
		t.Error("dlb-lb: lb candidate (r0=1, r1=1) must exist")
	}
}

func TestEnumerateCasSL(t *testing.T) {
	test := litmus.CasSL(false)
	execs := enumerate(t, test)
	if !hasFinal(execs, test) {
		t.Error("cas-sl: stale-read candidate must exist")
	}
	// The mutex m is only written by atomics: RMW atomicity must hold in
	// every candidate — find an execution and check rmw pairs adjacency
	// was enforced (no candidate where both CAS and EXCH read the same
	// source yet both write).
	for _, x := range execs {
		if !x.RMW.IsEmpty() {
			return
		}
	}
	t.Error("cas-sl: expected executions with RMW pairs")
}

func TestRMWAtomicity(t *testing.T) {
	// Two competing CAS(0->1) on c: both cannot succeed.
	test := litmus.NewTest("cas-race").
		Global("c", 0).
		Thread("atom.cas r0,[c],0,1").
		Thread("atom.cas r1,[c],0,1").
		InterCTA().
		Exists("0:r0=0 /\\ 1:r1=0").
		MustBuild()
	execs := enumerate(t, test)
	if hasFinal(execs, test) {
		t.Error("both CAS succeeding violates atomicity")
	}
	// But exactly one succeeding is a candidate.
	c, err := litmus.ParseCond("0:r0=0 /\\ 1:r1=1")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range execs {
		if c.Eval(x.Final) {
			found = true
		}
	}
	if !found {
		t.Error("one-winner candidate must exist")
	}
}

func TestDependenciesAddr(t *testing.T) {
	// Fig. 13b: and-based address dependency.
	test := litmus.NewTest("addr-dep").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1").
		ThreadProg(mustProg(t,
			"ld.cg r1,[r0]",
			"and.b32 r2,r1,0x80000000",
			"cvt.u64.u32 r3,r2",
			"add r4,r4,r3",
			"ld.cg r5,[r4]",
		)).
		AddrReg(1, "r0", "x").
		AddrReg(1, "r4", "y").
		Scope(litmus.InterCTA(0, 1)).
		Exists("1:r1=1 /\\ 1:r5=0").
		MustBuild()
	execs := enumerate(t, test)
	foundAddr := false
	for _, x := range execs {
		x.Addr.Each(func(a, b EventID) {
			ea, eb := x.Ev(a), x.Ev(b)
			if ea.Kind == KRead && ea.Loc == "x" && eb.Kind == KRead && eb.Loc == "y" {
				foundAddr = true
			}
		})
	}
	if !foundAddr {
		t.Error("and-based scheme must produce an address dependency")
	}
}

func mustProg(t *testing.T, lines ...string) ptx.Program {
	t.Helper()
	var prog ptx.Program
	for _, l := range lines {
		inst, err := ptx.ParseInstr(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog = append(prog, inst)
	}
	return prog
}

func TestDependenciesCtrl(t *testing.T) {
	test := litmus.DlbMP(true)
	execs := enumerate(t, test)
	foundCtrl := false
	for _, x := range execs {
		x.Ctrl.Each(func(a, b EventID) {
			ea, eb := x.Ev(a), x.Ev(b)
			if ea.Kind == KRead && ea.Loc == "t" && eb.Kind == KRead && eb.Loc == "d" {
				foundCtrl = true
			}
		})
	}
	if !foundCtrl {
		t.Error("guarded load must be control-dependent on the flag load")
	}
}

func TestDependenciesData(t *testing.T) {
	// T1 stores the loaded value +0 — a data dependency.
	test := litmus.NewTest("data-dep").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]", "add r2,r1,0", "st.cg [y],r2").
		InterCTA().
		Exists("1:r1=1").
		MustBuild()
	execs := enumerate(t, test)
	found := false
	for _, x := range execs {
		x.Data.Each(func(a, b EventID) {
			if x.Ev(a).Kind == KRead && x.Ev(b).Kind == KWrite && x.Ev(b).Loc == "y" {
				found = true
			}
		})
	}
	if !found {
		t.Error("store of computed value must be data-dependent on the load")
	}
}

func TestMembarRelations(t *testing.T) {
	test := litmus.MPL1(litmus.FenceGL)
	execs := enumerate(t, test)
	x := execs[0]
	gl := x.Membar[ptx.ScopeGL]
	if gl.IsEmpty() {
		t.Fatal("membar.gl relation empty")
	}
	// Each scope's relation holds only its own fences: the model unions
	// the scopes itself.
	if !x.Membar[ptx.ScopeCTA].IsEmpty() || !x.Membar[ptx.ScopeSys].IsEmpty() {
		t.Error("no membar.cta or membar.sys in this test")
	}
}

func TestScopeRelations(t *testing.T) {
	intra := enumerate(t, litmus.CoRR())[0]
	inter := enumerate(t, litmus.MP(litmus.NoFence))[0]

	ctaIntra := intra.ScopeRel(ptx.ScopeCTA)
	// All events of an intra-CTA test relate under cta.
	n := len(intra.Events)
	if ctaIntra.Size() != n*(n-1) {
		t.Errorf("intra-CTA cta relation size = %d, want %d", ctaIntra.Size(), n*(n-1))
	}
	// In an inter-CTA test, only same-thread pairs relate under cta.
	ctaInter := inter.ScopeRel(ptx.ScopeCTA)
	ctaInter.Each(func(a, b EventID) {
		if inter.Ev(a).Thread != inter.Ev(b).Thread {
			t.Errorf("inter-CTA events %v and %v must not be cta-related", a, b)
		}
	})
	// sys relates everything.
	sys := inter.ScopeRel(ptx.ScopeSys)
	m := len(inter.Events)
	if sys.Size() != m*(m-1) {
		t.Errorf("sys relation size = %d, want %d", sys.Size(), m*(m-1))
	}
}

func TestFRDerivation(t *testing.T) {
	test := litmus.CoRR()
	execs := enumerate(t, test)
	// In the weak execution (r1=1 from the store, r2=0 from init), fr
	// relates the second read to the store.
	for _, x := range execs {
		if !test.Exists.Eval(x.Final) {
			continue
		}
		fr := frOf(x)
		found := false
		fr.Each(func(r, w EventID) {
			if x.Ev(r).Kind == KRead && x.Ev(r).Val == 0 && x.Ev(w).Kind == KWrite {
				found = true
			}
		})
		if !found {
			t.Error("init-reading load must be fr-before the store")
		}
		return
	}
	t.Fatal("weak coRR candidate not found")
}

func TestFinalMemoryState(t *testing.T) {
	test := litmus.NewTest("final-mem").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		InterCTA().
		Exists("x=2").
		MustBuild()
	execs := enumerate(t, test)
	// Two co orders: final x=1 or x=2.
	finals := make(map[int64]bool)
	for _, x := range execs {
		v, ok := x.Final.Mem("x")
		if !ok {
			t.Fatal("final memory missing x")
		}
		finals[v] = true
	}
	if !finals[1] || !finals[2] || len(finals) != 2 {
		t.Errorf("final x values = %v, want {1,2}", finals)
	}
}

func TestLoopingSpinBounded(t *testing.T) {
	// A bounded spin: retry CAS until success, limited by the unrolling
	// bound. The enumerator must terminate with an error rather than hang.
	test := litmus.NewTest("spin").
		Global("m", 1).
		Thread("L:", "atom.cas r0,[m],0,1", "setp.eq p,r0,0", "@!p bra L").
		IntraCTA().
		Exists("0:r0=0").
		MustBuild()
	_, err := Enumerate(test, Opts{MaxSteps: 40, MaxPaths: 64, MaxValues: 8, MaxExecs: 1024})
	if err == nil {
		t.Log("bounded spin enumerated (lock never released: all paths spin)")
	}
	// Either outcome is acceptable as long as we terminate; reaching here
	// is the test.
}

func TestEnumerateAllPaperTests(t *testing.T) {
	for _, test := range litmus.PaperTests() {
		execs, err := Enumerate(test, DefaultOpts())
		if err != nil {
			t.Errorf("%s: %v", test.Name, err)
			continue
		}
		if len(execs) == 0 {
			t.Errorf("%s: no candidates", test.Name)
		}
		// The weak outcome of every paper test must at least be a
		// *candidate* (hardware observed it; the model decides whether
		// it is allowed).
		if !hasFinal(execs, test) {
			t.Errorf("%s: observed outcome is not even a candidate", test.Name)
		}
	}
}

func TestOptsFieldDefaults(t *testing.T) {
	// Regression: Opts used to be replaced wholesale by DefaultOpts when
	// MaxSteps was zero, silently discarding caller-set bounds — e.g.
	// Opts{MaxExecs: 3} enumerated up to 1<<20 executions. Each zero field
	// now defaults individually.
	test := litmus.MP(litmus.NoFence) // exactly 4 candidate executions
	if _, err := Enumerate(test, Opts{MaxExecs: 3}); err == nil {
		t.Error("MaxExecs=3 must fail on a 4-execution test (bound was discarded)")
	}
	execs, err := Enumerate(test, Opts{MaxExecs: 4})
	if err != nil {
		t.Fatalf("MaxExecs=4 must admit exactly 4 executions: %v", err)
	}
	if len(execs) != 4 {
		t.Errorf("got %d executions, want 4", len(execs))
	}
	// A single non-zero field must leave the other bounds at their
	// defaults, not at zero (zero MaxPaths would reject every path).
	if _, err := Enumerate(test, Opts{MaxValues: 8}); err != nil {
		t.Errorf("defaulted bounds must admit mp: %v", err)
	}
}

// co3Test has three solo writers of distinct values to one location and
// no reads: one path combination with 3! = 6 coherence orders.
func co3Test() *litmus.Test {
	return litmus.NewTest("co3").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		Thread("st.cg [x],3").
		InterCTA().
		Exists("x=3").
		MustBuild()
}

func TestMaxExecsExactBound(t *testing.T) {
	// co3 assembles 3! = 6 coherence orders from one path combination. The
	// bound used to be checked only after the whole batch was appended,
	// overshooting it; streaming enforces it exactly: at most MaxExecs
	// executions are yielded, and the error fires the moment one more
	// would be produced.
	test := co3Test()
	all, err := Enumerate(test, Opts{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("co3: %d executions, want 6", len(all))
	}
	en, err := Prepare(test, Opts{MaxExecs: 4, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = en.StreamCtx(context.Background(), func(*Execution) error {
		yields++
		return nil
	})
	if err == nil {
		t.Fatal("MaxExecs=4 must fail on a 6-execution test")
	}
	if yields != 4 {
		t.Errorf("yielded %d executions before the bound fired, want exactly 4", yields)
	}
	if _, err := Enumerate(test, Opts{MaxExecs: 6, Exhaustive: true}); err != nil {
		t.Errorf("MaxExecs=6 must admit exactly 6 executions: %v", err)
	}

	// Pruned, co3 is 3 representatives of weight 2, and the bound counts
	// weight: 5 fails (on the third representative), 6 admits.
	if _, err := Enumerate(test, Opts{MaxExecs: 5}); err == nil {
		t.Error("pruned MaxExecs=5 must fail on a 6-execution test")
	}
	pruned, err := Enumerate(test, Opts{MaxExecs: 6})
	if err != nil {
		t.Errorf("pruned MaxExecs=6 must admit all 6 executions: %v", err)
	}
	if len(pruned) != 3 {
		t.Errorf("pruned co3: %d representatives, want 3", len(pruned))
	}
}

func TestEnumerateStreamMatchesEnumerate(t *testing.T) {
	// Differential: each execution as the stream yields it must equal the
	// one Enumerate collected, in the same order, for every paper test —
	// production never mutates an execution it has already yielded.
	for _, test := range litmus.PaperTests() {
		collected, err := Enumerate(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		i := 0
		err = en.StreamCtx(context.Background(), func(x *Execution) error {
			if i >= len(collected) {
				t.Fatalf("%s: stream yields more than the %d collected executions", test.Name, len(collected))
			}
			want := collected[i]
			if x.String() != want.String() {
				t.Fatalf("%s: execution %d differs:\n%s\nvs\n%s", test.Name, i, x, want)
			}
			for _, loc := range test.Locations() {
				got, _ := x.Final.Mem(loc)
				exp, _ := want.Final.Mem(loc)
				if got != exp {
					t.Fatalf("%s: execution %d: final %s = %d, want %d", test.Name, i, loc, got, exp)
				}
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if i != len(collected) {
			t.Fatalf("%s: stream yielded %d executions, Enumerate returned %d", test.Name, i, len(collected))
		}
	}
}

func TestEnumerateStreamEarlyStop(t *testing.T) {
	stop := fmt.Errorf("stop after two")
	en, err := Prepare(litmus.MP(litmus.NoFence), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = en.StreamCtx(context.Background(), func(*Execution) error {
		yields++
		if yields == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("yield error must propagate verbatim, got %v", err)
	}
	if yields != 2 {
		t.Errorf("enumeration must stop at the failing yield, got %d yields", yields)
	}
}

func TestPoTotalPerThread(t *testing.T) {
	x := enumerate(t, litmus.MP(litmus.NoFence))[0]
	for _, a := range x.Events {
		for _, b := range x.Events {
			if a.Thread == b.Thread && a.PoIdx < b.PoIdx && !has(x.PO, a.ID, b.ID) {
				t.Errorf("po missing (%v,%v)", a.ID, b.ID)
			}
			if a.Thread != b.Thread && has(x.PO, a.ID, b.ID) {
				t.Errorf("po must not cross threads: (%v,%v)", a.ID, b.ID)
			}
		}
	}
}
