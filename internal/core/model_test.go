package core

import (
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

func judge(t *testing.T, m *Model, test *litmus.Test) *Verdict {
	t.Helper()
	v, err := Judge(m, test)
	if err != nil {
		t.Fatalf("%s under %s: %v", test.Name, m.Name, err)
	}
	return v
}

// TestPTXVerdicts checks the model's verdict on the idioms whose status the
// paper states explicitly.
func TestPTXVerdicts(t *testing.T) {
	ptxModel := PTX()
	cases := []struct {
		test    *litmus.Test
		allowed bool
		why     string
	}{
		{litmus.CoRR(), true, "RMO relaxes SC-per-location for read-read pairs (Sec. 5.2.2)"},
		{litmus.MP(litmus.NoFence), true, "no fences: mp observable"},
		{litmus.MP(litmus.FenceGL), false, "membar.gl on both sides forbids inter-CTA mp (Fig. 14)"},
		{litmus.MP(litmus.FenceSys), false, "membar.sys is stronger than membar.gl"},
		{litmus.MP(litmus.FenceCTA), true, "membar.cta does not order across CTAs"},
		{litmus.SBGlobal(), true, "store buffering without fences"},
		{litmus.LB(litmus.NoFence), true, "load buffering without fences or deps"},
		{litmus.LB(litmus.FenceCTA), true, "lb+membar.ctas inter-CTA stays allowed: the key divergence from the operational model (Sec. 6)"},
		{litmus.LB(litmus.FenceGL), false, "membar.gl forbids inter-CTA lb"},
		{litmus.DlbLB(false), true, "Fig. 8 without fences"},
		{litmus.DlbLB(true), false, "Fig. 8 with membar.gl fences"},
		{litmus.CasSL(false), true, "Fig. 9 without fences: lock acquires yet reads stale data"},
		{litmus.CasSL(true), false, "Fig. 9 with fences"},
		{litmus.SlFuture(false), true, "Fig. 11 original code: future value readable"},
		{litmus.SlFuture(true), false, "Fig. 11 repaired code"},
		{litmus.DlbMP(false), true, "Fig. 7 without fences"},
		{litmus.DlbMP(true), false, "Fig. 7 with fences"},
	}
	for _, c := range cases {
		v := judge(t, ptxModel, c.test)
		if v.Observable != c.allowed {
			t.Errorf("%s: model says %v, paper says %v (%s)\n%v", c.test.Name, v.Observable, c.allowed, c.why, v)
		}
	}
}

// TestIntraCTAFences: within a CTA, membar.cta suffices to forbid mp.
func TestIntraCTAFences(t *testing.T) {
	test := litmus.NewTest("mp-intra+ctas").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "membar.cta", "st.cg [y],1").
		Thread("ld.cg r1,[y]", "membar.cta", "ld.cg r2,[x]").
		IntraCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
	v := judge(t, PTX(), test)
	if v.Observable {
		t.Error("intra-CTA mp with membar.cta fences must be forbidden")
	}

	// And without fences it stays allowed.
	v = judge(t, PTX(), litmus.NewTest("mp-intra").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "st.cg [y],1").
		Thread("ld.cg r1,[y]", "ld.cg r2,[x]").
		IntraCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild())
	if !v.Observable {
		t.Error("intra-CTA mp without fences must be allowed")
	}
}

// TestSCModel: sequential consistency forbids all four weak idioms.
func TestSCModel(t *testing.T) {
	sc := SC()
	for _, test := range []*litmus.Test{
		litmus.CoRR(), litmus.MP(litmus.NoFence), litmus.SBGlobal(), litmus.LB(litmus.NoFence),
	} {
		v := judge(t, sc, test)
		if v.Observable {
			t.Errorf("SC must forbid %s", test.Name)
		}
		if v.Allowed == 0 {
			t.Errorf("SC must allow some execution of %s", test.Name)
		}
	}
}

// TestSorensenUnsound reproduces Sec. 6: the operational model forbids
// inter-CTA lb+membar.ctas, which hardware exhibits — so the PTX model must
// allow it while the operational model must not.
func TestSorensenUnsound(t *testing.T) {
	test := litmus.LB(litmus.FenceCTA)
	if v := judge(t, SorensenOp(), test); v.Observable {
		t.Error("operational model should forbid lb+membar.ctas")
	}
	if v := judge(t, PTX(), test); !v.Observable {
		t.Error("PTX model must allow lb+membar.ctas (observed on Titan/GTX660)")
	}
}

// TestNoThinAir: lb with data dependencies on both sides is forbidden.
func TestNoThinAir(t *testing.T) {
	test := litmus.NewTest("lb+datas").
		Global("x", 0).Global("y", 0).
		Thread("ld.cg r1,[x]", "add r2,r1,0", "st.cg [y],r2").
		Thread("ld.cg r3,[y]", "add r4,r3,0", "st.cg [x],r4").
		InterCTA().
		Exists("0:r1=1 /\\ 1:r3=1").
		MustBuild()
	v := judge(t, PTX(), test)
	if v.Observable {
		t.Error("dependent lb (thin air) must be forbidden")
	}
}

// TestSCPerLocation: coWR (reading overwritten value of the same thread)
// must be forbidden even under RMO-llh.
func TestSCPerLocation(t *testing.T) {
	test := litmus.NewTest("coWR").
		Global("x", 0).
		Thread("st.cg [x],1", "ld.cg r1,[x]").
		Thread("st.cg [x],2").
		InterCTA().
		Exists("0:r1=0").
		MustBuild()
	v := judge(t, PTX(), test)
	if v.Observable {
		t.Error("a read po-after a same-location write must not see an older value")
	}
}

func TestRMOModel(t *testing.T) {
	rmo := RMO()
	// Plain RMO (fences at full strength) forbids fenced mp regardless of
	// scope and allows coRR.
	if v := judge(t, rmo, litmus.MP(litmus.FenceCTA)); v.Observable {
		t.Error("RMO treats every membar as a full fence")
	}
	if v := judge(t, rmo, litmus.CoRR()); !v.Observable {
		t.Error("RMO allows coRR")
	}
}

// TestCrossCheckAgreement: the .cat interpretation and the native Go twin
// must agree on every candidate execution of every covered paper test (D5).
func TestCrossCheckAgreement(t *testing.T) {
	m := PTX()
	for _, test := range litmus.PaperTests() {
		execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, x := range execs {
			if err := crossCheckPTX(m, x); err != nil {
				t.Errorf("%s: %v", test.Name, err)
				break
			}
		}
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		test *litmus.Test
		want bool
	}{
		{litmus.CoRR(), true},
		{litmus.MP(litmus.NoFence), true},
		{litmus.MPL1(litmus.NoFence), false},     // .ca loads
		{litmus.MPVolatile(), false},             // volatile + shared
		{litmus.CoRRL2L1(litmus.NoFence), false}, // mixed operators
		{litmus.DlbLB(false), true},              // atomics are a documented extension
		{litmus.SB(), false},                     // x in shared memory
	}
	for _, c := range cases {
		got, reason := Covers(c.test)
		if got != c.want {
			t.Errorf("Covers(%s) = %v (%s), want %v", c.test.Name, got, reason, c.want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	v := judge(t, PTX(), litmus.CoRR())
	s := v.String()
	if s == "" || v.Candidates == 0 {
		t.Errorf("verdict: %s", s)
	}
	if !v.Observable {
		t.Error("coRR must be observable")
	}
	if v.Witness == nil {
		t.Error("observable verdict must carry a witness")
	}
}
