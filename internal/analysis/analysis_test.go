package analysis

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// prefilterTest is Prefilter on t's enumeration under axiom.DefaultOpts,
// or Unknown when the enumerator cannot prepare t: core.Model.Prefilter's
// answer.
func prefilterTest(t *litmus.Test, p Policy) Result {
	en, err := axiom.Prepare(t, axiom.DefaultOpts())
	if err != nil {
		return Result{}
	}
	return Prefilter(en, p)
}

func hasCode(ds []Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func diagWith(ds []Diagnostic, code, substr string) *Diagnostic {
	for i, d := range ds {
		if d.Code == code && strings.Contains(d.Message, substr) {
			return &ds[i]
		}
	}
	return nil
}

// TestAnalyzeBrokenIdiom pins the acceptance-criterion diagnostic: the
// paper's mp-L1+membar.ctas guards inter-CTA message passing with a
// CTA-scoped fence, and gpulint must call that out as a scope mismatch on
// racy communication.
func TestAnalyzeBrokenIdiom(t *testing.T) {
	r := Analyze(litmus.MPL1(litmus.FenceCTA))
	if !hasCode(r.Diagnostics, CodeRace) {
		t.Errorf("mp-L1+membar.ctas: no race diagnostic: %v", r.Diagnostics)
	}
	d := diagWith(r.Diagnostics, CodeScopeMismatch, "too narrow for inter-CTA")
	if d == nil {
		t.Fatalf("mp-L1+membar.ctas: no scope-mismatch diagnostic: %v", r.Diagnostics)
	}
	if d.Severity != "warning" {
		t.Errorf("scope-mismatch severity = %s, want warning", d.Severity)
	}
	if r.Static["ptx"] != "unknown" || r.Static["sc"] != "forbidden" || r.Static["rmo"] != "forbidden" || r.Static["op"] != "forbidden" {
		t.Errorf("mp-L1+membar.ctas static verdicts = %v", r.Static)
	}
}

// TestAnalyzeUnfencedMP: plain message passing with no fences at all is a
// critical cycle, not a scope mismatch.
func TestAnalyzeUnfencedMP(t *testing.T) {
	r := Analyze(litmus.MP(litmus.NoFence))
	if !hasCode(r.Diagnostics, CodeCriticalCycle) {
		t.Errorf("mp: no critical-cycle diagnostic: %v", r.Diagnostics)
	}
	if hasCode(r.Diagnostics, CodeScopeMismatch) {
		t.Errorf("mp: unexpected scope-mismatch (there are no fences): %v", r.Diagnostics)
	}
	if !hasCode(r.Diagnostics, CodeRace) {
		t.Errorf("mp: no race diagnostic: %v", r.Diagnostics)
	}
}

// TestAnalyzeProperlyFencedMP: gl fences on both sides order the mp cycle,
// so neither cycle diagnostic fires (the races remain, informationally).
func TestAnalyzeProperlyFencedMP(t *testing.T) {
	r := Analyze(litmus.MP(litmus.FenceGL))
	if hasCode(r.Diagnostics, CodeCriticalCycle) || hasCode(r.Diagnostics, CodeScopeMismatch) {
		t.Errorf("mp+membar.gls: unexpected cycle diagnostics: %v", r.Diagnostics)
	}
}

// TestLintUnusedRegister: an explicitly declared address register no
// instruction or condition atom touches.
func TestLintUnusedRegister(t *testing.T) {
	tst := litmus.NewTest("unused").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]").
		AddrReg(0, "r9", "x").
		Exists("1:r1=0").
		MustBuild()
	r := Analyze(tst)
	d := diagWith(r.Diagnostics, CodeUnusedReg, "r9")
	if d == nil {
		t.Fatalf("no unused-register diagnostic for r9: %v", r.Diagnostics)
	}
	if d.Thread != 0 {
		t.Errorf("unused-register thread = %d, want 0", d.Thread)
	}
}

// TestLintDeadWrite: a location that is stored to but never loaded and
// absent from the condition.
func TestLintDeadWrite(t *testing.T) {
	tst := litmus.NewTest("dead").
		Global("x", 0).Global("z", 0).
		Thread("st.cg [z],1", "st.cg [x],1").
		Thread("ld.cg r1,[x]").
		Exists("1:r1=1").
		MustBuild()
	r := Analyze(tst)
	if diagWith(r.Diagnostics, CodeDeadWrite, "z") == nil {
		t.Errorf("no dead-write diagnostic for z: %v", r.Diagnostics)
	}
	if diagWith(r.Diagnostics, CodeDeadWrite, "x is written") != nil {
		t.Errorf("x is read; it must not be flagged dead: %v", r.Diagnostics)
	}
}

// TestLintRedundantFences: fences with nothing to order on one side, and
// back-to-back fences.
func TestLintRedundantFences(t *testing.T) {
	tst := litmus.NewTest("fences").
		Global("x", 0).
		Thread("membar.gl", "st.cg [x],1", "membar.cta", "membar.gl").
		Thread("ld.cg r1,[x]").
		Exists("1:r1=1").
		MustBuild()
	r := Analyze(tst)
	if diagWith(r.Diagnostics, CodeRedundantBar, "no memory access before") == nil {
		t.Errorf("leading fence not flagged: %v", r.Diagnostics)
	}
	if diagWith(r.Diagnostics, CodeRedundantBar, "no memory access after") == nil {
		t.Errorf("trailing fence not flagged: %v", r.Diagnostics)
	}
	if diagWith(r.Diagnostics, CodeRedundantBar, "adjacent") == nil {
		t.Errorf("adjacent fences not flagged: %v", r.Diagnostics)
	}
}

// TestLintUnsatCond: a condition requiring a value no write produces.
func TestLintUnsatCond(t *testing.T) {
	tst := litmus.NewTest("unsat").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]").
		Exists("1:r1=5").
		MustBuild()
	r := Analyze(tst)
	d := diagWith(r.Diagnostics, CodeUnsatCond, "unsatisfiable")
	if d == nil {
		t.Fatalf("no unsat-condition diagnostic: %v", r.Diagnostics)
	}
	if d.Severity != "warning" {
		t.Errorf("unsat-condition severity = %s", d.Severity)
	}
	// Unsatisfiability is model-independent: even PolicyNone decides it.
	if res := prefilterTest(tst, PolicyNone); res.Verdict != Forbidden {
		t.Errorf("Prefilter(unsat, PolicyNone) = %v", res)
	}
}

// TestPrefilterAllowed: a condition that holds in every execution is
// Allowed under builtin policies but Unknown under PolicyNone (which may
// not assume an SC interleaving is allowed).
func TestPrefilterAllowed(t *testing.T) {
	tst := litmus.NewTest("taut").
		Global("x", 0).
		Thread("st.cg [x],1").
		Exists("x=1").
		MustBuild()
	if res := prefilterTest(tst, PolicyScoped); res.Verdict != Allowed {
		t.Errorf("Prefilter(taut, scoped) = %v, want allowed", res)
	}
	if res := prefilterTest(tst, PolicyNone); res.Verdict != Unknown {
		t.Errorf("Prefilter(taut, none) = %v, want unknown", res)
	}
}

// TestPrefilterForcedCycleReason: the forbidden reason names the forced
// communication edges so diagnoses are actionable.
func TestPrefilterForcedCycleReason(t *testing.T) {
	res := prefilterTest(litmus.MP(litmus.FenceGL), PolicyScoped)
	if res.Verdict != Forbidden {
		t.Fatalf("Prefilter(mp+membar.gls, scoped) = %v, want forbidden", res)
	}
	if !strings.Contains(res.Reason, "forced cycle") || !strings.Contains(res.Reason, "rf") {
		t.Errorf("reason %q does not describe the cycle", res.Reason)
	}
}

// TestAnalyzeDeterministic: two runs over the same test yield identical
// reports (diagnostic order included) — the gpulint goldens depend on it.
func TestAnalyzeDeterministic(t *testing.T) {
	for _, tst := range litmus.PaperTests() {
		a, b := Analyze(tst), Analyze(tst)
		if len(a.Diagnostics) != len(b.Diagnostics) {
			t.Fatalf("%s: diagnostic count differs between runs", tst.Name)
		}
		for i := range a.Diagnostics {
			if a.Diagnostics[i] != b.Diagnostics[i] {
				t.Fatalf("%s: diagnostic %d differs: %v vs %v", tst.Name, i, a.Diagnostics[i], b.Diagnostics[i])
			}
		}
		for k, v := range a.Static {
			if b.Static[k] != v {
				t.Fatalf("%s: static verdict for %s differs", tst.Name, k)
			}
		}
	}
}

// TestVerdictStrings pins the wire form of the verdict and policy names.
func TestVerdictStrings(t *testing.T) {
	if Unknown.String() != "unknown" || Forbidden.String() != "forbidden" || Allowed.String() != "allowed" {
		t.Error("StaticVerdict strings changed")
	}
	if PolicyNone.String() != "none" || PolicySC.String() != "sc" || PolicyFence.String() != "fence" || PolicyScoped.String() != "scoped" {
		t.Error("Policy strings changed")
	}
}

// TestPrefilterAddressValues: the judge stores an address-valued register
// as its offset 0 and compares it as 0 in a compare-and-swap, so neither
// condition below is unsatisfiable.
func TestPrefilterAddressValues(t *testing.T) {
	for _, tst := range []*litmus.Test{
		litmus.NewTest("st-addr").Global("x", 0).Global("y", 0).
			Thread("st.cg [x],y").Exists("x=0").MustBuild(),
		litmus.NewTest("cas-addr").Global("x", 0).Global("y", 0).
			Thread("atom.cas.b32 r1,[x],y,1").Exists("x=1").MustBuild(),
	} {
		if res := prefilterTest(tst, PolicyNone); res.Verdict == Forbidden {
			t.Errorf("%s: flagged unsatisfiable: %+v", tst.Name, res)
		}
		if res := prefilterTest(tst, PolicySC); res.Verdict == Forbidden {
			t.Errorf("%s: Prefilter(sc) = %+v", tst.Name, res)
		}
	}
}
