package core

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// builtinModels returns the four builtin models, freshly compiled.
func builtinModels() []*Model {
	return []*Model{PTX(), SC(), RMO(), SorensenOp()}
}

// checkStaticAgainstJudge runs the prefilter and, when it decides, the
// full enumeration, and fails on any disagreement — the soundness
// contract: Forbidden ⇒ zero witnesses, Allowed ⇒ at least one.
func checkStaticAgainstJudge(t *testing.T, m *Model, tst *litmus.Test) (decided bool) {
	t.Helper()
	res := m.Prefilter(tst)
	if res.Verdict == analysis.Unknown {
		return false
	}
	v, err := Judge(m, tst)
	if err != nil {
		t.Fatalf("%s under %s: judge: %v", tst.Name, m.Name, err)
	}
	wantObservable := res.Verdict == analysis.Allowed
	if v.Observable != wantObservable {
		t.Errorf("%s under %s: static verdict %s (%s) but enumeration says Witnesses=%d Observable=%v",
			tst.Name, m.Name, res.Verdict, res.Reason, v.Witnesses, v.Observable)
	}
	return true
}

// staticDecided holds each builtin model's prefilter to the judge on
// every test of corpus (checkStaticAgainstJudge) and returns how many
// (test, model) pairs it decided.
func staticDecided(t *testing.T, corpus []*litmus.Test) int {
	t.Helper()
	ms := builtinModels()
	decided := 0
	litmustest.Run(t, corpus, func(t *testing.T, tst *litmus.Test) {
		for _, m := range ms {
			if checkStaticAgainstJudge(t, m, tst) {
				decided++
			}
		}
	})
	return decided
}

// checkDecidedFloor fails when the analysis decides fewer cases of a
// corpus than floor, its count when the floor was set: a change that
// keeps every claim sound but stops making some is a precision loss.
func checkDecidedFloor(t *testing.T, decided, floor int) {
	t.Helper()
	if decided < floor {
		t.Errorf("%d decisions, fewer than the floor of %d", decided, floor)
	}
}

// TestStaticDifferentialPaperCorpus is the differential oracle over every
// paper test under every builtin model: a decided static verdict must
// agree with the full rf×co enumeration.
func TestStaticDifferentialPaperCorpus(t *testing.T) {
	decided := staticDecided(t, litmustest.Paper())
	t.Logf("static prefilter decided %d/%d paper-corpus (test, model) pairs", decided, 4*24)
	checkDecidedFloor(t, decided, 48)
}

// TestStaticDifferentialDiyCorpus extends the oracle over the 776 diy
// cycles: synthesized tests exercise dependency and fence coverage the
// hand-written corpus does not. Its floor counts the first 200 cycles,
// the corpus it was set on.
func TestStaticDifferentialDiyCorpus(t *testing.T) {
	cycles := litmustest.Cycles()
	first, rest := staticDecided(t, cycles[:200]), staticDecided(t, cycles[200:])
	t.Logf("static prefilter decided %d/%d diy-corpus (test, model) pairs, %d on the first 200 cycles", first+rest, 4*len(cycles), first)
	checkDecidedFloor(t, first, 745)
}

// TestStaticDifferentialRandomCorpus is the oracle over 120 seeded
// random tests: every decided verdict must match enumeration, across all
// builtin models.
func TestStaticDifferentialRandomCorpus(t *testing.T) {
	decided := staticDecided(t, litmustest.Random(120))
	t.Logf("static prefilter decided %d/%d random-corpus (test, model) pairs", decided, 4*120)
	checkDecidedFloor(t, decided, 340)
}

// TestPrefilterPaperExpectations pins the prefilter's verdicts on the
// idiom tests the paper names, so a regression that silently turns
// everything Unknown (sound but useless) is caught.
func TestPrefilterPaperExpectations(t *testing.T) {
	ptx, sc, rmo, op := PTX(), SC(), RMO(), SorensenOp()
	cases := []struct {
		model *Model
		test  *litmus.Test
		want  analysis.StaticVerdict
	}{
		// Fenced message passing across CTAs is forbidden by the PTX model.
		{ptx, litmus.MP(litmus.FenceGL), analysis.Forbidden},
		// CTA-scoped fences do not restore order across CTAs: the PTX model
		// still allows lb+membar.ctas (the paper's key unsoundness witness
		// for the operational model, which forbids it).
		{ptx, litmus.LB(litmus.FenceCTA), analysis.Unknown},
		{rmo, litmus.LB(litmus.FenceCTA), analysis.Forbidden},
		{op, litmus.LB(litmus.FenceCTA), analysis.Forbidden},
		// Any weak-behaviour test is forbidden under SC.
		{sc, litmus.MP(litmus.NoFence), analysis.Forbidden},
		{sc, litmus.CoRR(), analysis.Forbidden},
		// coRR's load-load hazard is allowed by the weak models (llh), so
		// the prefilter must not claim it.
		{ptx, litmus.CoRR(), analysis.Unknown},
	}
	for _, c := range cases {
		got := c.model.Prefilter(c.test)
		if got.Verdict != c.want {
			t.Errorf("Prefilter(%s, %s) = %s (%s), want %s", c.test.Name, c.model.Name, got.Verdict, got.Reason, c.want)
		}
	}
}

// TestJudgeStaticSkips checks the static path: a decided verdict skips
// enumeration and marks itself, the same whether the prefilter or
// StaticVerdict is asked, and an undecided one is judged from the same
// preparation with full counts.
func TestJudgeStaticSkips(t *testing.T) {
	ctx := context.Background()
	m := PTX()
	decided := litmus.MP(litmus.FenceGL)
	v, err := judgeStatic(ctx, m, decided, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.StaticSkipped || v.Observable || v.Candidates != 0 || v.StaticReason == "" {
		t.Errorf("static judge of mp+membar.gls = %+v, want static Never with a reason", v)
	}
	if s := v.String(); s != "Test mp+membar.gls: Never (static, enumeration skipped) under PTX" {
		t.Errorf("static verdict String = %q", s)
	}
	if res := m.Prefilter(decided); res.Verdict != analysis.Forbidden || res.Reason != v.StaticReason {
		t.Errorf("Prefilter(mp+membar.gls) = %+v, want the static verdict's %q", res, v.StaticReason)
	}

	undecided := litmus.MP(litmus.NoFence)
	v, err = judgeStatic(ctx, m, undecided, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := JudgeWith(ctx, m, undecided, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if v.StaticSkipped || !v.Observable || v.Candidates == 0 || v.Candidates != full.Candidates || v.Witnesses != full.Witnesses {
		t.Errorf("static judge of mp = %+v, want the enumerated %+v", v, full)
	}
}

// TestFencedStressStaticAgrees pins the benchmark shape behind
// BENCH_static.json: the writer-inflated fenced mp must be decided
// Forbidden statically at every size the benchmarks use, and the
// decision must agree with full enumeration.
func TestFencedStressStaticAgrees(t *testing.T) {
	m := PTX()
	for extra := 0; extra <= 3; extra++ {
		tst := litmustest.MPWriters(extra, true)
		sv, err := judgeStatic(context.Background(), m, tst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sv.StaticSkipped || sv.Observable {
			t.Fatalf("extra=%d: static verdict skipped=%v observable=%v, want a Forbidden skip",
				extra, sv.StaticSkipped, sv.Observable)
		}
		v, err := Judge(m, tst)
		if err != nil {
			t.Fatal(err)
		}
		if v.Observable != sv.Observable {
			t.Fatalf("extra=%d: enumeration observable=%v disagrees with static %v (%d candidates)",
				extra, v.Observable, sv.Observable, v.Candidates)
		}
	}
}
