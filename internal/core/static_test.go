package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
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

// TestStaticDifferentialPaperCorpus is the differential oracle over every
// paper test under every builtin model: a decided static verdict must
// agree with the full rf×co enumeration.
func TestStaticDifferentialPaperCorpus(t *testing.T) {
	decided, total := 0, 0
	for _, m := range builtinModels() {
		for _, tst := range litmus.PaperTests() {
			total++
			if checkStaticAgainstJudge(t, m, tst) {
				decided++
			}
		}
	}
	t.Logf("static prefilter decided %d/%d paper-corpus (test, model) pairs", decided, total)
	if decided == 0 {
		t.Error("prefilter decided nothing on the paper corpus; expected at least the fenced mp/dlb variants")
	}
}

// TestStaticDifferentialDiyCorpus extends the oracle over the diy cycle
// corpus: synthesized tests exercise dependency and fence coverage the
// hand-written corpus does not.
func TestStaticDifferentialDiyCorpus(t *testing.T) {
	gen := diy.Generate(diy.DefaultPool(), 4, 200)
	if len(gen) == 0 {
		t.Fatal("diy.Generate returned no tests")
	}
	decided, total := 0, 0
	for _, m := range builtinModels() {
		for _, gt := range gen {
			total++
			if checkStaticAgainstJudge(t, m, gt.Test) {
				decided++
			}
		}
	}
	t.Logf("static prefilter decided %d/%d diy-corpus (test, model) pairs", decided, total)
}

// randTest synthesizes a small random litmus test. The generator is
// seeded, so the corpus is identical on every run; it intentionally
// produces guarded instructions, atomics, fences at every scope, and
// conditions with negations and disjunctions to push the prefilter's
// soundness guards.
func randTest(r *rand.Rand, idx int) *litmus.Test {
	locs := []string{"x", "y", "z"}
	nThreads := 2 + r.Intn(2)
	b := litmus.NewTest(fmt.Sprintf("rand-%03d", idx))
	for _, l := range locs {
		b.Global(l, int64(r.Intn(2)))
	}
	type readRec struct {
		tid int
		reg string
	}
	var reads []readRec
	for tid := 0; tid < nThreads; tid++ {
		var prog []string
		nInstr := 1 + r.Intn(4)
		reg := 0
		newReg := func() string { reg++; return fmt.Sprintf("r%d", reg) }
		for i := 0; i < nInstr; i++ {
			loc := locs[r.Intn(len(locs))]
			guard := ""
			if r.Intn(6) == 0 && len(reads) > 0 && reads[len(reads)-1].tid == tid {
				guard = fmt.Sprintf("@%s ", reads[len(reads)-1].reg)
			}
			switch r.Intn(8) {
			case 0, 1, 2:
				prog = append(prog, fmt.Sprintf("%sst.cg [%s],%d", guard, loc, r.Intn(3)))
			case 3, 4, 5:
				rr := newReg()
				prog = append(prog, fmt.Sprintf("%sld.cg %s,[%s]", guard, rr, loc))
				reads = append(reads, readRec{tid, rr})
			case 6:
				prog = append(prog, []string{"membar.cta", "membar.gl", "membar.sys"}[r.Intn(3)])
			case 7:
				rr := newReg()
				switch r.Intn(3) {
				case 0:
					prog = append(prog, fmt.Sprintf("atom.exch.b32 %s,[%s],%d", rr, loc, r.Intn(3)))
				case 1:
					prog = append(prog, fmt.Sprintf("atom.add.s32 %s,[%s],%d", rr, loc, 1+r.Intn(2)))
				case 2:
					prog = append(prog, fmt.Sprintf("atom.cas.b32 %s,[%s],%d,%d", rr, loc, r.Intn(2), r.Intn(3)))
				}
				reads = append(reads, readRec{tid, rr})
			}
		}
		b.Thread(prog...)
	}
	if r.Intn(2) == 0 {
		b.InterCTA()
	} else {
		b.IntraCTA()
	}
	// Condition: a random tree of register/memory atoms.
	var atom func() string
	atom = func() string {
		if len(reads) > 0 && r.Intn(3) > 0 {
			rd := reads[r.Intn(len(reads))]
			return fmt.Sprintf("%d:%s=%d", rd.tid, rd.reg, r.Intn(3))
		}
		return fmt.Sprintf("%s=%d", locs[r.Intn(len(locs))], r.Intn(3))
	}
	cond := atom()
	for i := 0; i < r.Intn(3); i++ {
		op := []string{" /\\ ", " \\/ "}[r.Intn(2)]
		next := atom()
		if r.Intn(4) == 0 {
			next = "~" + next
		}
		cond = cond + op + next
	}
	b.Exists(cond)
	tst, err := b.Build()
	if err != nil {
		return nil // some random programs are invalid; skip them
	}
	return tst
}

// TestStaticDifferentialRandomCorpus is the oracle over a seeded
// randomized corpus (PR 7 methodology): every decided verdict must match
// enumeration, across all builtin models.
func TestStaticDifferentialRandomCorpus(t *testing.T) {
	r := rand.New(rand.NewSource(0x57a71c))
	var corpus []*litmus.Test
	for i := 0; len(corpus) < 120 && i < 1000; i++ {
		if tst := randTest(r, i); tst != nil {
			corpus = append(corpus, tst)
		}
	}
	if len(corpus) < 100 {
		t.Fatalf("random corpus too small: %d", len(corpus))
	}
	decided, total := 0, 0
	for _, m := range builtinModels() {
		for _, tst := range corpus {
			total++
			if checkStaticAgainstJudge(t, m, tst) {
				decided++
			}
		}
	}
	t.Logf("static prefilter decided %d/%d random-corpus (test, model) pairs", decided, total)
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

// TestJudgeStaticSkips checks the Opts.Static plumbing: a decided verdict
// skips enumeration and marks itself — also from a prepared enumeration,
// which is then never streamed — and an undecided one falls through to
// the ordinary judge with full counts.
func TestJudgeStaticSkips(t *testing.T) {
	m := PTX()
	decided := litmus.MP(litmus.FenceGL)
	v, err := JudgeWith(context.Background(), m, decided, Opts{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if !v.StaticSkipped || v.Observable || v.Candidates != 0 || v.StaticReason == "" {
		t.Errorf("static judge of mp+membar.gls = %+v, want static Never with a reason", v)
	}
	if s := v.String(); s != "Test mp+membar.gls: Never (static, enumeration skipped) under PTX" {
		t.Errorf("static verdict String = %q", s)
	}

	en, err := axiom.Prepare(decided, axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	pv, err := JudgeWith(context.Background(), m, decided, Opts{Static: true, Enum: en, Visit: func(int, *axiom.Execution, bool) error {
		visits++
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if *pv != *v || visits != 0 {
		t.Errorf("static judge from a prepared enumeration = %+v after %d visits, want %+v and none", pv, visits, v)
	}

	v, err = JudgeWith(context.Background(), m, litmus.MP(litmus.NoFence), Opts{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.StaticSkipped || !v.Observable || v.Candidates == 0 {
		t.Errorf("static judge of mp = %+v, want enumerated Sometimes", v)
	}
}

// TestFencedStressStaticAgrees pins the benchmark shape behind
// BENCH_static.json: the writer-inflated fenced mp must be decided
// Forbidden statically at every size the benchmarks use, and the
// decision must agree with full enumeration.
func TestFencedStressStaticAgrees(t *testing.T) {
	m := PTX()
	for extra := 0; extra <= 3; extra++ {
		tst := fencedStressTest(extra)
		sv, err := JudgeWith(context.Background(), m, tst, Opts{Static: true})
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
