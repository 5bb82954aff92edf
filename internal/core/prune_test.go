package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// symCoreTest is the symmetric judging shape: `writers` interchangeable
// solo writers of 1 plus two readers, every thread in its own CTA. The
// enumerator collapses the writers into one symmetry class of orbit size
// writers!, so verdicts exercise weighted counting on every path.
func symCoreTest(writers int) *litmus.Test {
	b := litmus.NewTest(fmt.Sprintf("sym-core-%dw", writers)).Global("x", 0)
	for i := 0; i < writers; i++ {
		b = b.Thread("st.cg [x],1")
	}
	b = b.Thread("ld.cg r0,[x]").Thread("ld.cg r0,[x]")
	return b.InterCTA().Exists(fmt.Sprintf("%d:r0=1", writers)).MustBuild()
}

// soloChunkTest is the chunked-driver shape: three writers of the initial
// value plus two readers. Reads can only ever see 0, so the test has
// exactly one path combination — combo fan-out is impossible — while its
// rf cross product spans four sources (init plus three interchangeable
// writers), which is what the chunk split fans out.
func soloChunkTest() *litmus.Test {
	return litmus.NewTest("solo-chunk").
		Global("x", 0).
		Thread("st.cg [x],0").
		Thread("st.cg [x],0").
		Thread("st.cg [x],0").
		Thread("ld.cg r0,[x]").
		Thread("ld.cg r0,[x]").
		InterCTA().
		Exists("3:r0=0").
		MustBuild()
}

// mpExtraTest is mp (membar.gl between each thread's accesses when fence
// is set) plus k extra pairs of solo writers of distinct values to x and
// y, the shape value-blind classes collapse: 36, 576 and 14,400
// candidates for k = 1, 2, 3, visited as 36, 484 and 5,476.
func mpExtraTest(k int, fence bool) *litmus.Test {
	name := fmt.Sprintf("mp+%dw", k)
	t0 := []string{"st.cg [x],1", "st.cg [y],1"}
	t1 := []string{"ld.cg r1,[y]", "ld.cg r2,[x]"}
	if fence {
		name = fmt.Sprintf("mp+membar.gl+%dw", k)
		t0 = []string{t0[0], "membar.gl", t0[1]}
		t1 = []string{t1[0], "membar.gl", t1[1]}
	}
	b := litmus.NewTest(name).Global("x", 0).Global("y", 0).Thread(t0...).Thread(t1...)
	for i := 0; i < k; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [x],%d", 2+i)).Thread(fmt.Sprintf("st.cg [y],%d", 2+i))
	}
	return b.InterCTA().Exists("1:r1=1 /\\ 1:r2=0").MustBuild()
}

// blindCoreTests are the value-blind judging shapes, one single-instruction
// thread per entry of each row's body: the co-last write differs in value
// from the other members; a same-value class sits beside distinct-value
// writers; a writer is read under some rf choices only; cache-operator and
// volatility mismatches; and a scope tree that splits a class (threads 0
// and 1 share a CTA with the last thread, a reader; every other thread has
// its own).
func blindCoreTests() []*litmus.Test {
	rows := []struct {
		name, exists string
		split        bool
		body         []string
	}{
		{"blind-co-last", "x=2 /\\ 3:r0=1", false,
			[]string{"st.cg [x],1", "st.cg [x],2", "st.cg [x],3", "ld.cg r0,[x]"}},
		{"blind-beside-same-value", "x=1 /\\ 4:r0=3", false,
			[]string{"st.cg [x],1", "st.cg [x],1", "st.cg [x],2", "st.cg [x],3", "ld.cg r0,[x]"}},
		{"blind-sometimes-read", "3:r0=2 /\\ 4:r0=0", false,
			[]string{"st.cg [x],1", "st.cg [x],2", "st.cg [x],3", "ld.cg r0,[x]", "ld.cg r0,[x]"}},
		{"blind-annotations", "x=4 /\\ 5:r0=2", false,
			[]string{"st.cg [x],1", "st.ca [x],2", "st.cg [x],3", "st.volatile [x],4", "st.cg [x],5", "ld.cg r0,[x]"}},
		{"blind-scope-split", "x=3 /\\ 4:r0=0", true,
			[]string{"st.cg [x],1", "st.cg [x],2", "st.cg [x],3", "st.cg [x],4", "ld.cg r0,[x]"}},
	}
	var tests []*litmus.Test
	for _, r := range rows {
		b := litmus.NewTest(r.name).Global("x", 0)
		for _, ins := range r.body {
			b = b.Thread(ins)
		}
		if r.split {
			last := len(r.body) - 1
			tree := litmus.ScopeTree{CTAs: []litmus.CTAScope{
				{Warps: []litmus.WarpScope{{Threads: []int{0}}, {Threads: []int{1}}, {Threads: []int{last}}}},
			}}
			for tid := 2; tid < last; tid++ {
				tree.CTAs = append(tree.CTAs, litmus.CTAScope{Warps: []litmus.WarpScope{{Threads: []int{tid}}}})
			}
			b = b.Scope(tree)
		} else {
			b = b.InterCTA()
		}
		tests = append(tests, b.Exists(r.exists).MustBuild())
	}
	for k := 1; k <= 3; k++ {
		tests = append(tests, mpExtraTest(k, false), mpExtraTest(k, true))
	}
	return tests
}

// witnessContent renders a witness for content comparison: the execution's
// structure plus its final-state fingerprint. Pruned and exhaustive runs
// may select different witness *indices* (the pruned index counts
// representatives) but must select identical witness *content*.
func witnessContent(t *litmus.Test, x *axiom.Execution) string {
	if x == nil {
		return ""
	}
	return x.String() + "|" + harness.Fingerprint(t, x.Final)
}

// judgeOpts judges t from an enumeration prepared with opts.
func judgeOpts(ctx context.Context, m *Model, t *litmus.Test, par int, opts axiom.Opts) (*Verdict, error) {
	en, err := axiom.PrepareCtx(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	return JudgeWith(ctx, m, t, Opts{Parallelism: par, Enum: en})
}

// frCTAModel forbids a read from-reading a write of its own CTA. The
// built-in models cannot tell apart two unread, non-co-last solo writes
// in different CTAs (a cycle through such a write can skip it), but this
// check can: whether fr reaches a writer depends on where the writer
// sits in co relative to the read's source. So it pins the CTA condition
// of the symmetry classes.
func frCTAModel() *Model { return compile("fr-cta", "empty fr & cta as fr-cta\n") }

// TestJudgePrunedMatchesExhaustive is the judging-level differential
// oracle over the full paper corpus plus the symmetric shapes, at every
// pipeline regime (serial, auto, explicit fan-out): the pruned verdict
// must be indistinguishable from the exhaustive one on candidate counts,
// allowed counts, witness counts, observability and witness content.
func TestJudgePrunedMatchesExhaustive(t *testing.T) {
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	tests = append(tests, stressTest(3), symCoreTest(4), soloChunkTest())
	tests = append(tests, blindCoreTests()...)
	models := []*Model{PTX(), SC(), frCTAModel()}
	ctx := context.Background()
	for _, test := range tests {
		for _, m := range models {
			for _, par := range []int{0, 1, 4} {
				pruned, err := judgeOpts(ctx, m, test, par, axiom.DefaultOpts())
				if err != nil {
					t.Fatalf("%s/%s/p%d: pruned: %v", test.Name, m.Name, par, err)
				}
				exh, err := judgeOpts(ctx, m, test, par, axiom.Opts{Exhaustive: true})
				if err != nil {
					t.Fatalf("%s/%s/p%d: exhaustive: %v", test.Name, m.Name, par, err)
				}
				if pruned.Candidates != exh.Candidates || pruned.Allowed != exh.Allowed ||
					pruned.Witnesses != exh.Witnesses || pruned.Observable != exh.Observable {
					t.Errorf("%s/%s/p%d: pruned (%d, %d, %d, %v) differs from exhaustive (%d, %d, %d, %v)",
						test.Name, m.Name, par,
						pruned.Candidates, pruned.Allowed, pruned.Witnesses, pruned.Observable,
						exh.Candidates, exh.Allowed, exh.Witnesses, exh.Observable)
				}
				if got, want := witnessContent(test, pruned.Witness), witnessContent(test, exh.Witness); got != want {
					t.Errorf("%s/%s/p%d: witness content differs:\n%s\nvs\n%s", test.Name, m.Name, par, got, want)
				}
				if exh.Pruned() != 0 {
					t.Errorf("%s/%s/p%d: exhaustive verdict claims %d pruned", test.Name, m.Name, par, exh.Pruned())
				}
				if pruned.Visited+pruned.Pruned() != pruned.Candidates {
					t.Errorf("%s/%s/p%d: visited %d + pruned %d != candidates %d",
						test.Name, m.Name, par, pruned.Visited, pruned.Pruned(), pruned.Candidates)
				}
			}
		}
	}
}

// TestVerdictPrunedAccounting pins the pruning ledger: the paper corpus
// has no symmetry classes (its writers carry distinct values or share
// threads with other events), so nothing may be pruned there; the
// symmetric shape's counts are pinned by hand — 4 interchangeable writers
// give orbit size 24, an exhaustive space of 600 and 25 representatives —
// and mp+3w's value-blind classes leave 5,476 of its 14,400 candidates.
func TestVerdictPrunedAccounting(t *testing.T) {
	m := PTX()
	for _, test := range litmus.PaperTests() {
		v, err := Judge(m, test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if v.Pruned() != 0 || v.Visited != v.Candidates {
			t.Errorf("%s: visited %d of %d candidates with %d pruned; paper tests have no symmetry classes",
				test.Name, v.Visited, v.Candidates, v.Pruned())
		}
	}
	v, err := Judge(m, symCoreTest(4))
	if err != nil {
		t.Fatal(err)
	}
	if v.Candidates != 600 || v.Visited != 25 || v.Pruned() != 575 {
		t.Errorf("sym-core-4w: candidates %d, visited %d, pruned %d; want 600, 25, 575",
			v.Candidates, v.Visited, v.Pruned())
	}
	if v, err = Judge(m, mpExtraTest(3, false)); err != nil {
		t.Fatal(err)
	}
	if v.Candidates != 14400 || v.Visited != 5476 || v.Pruned() != 8924 {
		t.Errorf("mp+3w: candidates %d, visited %d, pruned %d; want 14400, 5476, 8924",
			v.Candidates, v.Visited, v.Pruned())
	}
}

// TestForEachVerdictWeightedHistogram pins the weighted outcome-histogram
// equivalence the campaign memo depends on: summing Execution.Weight per
// final-state fingerprint under pruning must reproduce the exhaustive
// per-fingerprint counts.
func TestForEachVerdictWeightedHistogram(t *testing.T) {
	m := PTX()
	ctx := context.Background()
	for _, test := range []*litmus.Test{symCoreTest(4), soloChunkTest(), stressTest(3)} {
		collect := func(opts axiom.Opts) map[string]int {
			h := map[string]int{}
			en, err := axiom.PrepareCtx(ctx, test, opts)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			if _, err := JudgeWith(ctx, m, test, Opts{Enum: en, Visit: func(_ int, x *axiom.Execution, allowed bool) error {
				if allowed {
					h[harness.Fingerprint(test, x.Final)] += x.Weight()
				}
				return nil
			}}); err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			return h
		}
		pruned := collect(axiom.DefaultOpts())
		exh := collect(axiom.Opts{Exhaustive: true})
		if len(pruned) != len(exh) {
			t.Fatalf("%s: %d pruned fingerprints, %d exhaustive", test.Name, len(pruned), len(exh))
		}
		for fp, n := range exh {
			if pruned[fp] != n {
				t.Errorf("%s: fingerprint %s has weight %d, exhaustive count %d",
					test.Name, fp, pruned[fp], n)
			}
		}
	}
}
