package core

import (
	"context"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

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
// oracle over the paper tests and litmustest.Shapes, at every pipeline
// regime (serial, auto, explicit fan-out): the pruned verdict must be
// indistinguishable from the exhaustive one on candidate counts, allowed
// counts, witness counts, observability and witness content.
func TestJudgePrunedMatchesExhaustive(t *testing.T) {
	models := []*Model{PTX(), SC(), frCTAModel()}
	ctx := context.Background()
	litmustest.Run(t, slices.Concat(litmustest.Paper(), litmustest.Shapes()), func(t *testing.T, test *litmus.Test) {
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
	})
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
	v, err := Judge(m, litmustest.SymWriters(4))
	if err != nil {
		t.Fatal(err)
	}
	if v.Candidates != 600 || v.Visited != 25 || v.Pruned() != 575 {
		t.Errorf("sym-4writers: candidates %d, visited %d, pruned %d; want 600, 25, 575",
			v.Candidates, v.Visited, v.Pruned())
	}
	if v, err = Judge(m, litmustest.MPWriters(3, false)); err != nil {
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
// per-fingerprint counts, on every shape of litmustest.Shapes.
func TestForEachVerdictWeightedHistogram(t *testing.T) {
	m := PTX()
	ctx := context.Background()
	litmustest.Run(t, litmustest.Shapes(), func(t *testing.T, test *litmus.Test) {
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
	})
}
