package campaign

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestAnalyseMatchesExhaustive pins the memoized model analysis against an
// exhaustive-enumeration reference on a test with a large symmetry class
// (three interchangeable writers plus a reader): the allowed fingerprint
// set, the weighted allowed count, the weighted candidate total and the
// weak-allowed flag must be identical whether the producer pruned or not —
// the memo's fingerprints are orbit-invariant and its counts are weighted.
func TestAnalyseMatchesExhaustive(t *testing.T) {
	test := litmus.NewTest("memo-sym").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("ld.cg r0,[x]").
		InterCTA().
		Exists("3:r0=1").
		MustBuild()
	m := core.PTX()
	info, err := NewMemo().Analyse(m, test)
	if err != nil {
		t.Fatal(err)
	}
	ref := &ModelInfo{Allowed: make(map[string]bool)}
	en, err := axiom.Prepare(test, axiom.Opts{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.ForEachVerdictPreparedCtx(context.Background(), test, en, 1,
		func(_ int, x *axiom.Execution, allowed bool) error {
			if !allowed {
				return nil
			}
			ref.AllowedCount++
			ref.Allowed[harness.Fingerprint(test, x.Final)] = true
			if test.Exists.Eval(x.Final) {
				ref.WeakAllowed = true
			}
			return nil
		})
	if err != nil {
		t.Fatalf("exhaustive reference: %v", err)
	}
	ref.Candidates = n
	if info.Candidates != ref.Candidates || info.AllowedCount != ref.AllowedCount ||
		info.WeakAllowed != ref.WeakAllowed {
		t.Errorf("memo (candidates %d, allowed %d, weak %v) differs from exhaustive (%d, %d, %v)",
			info.Candidates, info.AllowedCount, info.WeakAllowed,
			ref.Candidates, ref.AllowedCount, ref.WeakAllowed)
	}
	if len(info.Allowed) != len(ref.Allowed) {
		t.Fatalf("%d allowed fingerprints, exhaustive has %d", len(info.Allowed), len(ref.Allowed))
	}
	for fp := range ref.Allowed {
		if !info.Allowed[fp] {
			t.Errorf("exhaustive fingerprint %s missing from memoized set", fp)
		}
	}
}
