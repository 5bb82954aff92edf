package campaign

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// TestAnalyseMatchesExhaustive pins the memoized model analysis against an
// exhaustive-enumeration reference on every shape of litmustest.Shapes,
// which have symmetry and value-blind classes: the allowed fingerprint
// set, the weighted allowed count, the weighted candidate total and the
// weak-allowed flag must be identical whether the producer pruned or not —
// the memo's fingerprints are orbit-invariant and its counts are weighted.
func TestAnalyseMatchesExhaustive(t *testing.T) {
	m := core.PTX()
	litmustest.Run(t, litmustest.Shapes(), func(t *testing.T, test *litmus.Test) {
		mm := NewMemo()
		info, err := mm.Analyse(m, test)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mm.Verdict(m, test)
		if err != nil {
			t.Fatal(err)
		}
		ref, weighted := &ModelInfo{Allowed: make(map[string]bool)}, 0
		en, err := axiom.Prepare(test, axiom.Opts{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.JudgeWith(context.Background(), m, test, core.Opts{Enum: en,
			Visit: func(_ int, x *axiom.Execution, allowed bool) error {
				if !allowed {
					return nil
				}
				weighted++
				ref.Allowed[harness.Fingerprint(test, x.Final)] = true
				if test.Exists.Eval(x.Final) {
					ref.WeakAllowed = true
				}
				return nil
			}})
		if err != nil {
			t.Fatalf("exhaustive reference: %v", err)
		}
		if got.Candidates != v.Candidates || got.Allowed != weighted ||
			info.WeakAllowed != ref.WeakAllowed {
			t.Errorf("memo (candidates %d, allowed %d, weak %v) differs from exhaustive (%d, %d, %v)",
				got.Candidates, got.Allowed, info.WeakAllowed,
				v.Candidates, weighted, ref.WeakAllowed)
		}
		if len(info.Allowed) != len(ref.Allowed) {
			t.Fatalf("%d allowed fingerprints, exhaustive has %d", len(info.Allowed), len(ref.Allowed))
		}
		for fp := range ref.Allowed {
			if !info.Allowed[fp] {
				t.Errorf("exhaustive fingerprint %s missing from memoized set", fp)
			}
		}
	})
}
