package core

import (
	"context"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Policy returns the static-analysis policy the model's constraints
// warrant. Models compiled from user-supplied sources get PolicyNone: the
// prefilter then only ever reports value-analysis Forbidden, which is
// sound for any model.
func (m *Model) Policy() analysis.Policy { return m.policy }

// Prefilter statically judges the test under the model's policy without
// enumerating. The result is sound with respect to Judge: Forbidden ⇒
// Judge yields Witnesses == 0, Allowed ⇒ Witnesses > 0, and Unknown means
// the caller must enumerate (the differential oracle in static_test.go
// holds this contract over the paper corpus and a randomized corpus).
func (m *Model) Prefilter(t *litmus.Test) analysis.Result {
	return analysis.Prefilter(t, m.policy)
}

// JudgeStaticCtx is JudgeCtx with the static prefilter in front: when the
// prefilter decides the verdict, enumeration is skipped entirely and the
// returned Verdict has StaticSkipped set (with zero candidate counts). The
// prefilter itself is cheap and never consults the context; only the
// enumeration fallback does.
func JudgeStaticCtx(ctx context.Context, m *Model, t *litmus.Test, parallelism int) (*Verdict, error) {
	if res := m.Prefilter(t); res.Verdict != analysis.Unknown {
		return &Verdict{
			Test:          t,
			Model:         m.Name,
			Observable:    res.Verdict == analysis.Allowed,
			StaticSkipped: true,
			StaticReason:  res.Reason,
		}, nil
	}
	return JudgeCtx(ctx, m, t, parallelism)
}
