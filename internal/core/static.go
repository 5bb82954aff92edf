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

// StaticVerdict returns the verdict the static prefilter decides for t
// under the model, without enumerating: Observable is authoritative, all
// candidate counts are zero, StaticSkipped is set and StaticReason carries
// the prefilter's justification. It returns nil when the prefilter cannot
// decide and the caller must enumerate.
func (m *Model) StaticVerdict(t *litmus.Test) *Verdict {
	res := m.Prefilter(t)
	if res.Verdict == analysis.Unknown {
		return nil
	}
	return &Verdict{
		Test:          t,
		Model:         m.Name,
		Observable:    res.Verdict == analysis.Allowed,
		StaticSkipped: true,
		StaticReason:  res.Reason,
	}
}

// JudgeStaticCtx is JudgeCtx with the static prefilter in front: when the
// prefilter decides the verdict (see StaticVerdict), enumeration is
// skipped entirely. The prefilter itself is cheap and never consults the
// context; only the enumeration fallback does.
func JudgeStaticCtx(ctx context.Context, m *Model, t *litmus.Test, parallelism int) (*Verdict, error) {
	if v := m.StaticVerdict(t); v != nil {
		return v, nil
	}
	return JudgeCtx(ctx, m, t, parallelism)
}
