package core

import (
	"context"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Prefilter prepares the test and statically judges it under the model's
// policy without enumerating. The result is sound with respect to Judge:
// Forbidden ⇒ Judge yields Witnesses == 0, Allowed ⇒ Witnesses > 0, and
// Unknown means the caller must enumerate (the differential oracle in
// static_test.go holds this contract over the paper corpus and a
// randomized corpus).
func (m *Model) Prefilter(t *litmus.Test) analysis.Result {
	en, err := axiom.Prepare(t, axiom.DefaultOpts())
	if err != nil {
		return analysis.Result{}
	}
	return analysis.Prefilter(en, m.policy)
}

// StaticVerdict returns the verdict the static prefilter decides for t
// under the model from en, t's prepared enumeration: Observable is
// authoritative, all candidate counts are zero, StaticSkipped is set and
// StaticReason carries the prefilter's justification. It returns nil when
// the prefilter cannot decide and the caller must enumerate en.
func (m *Model) StaticVerdict(t *litmus.Test, en *axiom.Enumeration) *Verdict {
	res := analysis.Prefilter(en, m.policy)
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

// judgeStatic judges t under m from one preparation: by the prefilter
// when it decides, by streaming the enumeration when it cannot.
func judgeStatic(ctx context.Context, m *Model, t *litmus.Test, parallelism int) (*Verdict, error) {
	en, err := axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
	if err != nil {
		return nil, err
	}
	if v := m.StaticVerdict(t, en); v != nil {
		return v, nil
	}
	return JudgeWith(ctx, m, t, Opts{Parallelism: parallelism, Enum: en})
}
