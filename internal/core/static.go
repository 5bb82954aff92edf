package core

import (
	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

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
