package core

import (
	"context"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Repair binds the judge to the fence-repair synthesis engine
// (analysis.SynthesizeRepair): it searches for the minimal set of fence
// insertions/strengthenings that makes the test's exists-condition Never
// under the model, verifying every candidate by enumeration (with the
// static prefilter shortcut, which is sound with respect to Judge).
// Equivalent to RepairCtx(context.Background(), m, t, 0).
func Repair(m *Model, t *litmus.Test) (*analysis.RepairResult, error) {
	return RepairCtx(context.Background(), m, t, 0)
}

// RepairCtx is Repair under a context and an explicit per-judgement
// evaluation parallelism. The result is deterministic for a given model
// and test: candidate order is static and the judge itself is
// deterministic, so every suggested fix is judge-verified and reproducible.
// The oracle prepares each candidate once: the prefilter reads that
// enumeration, and when it cannot decide the judge streams it.
func RepairCtx(ctx context.Context, m *Model, t *litmus.Test, parallelism int) (*analysis.RepairResult, error) {
	oracle := func(mt *litmus.Test) (bool, error) {
		v, err := judgeStatic(ctx, m, mt, parallelism)
		if err != nil {
			return false, err
		}
		return v.Observable, nil
	}
	return analysis.SynthesizeRepair(t, m.policy, oracle, analysis.RepairOptions{})
}
