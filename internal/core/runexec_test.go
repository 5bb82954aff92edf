package core

import (
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestRunExecVerdictMatchesRunExec pins the verdict-only fast path against
// full RunExec for every model and every candidate execution of the paper's
// tests: RunExecVerdict must agree with Results.Allowed(). The shared
// scratch walks the executions in enumeration order, exercising the
// skeleton-constant slot cache across consecutive rf/co completions; the
// nil-scratch (pooled) call cross-checks it cold.
func TestRunExecVerdictMatchesRunExec(t *testing.T) {
	models := []*Model{PTX(), SC(), RMO(), SorensenOp()}
	for _, test := range litmus.PaperTests() {
		execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, m := range models {
			sc := m.prog.NewScratch()
			for i, x := range execs {
				full := m.prog.RunExec(x, nil)
				warm, err := m.prog.RunExecVerdict(x, sc)
				if err != nil {
					t.Fatalf("%s/%s: RunExecVerdict: %v", test.Name, m.Name, err)
				}
				cold, err := m.prog.RunExecVerdict(x, nil)
				if err != nil {
					t.Fatalf("%s/%s: RunExecVerdict(nil): %v", test.Name, m.Name, err)
				}
				if warm != full.Allowed() || cold != full.Allowed() {
					t.Fatalf("%s/%s: execution %d: verdict-only %v/%v vs full %v (%s)",
						test.Name, m.Name, i, warm, cold, full.Allowed(), full)
				}
			}
		}
	}
}
