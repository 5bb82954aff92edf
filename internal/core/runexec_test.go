package core

import (
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
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
				full, err := m.prog.RunExec(x, nil)
				if err != nil {
					t.Fatalf("%s/%s: RunExec: %v", test.Name, m.Name, err)
				}
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

// TestRunExecMatchesEnv pins the compiled fast path (Program.RunExec,
// resolving base relations straight off the execution) against the generic
// environment path (Program.Run over cat.ExecEnv) for every model and every
// candidate execution of the paper's tests: same verdicts, same check
// relations.
func TestRunExecMatchesEnv(t *testing.T) {
	models := []*Model{PTX(), SC(), RMO(), SorensenOp()}
	for _, test := range litmus.PaperTests() {
		execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, m := range models {
			prog, err := m.compiled.Compile()
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			for _, x := range execs {
				fast, err := prog.RunExec(x, nil)
				if err != nil {
					t.Fatalf("%s/%s: RunExec: %v", test.Name, m.Name, err)
				}
				slow, err := prog.Run(cat.ExecEnv(x))
				if err != nil {
					t.Fatalf("%s/%s: Run(ExecEnv): %v", test.Name, m.Name, err)
				}
				if len(fast) != len(slow) {
					t.Fatalf("%s/%s: result counts differ", test.Name, m.Name)
				}
				for i := range fast {
					f, s := fast[i], slow[i]
					if f.Name != s.Name || f.Kind != s.Kind || f.OK != s.OK {
						t.Fatalf("%s/%s: check %d: %+v vs %+v", test.Name, m.Name, i, f, s)
					}
					if !f.Rel.Equal(s.Rel) {
						t.Fatalf("%s/%s: check %s relations differ:\n%v\nvs\n%v",
							test.Name, m.Name, f.Name, f.Rel, s.Rel)
					}
				}
			}
		}
	}
}
