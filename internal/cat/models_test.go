package cat_test

import (
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

var models = []*core.Model{core.PTX(), core.SC(), core.RMO(), core.SorensenOp()}

// TestRunExecMatchesEnv pins the compiled program of every built-in model
// (Program.RunExec, loading base relations straight off the execution)
// against the oracle interpreter over cat.ExecEnv on every candidate
// execution of the paper's tests and of litmustest.LongPath, whose
// universes of up to 136 events are three words wide: same verdicts, same
// check relations.
func TestRunExecMatchesEnv(t *testing.T) {
	for _, test := range append(litmus.PaperTests(), litmustest.LongPath()) {
		execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, m := range models {
			parsed := cat.MustParse(m.Source)
			prog := parsed.MustCompile()
			for _, x := range execs {
				fast := prog.RunExec(x, nil)
				slow, err := parsed.Interp(cat.ExecEnv(x))
				if err != nil {
					t.Fatalf("%s/%s: oracle: %v", test.Name, m.Name, err)
				}
				if err := cat.SameResults(fast, slow); err != nil {
					t.Fatalf("%s/%s: %v", test.Name, m.Name, err)
				}
			}
		}
	}
}

// FuzzCompiledMatchesOracle: for every model source Compile accepts, the
// compiled program's results on the paper tests' executions equal the
// oracle interpreter's. The seeds are the built-in models and the
// hand-picked differential corpus.
func FuzzCompiledMatchesOracle(f *testing.F) {
	for _, m := range models {
		f.Add(m.Source)
	}
	for _, src := range cat.HandPicked {
		f.Add(src)
	}
	execs := cat.PaperExecs(f)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := cat.Parse(src)
		if err != nil {
			return
		}
		if _, err := m.Compile(); err != nil {
			return
		}
		cat.DiffOracle(t, src, execs)
	})
}
