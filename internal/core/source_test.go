package core

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// TestDiyCyclesJudgeAsTheirSource: every diy cycle of up to four edges
// judges, under each builtin model, exactly as the test parsed back from
// its printed source. The built test and its source share a Fingerprint,
// so the memo and the store would serve one's verdict for the other; a
// builder that classified a declared register as a location (the address
// register of a DpAddr edge) broke this for the 16 DpAddr cycles.
func TestDiyCyclesJudgeAsTheirSource(t *testing.T) {
	ms := builtinModels()
	litmustest.Run(t, litmustest.Cycles(), func(t *testing.T, test *litmus.Test) {
		back, err := litmus.Parse(test.String())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		built, err := JudgeModels(context.Background(), ms, test, Opts{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		parsed, err := JudgeModels(context.Background(), ms, back, Opts{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s parsed: %v", test.Name, err)
		}
		for i, m := range ms {
			if built[i].String() != parsed[i].String() {
				t.Errorf("%s under %s: built %s, parsed from its source %s", test.Name, m.Name, built[i], parsed[i])
			}
		}
	})
}
