package core

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestDiyCyclesJudgeAsTheirSource: every diy cycle of up to four edges
// judges, under each builtin model, exactly as the test parsed back from
// its printed source. The built test and its source share a Fingerprint,
// so the memo and the store would serve one's verdict for the other; a
// builder that classified a declared register as a location (the address
// register of a DpAddr edge) broke this for the 16 DpAddr cycles.
func TestDiyCyclesJudgeAsTheirSource(t *testing.T) {
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	if len(gen) != 776 {
		t.Fatalf("diy generated %d cycles, want 776", len(gen))
	}
	ms := builtinModels()
	for _, g := range gen {
		back, err := litmus.Parse(g.Test.String())
		if err != nil {
			t.Fatalf("%s: %v", g.Test.Name, err)
		}
		built, err := JudgeModels(context.Background(), ms, g.Test, Opts{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.Test.Name, err)
		}
		parsed, err := JudgeModels(context.Background(), ms, back, Opts{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s parsed: %v", g.Test.Name, err)
		}
		for i, m := range ms {
			if built[i].String() != parsed[i].String() {
				t.Errorf("%s under %s: built %s, parsed from its source %s", g.Test.Name, m.Name, built[i], parsed[i])
			}
		}
	}
}
