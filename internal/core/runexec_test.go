package core

import (
	"context"
	"slices"
	"sync"
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

// TestConcurrentRunExecOnWitness evaluates one witness clone under the
// four built-in programs from eight goroutines at once, on pooled
// scratches and on scratches of their own, and every result must equal
// the serial one, check relations included. Nothing in an Execution is
// written after the Assembler builds it, so its readers need no
// synchronisation; CI runs this under the race detector and at GOMAXPROCS
// 1, 2 and 8.
func TestConcurrentRunExecOnWitness(t *testing.T) {
	v, err := JudgeWith(context.Background(), PTX(), litmus.MP(litmus.NoFence), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	x := v.Witness
	if x == nil {
		t.Fatal("mp has no witness under PTX")
	}
	models := builtinModels()
	want := make([]cat.Results, len(models))
	for i, m := range models {
		want[i] = m.prog.RunExec(x, m.prog.NewScratch())
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := make([]*cat.Scratch, len(models))
			for i, m := range models {
				own[i] = m.prog.NewScratch()
			}
			<-start
			for r := 0; r < 25; r++ {
				i := (g + r) % len(models) // goroutines run different models at once
				sc := own[i]
				if r%2 == 0 {
					sc = nil // the program's pool
				}
				got := models[i].prog.RunExec(x, sc)
				if len(got) != len(want[i]) {
					t.Errorf("goroutine %d: %s: %d results, serially %d", g, models[i].Name, len(got), len(want[i]))
					return
				}
				for c := range got {
					if got[c].OK != want[i][c].OK || !slices.Equal(got[c].Rel.Pairs(), want[i][c].Rel.Pairs()) {
						t.Errorf("goroutine %d: %s: check %s is %v %v, serially %v %v", g, models[i].Name,
							got[c].Name, got[c].OK, got[c].Rel, want[i][c].OK, want[i][c].Rel)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
