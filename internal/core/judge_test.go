package core

import (
	"fmt"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// stressTest builds a covered test with a large candidate set: `writers`
// threads each store a distinct value to x and read it back, so the read
// domains, rf choices and the x coherence permutations multiply. With 3
// writers it enumerates 384 candidates (past the auto fan-out threshold), with
// 4 writers 15000 — the generated-corpus / deep-unrolling regime the
// streaming pipeline exists for.
func stressTest(writers int) *litmus.Test {
	b := litmus.NewTest(fmt.Sprintf("stress-%dw", writers)).Global("x", 0)
	for i := 0; i < writers; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [x],%d", i+1), "ld.cg r0,[x]")
	}
	return b.InterCTA().
		Exists(fmt.Sprintf("0:r0=%d", writers)).
		MustBuild()
}

// TestJudgeParallelMatchesSerial pins the parallel fold against the
// serial judgement, verdict for verdict: the verdict line, the visited
// count and the Witness (first witnessing execution in enumeration order)
// must be identical at every parallelism — auto, and explicit fan-out over
// path combinations or rf chunks. stressTest(3) has 64 path combinations,
// so explicit parallelism folds many per worker; soloChunkTest has one
// combination with four rf chunks; a diy sample adds generated shapes,
// including ones whose single combination does not split.
func TestJudgeParallelMatchesSerial(t *testing.T) {
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	tests = append(tests, stressTest(3), soloChunkTest())
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	for i := 0; i < len(gen); i += 13 {
		tests = append(tests, gen[i].Test)
	}
	models := []*Model{PTX(), SC()}
	for _, test := range tests {
		for _, m := range models {
			serial, err := JudgeP(m, test, 1)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", test.Name, m.Name, err)
			}
			for _, par := range []int{0, 2, 4, 16} {
				got, err := JudgeP(m, test, par)
				if err != nil {
					t.Fatalf("%s/%s: parallelism %d: %v", test.Name, m.Name, par, err)
				}
				if got.String() != serial.String() || got.Visited != serial.Visited {
					t.Fatalf("%s/%s: parallelism %d: verdict %s (%d visited) differs from serial %s (%d visited)",
						test.Name, m.Name, par, got, got.Visited, serial, serial.Visited)
				}
				switch {
				case (got.Witness == nil) != (serial.Witness == nil):
					t.Fatalf("%s/%s: parallelism %d: witness presence differs", test.Name, m.Name, par)
				case got.Witness != nil && got.Witness.String() != serial.Witness.String():
					t.Fatalf("%s/%s: parallelism %d: witness differs:\n%s\nvs\n%s",
						test.Name, m.Name, par, got.Witness, serial.Witness)
				}
			}
		}
	}
}

// TestJudgeStressCounts pins the stress test's enumeration size and verdict
// so pipeline refactors cannot silently change what is being measured.
func TestJudgeStressCounts(t *testing.T) {
	v, err := Judge(PTX(), stressTest(3))
	if err != nil {
		t.Fatal(err)
	}
	if v.Candidates != 384 {
		t.Errorf("stress-3w: %d candidates, want 384", v.Candidates)
	}
	if !v.Observable {
		t.Error("stress-3w: final store's value must be readable")
	}
	if v.Witness == nil {
		t.Error("stress-3w: witness must be pinned")
	}
}
