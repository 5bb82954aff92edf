package core

import (
	"fmt"
	"testing"

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

// TestJudgeParallelMatchesSerial pins the parallel verdict pipeline against
// the serial path, verdict for verdict: counts, observability and the
// Witness (first witnessing execution in enumeration order) must be
// identical for every parallelism. Runs the paper tests (small, forced
// through the pipeline with explicit parallelism) plus a stress test big
// enough to engage the auto-mode pipeline; -short keeps it race-friendly.
func TestJudgeParallelMatchesSerial(t *testing.T) {
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	tests = append(tests, stressTest(3))
	models := []*Model{PTX(), SC()}
	for _, test := range tests {
		for _, m := range models {
			serial, err := JudgeP(m, test, 1)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", test.Name, m.Name, err)
			}
			for _, par := range []int{0, 4} {
				got, err := JudgeP(m, test, par)
				if err != nil {
					t.Fatalf("%s/%s: parallelism %d: %v", test.Name, m.Name, par, err)
				}
				if got.Candidates != serial.Candidates || got.Allowed != serial.Allowed ||
					got.Witnesses != serial.Witnesses || got.Observable != serial.Observable {
					t.Fatalf("%s/%s: parallelism %d: verdict %s differs from serial %s",
						test.Name, m.Name, par, got, serial)
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
