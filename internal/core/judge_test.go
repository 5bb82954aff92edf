package core

import (
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// TestJudgeStressCounts pins the stress test's enumeration size and verdict
// so pipeline refactors cannot silently change what is being measured.
func TestJudgeStressCounts(t *testing.T) {
	v, err := Judge(PTX(), litmustest.Stress(3))
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
