package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// repairCorpus is the §6 scope-mismatch/broken-idiom corpus the engine
// must fix under PTX: observable tests whose critical cycles fences can
// close.
func repairCorpus() []*litmus.Test {
	return []*litmus.Test{
		litmus.MPL1(litmus.FenceCTA), // mp-L1+membar.ctas: the paper's wrong-scope mp
		litmus.MP(litmus.NoFence),    // mp: no fence at all
		litmus.MP(litmus.FenceCTA),   // mp+membar.ctas
		litmus.LB(litmus.FenceCTA),   // lb+membar.ctas
	}
}

// rejudgeRepair repairs test under m and, when the repair is verified
// and edits the test, fails unless the repaired test re-judges Never and
// round-trips through the concrete syntax with a stable fingerprint.
func rejudgeRepair(t *testing.T, m *Model, test *litmus.Test) *analysis.RepairResult {
	t.Helper()
	r, err := Repair(m, test)
	if err != nil {
		t.Fatalf("Repair(%s): %v", test.Name, err)
	}
	if !r.Verified || len(r.Actions) == 0 {
		return r
	}
	v, err := Judge(m, r.Repaired)
	if err != nil {
		t.Fatalf("Judge(repaired %s): %v", test.Name, err)
	}
	if v.Observable {
		t.Errorf("repaired %s is still observable under %s (actions: %v)", test.Name, m.Name, r.Actions)
	}
	reparsed, err := litmus.Parse(r.Repaired.String())
	if err != nil {
		t.Fatalf("repaired %s does not re-parse: %v\n%s", test.Name, err, r.Repaired.String())
	}
	if got, want := reparsed.Fingerprint(), r.Repaired.Fingerprint(); got != want {
		t.Errorf("repaired %s: fingerprint drifts across String round-trip: %s vs %s", test.Name, got, want)
	}
	return r
}

// TestRepairCorpus: every broken idiom gets a verified repair that
// rejudgeRepair accepts.
func TestRepairCorpus(t *testing.T) {
	m := PTX()
	for _, test := range repairCorpus() {
		if r := rejudgeRepair(t, m, test); !r.Verified || len(r.Actions) == 0 {
			t.Fatalf("Repair(%s): want verified non-empty repair, got %s", test.Name, r.Summary())
		}
	}
}

// TestRepairRejudged holds every repair the engine verifies on the paper
// tests, litmustest.Diy and litmustest.Shapes to rejudgeRepair.
func TestRepairRejudged(t *testing.T) {
	m := PTX()
	litmustest.Run(t, slices.Concat(litmustest.Paper(), litmustest.Diy(t), litmustest.Shapes()), func(t *testing.T, test *litmus.Test) {
		rejudgeRepair(t, m, test)
	})
}

// TestRepairMinimal: the verified repair is 1-minimal — removing any
// single inserted/strengthened fence makes the judge report the behaviour
// allowed again, so no edit is decorative.
func TestRepairMinimal(t *testing.T) {
	m := PTX()
	for _, test := range repairCorpus() {
		r, err := Repair(m, test)
		if err != nil {
			t.Fatalf("Repair(%s): %v", test.Name, err)
		}
		if !r.Verified {
			t.Fatalf("Repair(%s): %s", test.Name, r.Summary())
		}
		for i := range r.Actions {
			subset := make([]analysis.RepairAction, 0, len(r.Actions)-1)
			subset = append(subset, r.Actions[:i]...)
			subset = append(subset, r.Actions[i+1:]...)
			mut, err := analysis.ApplyRepair(test, subset)
			if err != nil {
				t.Fatalf("ApplyRepair(%s minus %v): %v", test.Name, r.Actions[i], err)
			}
			v, err := Judge(m, mut)
			if err != nil {
				t.Fatalf("Judge(%s minus %v): %v", test.Name, r.Actions[i], err)
			}
			if !v.Observable {
				t.Errorf("%s: dropping %v still forbids the behaviour — repair not minimal", test.Name, r.Actions[i])
			}
		}
	}
}

// TestRepairAlreadyForbidden: a test whose behaviour the model already
// forbids needs no edits; the result is verified and empty.
func TestRepairAlreadyForbidden(t *testing.T) {
	r, err := Repair(PTX(), litmus.MP(litmus.FenceGL))
	if err != nil {
		t.Fatal(err)
	}
	if !r.NoRepairNeeded() {
		t.Errorf("mp+membar.gls: want no-repair-needed, got %s", r.Summary())
	}
	if r.Repaired == nil || r.Repaired.Fingerprint() != litmus.MP(litmus.FenceGL).Fingerprint() {
		t.Error("no-repair-needed must return the original test")
	}
}

// TestRepairDeterministic: same model, same test → byte-identical actions
// and ledger across runs ("every suggested fix is judge-verified" only
// means something if the suggestion is reproducible).
func TestRepairDeterministic(t *testing.T) {
	m := PTX()
	test := litmus.MPL1(litmus.FenceCTA)
	a, err := Repair(m, test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Repair(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Errorf("actions differ across runs:\n%v\n%v", a.Actions, b.Actions)
	}
	if !reflect.DeepEqual(a.Attempts, b.Attempts) {
		t.Errorf("attempt ledgers differ across runs:\n%v\n%v", a.Attempts, b.Attempts)
	}
	if a.Repaired.Fingerprint() != b.Repaired.Fingerprint() {
		t.Error("repaired fingerprints differ across runs")
	}
}

// TestRepairScopeLadder: the wrong-scope mp is fixed by widening the
// existing membar.cta fences in place (the worked example in README): the
// minimal repair must be two strengthen edits, not insertions.
func TestRepairScopeLadder(t *testing.T) {
	r, err := Repair(PTX(), litmus.MPL1(litmus.FenceCTA))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified || len(r.Actions) != 2 {
		t.Fatalf("mp-L1+membar.ctas: want 2-edit verified repair, got %s", r.Summary())
	}
	for _, a := range r.Actions {
		if a.Kind != "strengthen" || a.OldScope != "cta" || a.Scope != "gl" {
			t.Errorf("mp-L1+membar.ctas: want strengthen cta->gl, got %v", a)
		}
	}
}
