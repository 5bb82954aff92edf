package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// sameVerdictFields fails unless got equals want on every field, the
// witness by its rendering.
func sameVerdictFields(t *testing.T, label string, got, want *Verdict) {
	t.Helper()
	if got.Test != want.Test || got.Model != want.Model ||
		got.Candidates != want.Candidates || got.Visited != want.Visited ||
		got.Allowed != want.Allowed || got.Witnesses != want.Witnesses ||
		got.Observable != want.Observable ||
		got.StaticSkipped != want.StaticSkipped || got.StaticReason != want.StaticReason {
		t.Errorf("%s: got %+v, want %+v", label, *got, *want)
		return
	}
	if (got.Witness == nil) != (want.Witness == nil) ||
		got.Witness != nil && got.Witness.String() != want.Witness.String() {
		t.Errorf("%s: got witness %v, want witness %v", label, got.Witness, want.Witness)
	}
}

// checkJudgeModels judges test under ms in one JudgeModels run and under
// each model alone with JudgeWith, both with o, and fails unless every
// verdict agrees field for field.
func checkJudgeModels(t *testing.T, label string, ms []*Model, test *litmus.Test, o Opts) {
	t.Helper()
	ctx := context.Background()
	got, err := JudgeModels(ctx, ms, test, o)
	if err != nil {
		t.Fatalf("%s: JudgeModels: %v", label, err)
	}
	if len(got) != len(ms) {
		t.Fatalf("%s: %d verdicts for %d models", label, len(got), len(ms))
	}
	for i, m := range ms {
		want, err := JudgeWith(ctx, m, test, o)
		if err != nil {
			t.Fatalf("%s/%s: JudgeWith: %v", label, m.Name, err)
		}
		sameVerdictFields(t, label+"/"+m.Name, got[i], want)
	}
}

// TestJudgeModelsMatchesJudgeWith is the differential for the shared
// candidate stream: over the paper tests, litmustest.Diy,
// litmustest.Producer and litmustest.Symmetric, under the four builtin
// models, at parallelism 1, 0 and 4, and from a pruned and an exhaustive
// enumeration, one JudgeModels run gives each model exactly JudgeWith's
// verdict. The models run in both orders: the PTX model is the weakest of
// the four, so in the builtin order the first model allows whatever a
// later one does.
func TestJudgeModelsMatchesJudgeWith(t *testing.T) {
	ms := builtinModels()
	rev := make([]*Model, len(ms))
	for i, m := range ms {
		rev[len(ms)-1-i] = m
	}
	corpus := slices.Concat(litmustest.Paper(), litmustest.Diy(t), litmustest.Producer(), litmustest.Symmetric())
	litmustest.Run(t, corpus, func(t *testing.T, test *litmus.Test) {
		for _, eo := range []axiom.Opts{axiom.DefaultOpts(), {Exhaustive: true}} {
			en, err := axiom.Prepare(test, eo)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			for _, par := range []int{1, 0, 4} {
				label := fmt.Sprintf("%s/exhaustive=%v/p%d", test.Name, eo.Exhaustive, par)
				checkJudgeModels(t, label, ms, test, Opts{Parallelism: par, Enum: en})
				checkJudgeModels(t, label+"/reversed", rev, test, Opts{Parallelism: par, Enum: en})
			}
		}
	})
}

// TestJudgeModelsStatic: on one preparation of a test, each model the
// prefilter decides gets a static verdict that agrees with the verdict
// JudgeModels gives that model from the same enumeration. The paper corpus
// has a test the prefilter decides for some models and one it decides for
// every model.
func TestJudgeModelsStatic(t *testing.T) {
	ms := builtinModels()
	var mixed, all *litmus.Test
	for _, test := range litmus.PaperTests() {
		en, err := axiom.Prepare(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		vs, err := JudgeModels(context.Background(), ms, test, Opts{Enum: en})
		if err != nil {
			t.Fatal(err)
		}
		decided := 0
		for i, m := range ms {
			sv := m.StaticVerdict(test, en)
			if sv == nil {
				continue
			}
			decided++
			if !sv.StaticSkipped || sv.Candidates != 0 || sv.Observable != vs[i].Observable {
				t.Errorf("%s/%s: static %v, judged %v", test.Name, m.Name, sv, vs[i])
			}
		}
		switch {
		case decided == len(ms) && all == nil:
			all = test
		case decided > 0 && decided < len(ms) && mixed == nil:
			mixed = test
		}
	}
	if mixed == nil || all == nil {
		t.Fatalf("the paper corpus has no test the prefilter decides for some models (%v) or for all (%v)", mixed, all)
	}
}

// TestJudgeModelsErrors: a Visit on a run of two models is refused before
// anything is judged; a cancelled context returns context.Canceled at
// every parallelism; and a MaxExecs bound fails with JudgeWith's error
// text.
func TestJudgeModelsErrors(t *testing.T) {
	ms := []*Model{PTX(), SC()}
	test := litmus.MP(litmus.NoFence)
	ctx := context.Background()
	visits := 0
	if _, err := JudgeModels(ctx, ms, test, Opts{Visit: func(int, *axiom.Execution, bool) error {
		visits++
		return nil
	}}); err == nil || visits != 0 {
		t.Errorf("Visit with two models: err %v after %d visits, want an error and none", err, visits)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, par := range []int{1, 0, 4} {
		if _, err := JudgeModels(cancelled, ms, litmustest.Stress(3), Opts{Parallelism: par}); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled, parallelism %d: err %v, want context.Canceled", par, err)
		}
	}

	stress := litmustest.Stress(3)
	for _, par := range []int{1, 0, 4} {
		en, err := axiom.Prepare(stress, axiom.Opts{MaxExecs: 100})
		if err != nil {
			t.Fatal(err)
		}
		_, want := JudgeWith(ctx, ms[0], stress, Opts{Parallelism: par, Enum: en})
		if want == nil {
			t.Fatal("MaxExecs 100 did not bound JudgeWith")
		}
		if _, err := JudgeModels(ctx, ms, stress, Opts{Parallelism: par, Enum: en}); err == nil || err.Error() != want.Error() {
			t.Errorf("MaxExecs 100, parallelism %d: JudgeModels err %v, JudgeWith %v", par, err, want)
		}
	}
}
