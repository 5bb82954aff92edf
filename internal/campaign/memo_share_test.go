package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

func fourModels() []*core.Model {
	return []*core.Model{core.PTX(), core.SC(), core.RMO(), core.SorensenOp()}
}

// countSpans counts the spans named name in tr's span trees.
func countSpans(tr *obs.Trace, name string) int {
	var walk func(sp *obs.Span) int
	walk = func(sp *obs.Span) int {
		n := 0
		if sp.Name() == name {
			n++
		}
		for _, c := range sp.Children() {
			n += walk(c)
		}
		return n
	}
	n := 0
	for _, r := range tr.Roots() {
		n += walk(r)
	}
	return n
}

// sameCounts fails unless got has want's counts and observability.
func sameCounts(t *testing.T, what string, got, want *core.Verdict) {
	t.Helper()
	if got.Candidates != want.Candidates || got.Allowed != want.Allowed || got.Witnesses != want.Witnesses ||
		got.Visited != want.Visited || got.Observable != want.Observable {
		t.Errorf("%s: memo verdict %v, core.Judge %v", what, got, want)
	}
}

// heldEnumeration reports whether the memo holds a prepared enumeration
// for test.
func heldEnumeration(mm *Memo, test *litmus.Test) bool {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	p := mm.preps[test.Fingerprint()]
	return p != nil && p.en.val != nil
}

// sameVerdict fails unless got equals want on every field, the witness
// by its rendering.
func sameVerdict(t *testing.T, what string, got, want *core.Verdict) {
	t.Helper()
	sameCounts(t, what, got, want)
	if got.Model != want.Model || got.StaticSkipped != want.StaticSkipped || got.String() != want.String() {
		t.Errorf("%s: memo verdict %v under %s, core.JudgeWith %v under %s", what, got, got.Model, want, want.Model)
	}
	if (got.Witness == nil) != (want.Witness == nil) ||
		got.Witness != nil && got.Witness.String() != want.Witness.String() {
		t.Errorf("%s: memo witness %v, core.JudgeWith witness %v", what, got.Witness, want.Witness)
	}
}

// TestMemoSharesPreparation: once the memo knows the four models, a cold
// request for mp under PTX prepares mp once and produces its candidates
// once — its trace records one "prepare" span, one "verdict" span and
// each execution visited once — judging all four models in that pass, and
// releases the enumeration straight after. The other three requests then
// return without a span or a visit, repeats return the same verdict
// objects, and every verdict equals core.JudgeWith's.
func TestMemoSharesPreparation(t *testing.T) {
	mm := NewMemo()
	models := fourModels()
	for _, m := range models {
		if _, err := mm.Verdict(m, litmus.SB()); err != nil {
			t.Fatal(err)
		}
	}
	test := litmus.MP(litmus.NoFence)
	got := make([]*core.Verdict, len(models))
	for i, m := range models {
		tr := obs.New(m.Name)
		v, err := mm.VerdictCtx(obs.NewContext(context.Background(), tr), m, test, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		got[i] = v
		want, err := core.JudgeWith(context.Background(), m, test, core.Opts{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, m.Name, v, want)
		spans, visited := 0, int64(0)
		if i == 0 {
			spans, visited = 1, int64(v.Visited)
		}
		if n := countSpans(tr, "prepare"); n != spans {
			t.Errorf("%s: %d prepare spans, want %d", m.Name, n, spans)
		}
		if n := countSpans(tr, "verdict"); n != spans {
			t.Errorf("%s: %d verdict spans, want %d", m.Name, n, spans)
		}
		if n := tr.Count(obs.CtrVisited); n != visited {
			t.Errorf("%s: trace visited %d executions, want %d", m.Name, n, visited)
		}
		if heldEnumeration(mm, test) {
			t.Errorf("after %s (%d of %d models): enumeration held", m.Name, i+1, len(models))
		}
	}
	for i, m := range models {
		if v, err := mm.Verdict(m, test); err != nil || v != got[i] {
			t.Errorf("%s: repeat got %p (%v), want the memoized %p", m.Name, v, err, got[i])
		}
	}
}

// TestMemoJointPassCancelled: a joint pass whose requester is cancelled
// returns ctx.Err() and stores nothing for any sibling it claimed: their
// pairs hold no verdict and none is in flight. A later live request for a
// sibling then claims them again and judges them all in its pass, so the
// remaining requests visit nothing, and every verdict equals
// core.JudgeWith's.
func TestMemoJointPassCancelled(t *testing.T) {
	mm := NewMemo()
	models := fourModels()
	for _, m := range models {
		if _, err := mm.Verdict(m, litmus.SB()); err != nil {
			t.Fatal(err)
		}
	}
	test := litmus.MP(litmus.NoFence)
	// Analyse prepares mp and holds its enumeration for the other models,
	// so the cancelled request below fails in its pass, not in preparing.
	if _, err := mm.Analyse(models[0], test); err != nil {
		t.Fatal(err)
	}
	if !heldEnumeration(mm, test) {
		t.Fatal("enumeration released after one of four models judged the test")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mm.VerdictCtx(cancelled, models[1], test, 1, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joint pass: err = %v, want context.Canceled", err)
	}
	for _, m := range models[1:] {
		e := mm.entry(m, test)
		mm.mu.Lock()
		val, running := e.verdict.val, e.verdict.running
		mm.mu.Unlock()
		if val != nil || running {
			t.Errorf("%s after the cancelled pass: verdict %v, in flight %v; want neither", m.Name, val, running)
		}
	}
	for i, j := range []int{2, 1, 3} {
		m := models[j]
		tr := obs.New(m.Name)
		v, err := mm.VerdictCtx(obs.NewContext(context.Background(), tr), m, test, 1, false)
		if err != nil {
			t.Fatalf("%s: live request after the cancelled pass: %v", m.Name, err)
		}
		want, err := core.JudgeWith(context.Background(), m, test, core.Opts{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameVerdict(t, m.Name, v, want)
		visited := int64(0)
		if i == 0 {
			visited = int64(v.Visited)
		}
		if n := tr.Count(obs.CtrVisited); n != visited {
			t.Errorf("%s: trace visited %d executions, want %d", m.Name, n, visited)
		}
	}
}

// TestMemoJointPassConcurrent: 8 goroutines request the four models of
// each test at once, at parallelism 1 and 0, so that joint passes, their
// claims and the requests waiting on them interleave (run under -race in
// CI). Every verdict equals core.JudgeWith's.
func TestMemoJointPassConcurrent(t *testing.T) {
	mm := NewMemo()
	models := fourModels()
	for _, m := range models {
		if _, err := mm.Verdict(m, litmus.SB()); err != nil {
			t.Fatal(err)
		}
	}
	tests := []*litmus.Test{litmus.MP(litmus.NoFence), litmus.CoRR(), litmus.LB(litmus.NoFence), litmus.MP(litmus.FenceCTA)}
	for _, test := range tests {
		want := make([]*core.Verdict, len(models))
		for j, m := range models {
			v, err := core.JudgeWith(context.Background(), m, test, core.Opts{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want[j] = v
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				j := g % len(models)
				v, err := mm.VerdictCtx(context.Background(), models[j], test, g%2, false)
				if err != nil {
					t.Errorf("%s/%s: %v", test.Name, models[j].Name, err)
					return
				}
				sameVerdict(t, test.Name+"/"+models[j].Name, v, want[j])
			}(g)
		}
		wg.Wait()
	}
}

// TestMemoReleaseAndReprepare: a test's enumeration is released once every
// model the memo has judged under has judged the test; a model that comes
// later prepares again and gets the verdict core.Judge gives. Analyse and
// the static path's enumerating fallback judge from the same enumeration.
func TestMemoReleaseAndReprepare(t *testing.T) {
	mm := NewMemo()
	ptx, sc, rmo := core.PTX(), core.SC(), core.RMO()
	test := litmus.CoRR()
	tr := obs.New("release")
	ctx := obs.NewContext(context.Background(), tr)

	// One known model: the first judgement settles every known model.
	if _, err := mm.VerdictCtx(ctx, sc, test, 1, false); err != nil {
		t.Fatal(err)
	}
	if heldEnumeration(mm, test) {
		t.Fatal("enumeration held after the only known model judged the test")
	}
	// Two known models: the static path's fallback (coRR is statically
	// unknown under PTX) re-prepares, then releases.
	if _, err := mm.Verdict(ptx, litmus.SB()); err != nil {
		t.Fatal(err)
	}
	v, err := mm.VerdictCtx(ctx, ptx, test, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if v.StaticSkipped {
		t.Fatal("coRR is statically decided under PTX; pick a test that enumerates")
	}
	want, err := core.Judge(ptx, test)
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "ptx", v, want)
	if heldEnumeration(mm, test) {
		t.Fatal("enumeration held after both known models judged the test")
	}
	if n := countSpans(tr, "prepare"); n != 2 {
		t.Errorf("%d prepare spans, want 2 (one per release)", n)
	}
	// A later model re-prepares with identical results.
	info, err := mm.Analyse(rmo, test)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMemo().Analyse(rmo, test)
	if err != nil {
		t.Fatal(err)
	}
	if info.Candidates != ref.Candidates || info.AllowedCount != ref.AllowedCount || len(info.Allowed) != len(ref.Allowed) {
		t.Errorf("re-prepared analysis %+v, fresh memo %+v", info, ref)
	}
	if heldEnumeration(mm, test) {
		t.Error("enumeration held after every known model judged the test")
	}
}

// TestMemoPrepareErrorNotShared: a requester whose context is cancelled
// gets ctx.Err() from the preparation it started, and the error is not
// stored: a second caller with a live context, under another model or the
// same one, gets the normal verdict.
func TestMemoPrepareErrorNotShared(t *testing.T) {
	mm := NewMemo()
	test := litmus.MP(litmus.NoFence)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mm.VerdictCtx(cancelled, core.PTX(), test, 1, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester got %v, want context.Canceled", err)
	}
	sc := core.SC()
	v, err := mm.VerdictCtx(context.Background(), sc, test, 1, false)
	if err != nil {
		t.Fatalf("live requester after a cancelled preparation: %v", err)
	}
	want, err := core.Judge(sc, test)
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "sc after cancelled ptx", v, want)
	v, err = mm.VerdictCtx(context.Background(), core.PTX(), test, 1, false)
	if err != nil {
		t.Fatalf("live ptx requester after a cancelled one: %v", err)
	}
	if want, err = core.Judge(core.PTX(), test); err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "ptx after cancelled ptx", v, want)
}

// TestMemoSharedPreparationConcurrent judges several tests under the four
// models from concurrent goroutines, under renamed copies and alongside
// cancelled requesters, so that preparations, waits and releases
// interleave (run under -race in CI). Every live verdict equals
// core.Judge's.
func TestMemoSharedPreparationConcurrent(t *testing.T) {
	mm := NewMemo()
	models := fourModels()
	tests := []*litmus.Test{litmus.MP(litmus.NoFence), litmus.SB(), litmus.CoRR(), litmus.LB(litmus.NoFence)}
	want := make([][]*core.Verdict, len(tests))
	for i, test := range tests {
		for _, m := range models {
			v, err := core.Judge(m, test)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], v)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		for i, test := range tests {
			for j, m := range models {
				wg.Add(1)
				go func(rep, i, j int, test *litmus.Test, m *core.Model) {
					defer wg.Done()
					if rep == 0 && (i+j)%3 == 0 {
						// A cancelled requester on the static path: its
						// preparation or judgement fails with ctx.Err()
						// and must not disturb the live requesters.
						if _, err := mm.VerdictCtx(cancelled, m, test, 1, true); err != nil && !errors.Is(err, context.Canceled) {
							t.Errorf("%s/%s cancelled: %v", test.Name, m.Name, err)
						}
						return
					}
					twin := test.Clone()
					twin.Name = fmt.Sprintf("%s+%d", test.Name, rep)
					v, err := mm.VerdictCtx(context.Background(), m, twin, 1+rep%2, false)
					if err != nil {
						t.Errorf("%s/%s: %v", twin.Name, m.Name, err)
						return
					}
					sameCounts(t, twin.Name+"/"+m.Name, v, want[i][j])
				}(rep, i, j, test, m)
			}
		}
	}
	wg.Wait()
}
