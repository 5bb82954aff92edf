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

// TestMemoSharesPreparation: once the memo knows the four models, a test
// judged under all four is prepared once — one "prepare" span over the
// four requests' traces — and its enumeration is held until the fourth
// model has judged it, then released. Each request's trace counts the
// candidates its own stream produced, though only the first prepared.
// Every verdict equals core.Judge's.
func TestMemoSharesPreparation(t *testing.T) {
	mm := NewMemo()
	models := fourModels()
	for _, m := range models {
		if _, err := mm.Verdict(m, litmus.SB()); err != nil {
			t.Fatal(err)
		}
	}
	test := litmus.MP(litmus.NoFence)
	prepares := 0
	for i, m := range models {
		tr := obs.New(m.Name)
		v, err := mm.VerdictCtx(obs.NewContext(context.Background(), tr), m, test, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		want, err := core.Judge(m, test)
		if err != nil {
			t.Fatal(err)
		}
		sameCounts(t, m.Name, v, want)
		if got := tr.Count(obs.CtrCandidates); got != int64(v.Candidates) {
			t.Errorf("%s: trace counted %d candidates, verdict %d", m.Name, got, v.Candidates)
		}
		if n := countSpans(tr, "verdict"); n != 1 {
			t.Errorf("%s: %d verdict spans, want 1", m.Name, n)
		}
		prepares += countSpans(tr, "prepare")
		if held, last := heldEnumeration(mm, test), i == len(models)-1; held == last {
			t.Errorf("after %s (%d of %d models): enumeration held = %v", m.Name, i+1, len(models), held)
		}
	}
	if prepares != 1 {
		t.Errorf("mp under four models prepared %d times, want once", prepares)
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
