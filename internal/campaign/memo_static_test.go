package campaign

import (
	"context"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// TestMemoVerdictStatic: a statically decided test skips enumeration and
// is memoized; a statically unknown test falls back to the full judge;
// and the static entry never shadows a later full-count Verdict request
// for the same (model, test).
func TestMemoVerdictStatic(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()

	decided := litmus.MP(litmus.FenceGL) // statically forbidden under ptx
	v, err := mm.VerdictCtx(context.Background(), m, decided, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !v.StaticSkipped || v.Observable {
		t.Fatalf("static VerdictCtx(mp+membar.gls) = %+v, want a static Never", v)
	}
	if v.Candidates != 0 {
		t.Errorf("static verdict carries %d candidates; nothing was enumerated", v.Candidates)
	}

	// Re-request: memoized.
	again, err := mm.VerdictCtx(context.Background(), m, decided, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != v {
		t.Errorf("repeated static request got %+v, want the memoized %+v", again, v)
	}

	// The same entry still serves a full enumerated verdict on request.
	full, err := mm.Verdict(m, decided)
	if err != nil {
		t.Fatal(err)
	}
	if full.StaticSkipped || full.Candidates == 0 {
		t.Errorf("Verdict after a static VerdictCtx = %+v, want full enumeration counts", full)
	}
	if full.Observable != v.Observable {
		t.Errorf("static observable %v disagrees with enumeration %v", v.Observable, full.Observable)
	}

	unknown := litmus.CoRR() // statically unknown under ptx
	u, err := mm.VerdictCtx(context.Background(), m, unknown, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if u.StaticSkipped || u.Candidates == 0 {
		t.Errorf("static VerdictCtx(coRR) = %+v, want enumeration fallback", u)
	}
}

// TestMemoVerdictStaticConcurrent: concurrent first requests for a
// statically decided test agree on the memoized verdict object.
func TestMemoVerdictStaticConcurrent(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()
	tst := litmus.MP(litmus.FenceGL)

	const n = 16
	verdicts := make([]*core.Verdict, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i], errs[i] = mm.VerdictCtx(context.Background(), m, tst, 0, true)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !verdicts[i].StaticSkipped {
			t.Errorf("request %d: %+v, want a static verdict", i, verdicts[i])
		}
		if verdicts[i] != verdicts[0] {
			t.Errorf("request %d got a different verdict object; the entry must memoize", i)
		}
	}
}

// TestMemoStaticFallbackJoinsVerdict: a statically undecided request
// enumerates into the pair's one verdict, so a later plain request returns
// the same object and its trace records no visits.
func TestMemoStaticFallbackJoinsVerdict(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()
	test := litmus.CoRR() // statically unknown under ptx
	first, err := mm.VerdictCtx(context.Background(), m, test, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.StaticSkipped {
		t.Fatal("coRR is statically decided under PTX; pick a test that enumerates")
	}
	tr := obs.New("plain")
	second, err := mm.VerdictCtx(obs.NewContext(context.Background(), tr), m, test, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("plain request after the static fallback got %v, want the same verdict object %v", second, first)
	}
	if n := tr.Count(obs.CtrVisited); n != 0 {
		t.Errorf("plain request after the static fallback visited %d executions, want 0", n)
	}
}

// TestMemoAnalyseJoinsVerdict: Analyse hands the verdict it computed to
// the pair, so a later Verdict enumerates nothing and agrees with the
// analysis and with core.Judge.
func TestMemoAnalyseJoinsVerdict(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()
	test := litmus.CoRR()
	info, err := mm.Analyse(m, test)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("verdict")
	v, err := mm.VerdictCtx(obs.NewContext(context.Background(), tr), m, test, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Count(obs.CtrVisited); n != 0 {
		t.Errorf("Verdict after Analyse visited %d executions, want 0", n)
	}
	if v.Candidates != info.Candidates || v.Allowed != info.AllowedCount || v.Observable != info.WeakAllowed {
		t.Errorf("Verdict after Analyse = %v, analysis %+v", v, info)
	}
	want, err := core.Judge(m, test)
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "verdict after Analyse", v, want)
}

// TestMemoStaticRepeatSkipsPrepare: with one model the memo releases a
// test's enumeration right after its first judgement, so a repeated static
// request for a decided pair must return the stored verdict without
// preparing the test again; its trace records no prepare phase.
func TestMemoStaticRepeatSkipsPrepare(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()
	decided := litmus.MP(litmus.FenceGL) // statically forbidden under ptx
	first, err := mm.VerdictCtx(context.Background(), m, decided, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !first.StaticSkipped {
		t.Fatalf("mp+membar.gls is not statically decided under PTX: %+v", first)
	}
	tr := obs.New("repeat")
	again, err := mm.VerdictCtx(obs.NewContext(context.Background(), tr), m, decided, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("repeat got %+v, want the stored %+v", again, first)
	}
	if n := countSpans(tr, "prepare"); n != 0 {
		t.Errorf("repeat of a decided pair recorded %d prepare spans, want 0", n)
	}
	if d := tr.Snapshot().Phases[obs.PhasePrepare]; d != 0 {
		t.Errorf("repeat of a decided pair spent %v in the prepare phase, want none", d)
	}
}
