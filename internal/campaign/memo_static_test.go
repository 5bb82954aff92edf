package campaign

import (
	"context"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestMemoVerdictStatic: a statically decided test skips enumeration and
// bumps the memo's skip ledger; a statically unknown test falls back to
// the full judge; and the static entry never shadows a later full-count
// Verdict request for the same (model, test).
func TestMemoVerdictStatic(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()

	decided := litmus.MP(litmus.FenceGL) // statically forbidden under ptx
	v, err := mm.VerdictStaticCtxP(context.Background(), m, decided, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.StaticSkipped || v.Observable {
		t.Fatalf("VerdictStaticCtxP(mp+membar.gls) = %+v, want a static Never", v)
	}
	if v.Candidates != 0 {
		t.Errorf("static verdict carries %d candidates; nothing was enumerated", v.Candidates)
	}
	if got := mm.StaticSkipped(); got != 1 {
		t.Errorf("StaticSkipped = %d, want 1", got)
	}

	// Re-request: memoized, the ledger must not double-count.
	if _, err := mm.VerdictStaticCtxP(context.Background(), m, decided, 0); err != nil {
		t.Fatal(err)
	}
	if got := mm.StaticSkipped(); got != 1 {
		t.Errorf("StaticSkipped after repeat = %d, want still 1", got)
	}

	// The same entry still serves a full enumerated verdict on request.
	full, err := mm.Verdict(m, decided)
	if err != nil {
		t.Fatal(err)
	}
	if full.StaticSkipped || full.Candidates == 0 {
		t.Errorf("Verdict after VerdictStaticCtxP = %+v, want full enumeration counts", full)
	}
	if full.Observable != v.Observable {
		t.Errorf("static observable %v disagrees with enumeration %v", v.Observable, full.Observable)
	}

	unknown := litmus.CoRR() // statically unknown under ptx
	u, err := mm.VerdictStaticCtxP(context.Background(), m, unknown, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.StaticSkipped || u.Candidates == 0 {
		t.Errorf("VerdictStaticCtxP(coRR) = %+v, want enumeration fallback", u)
	}
	if got := mm.StaticSkipped(); got != 1 {
		t.Errorf("StaticSkipped after fallback = %d, want still 1", got)
	}
}

// TestMemoVerdictStaticConcurrent: concurrent first requests compute the
// static entry exactly once (ledger counts 1) and agree on the pointer.
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
			verdicts[i], errs[i] = mm.VerdictStaticCtxP(context.Background(), m, tst, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if verdicts[i] != verdicts[0] {
			t.Errorf("request %d got a different verdict object; the entry must memoize", i)
		}
	}
	if got := mm.StaticSkipped(); got != 1 {
		t.Errorf("StaticSkipped = %d, want exactly 1 under concurrency", got)
	}
}
