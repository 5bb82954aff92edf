package campaign

import (
	"context"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestMemoRepair: a broken test's fix synthesizes once per (model, test)
// content pair — concurrent first requests and content-identical tests
// under other names all share the one search — and the memoized result is
// the verified minimal repair.
func TestMemoRepair(t *testing.T) {
	mm := NewMemo()
	m := core.PTX()
	broken := litmus.MPL1(litmus.FenceCTA)

	const n = 8
	var wg sync.WaitGroup
	got := make([]*analysis.RepairResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := mm.RepairCtx(context.Background(), m, broken, 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("request %d received a different repair object; sync.Once must dedupe", i)
		}
	}

	first, err := mm.RepairCtx(context.Background(), m, broken, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Verified || len(first.Actions) != 2 {
		t.Fatalf("repair = %s, want the two-membar strengthening", first.Summary())
	}

	// A content-identical test under another name joins the same entry.
	renamed, err := litmus.Parse(broken.String())
	if err != nil {
		t.Fatal(err)
	}
	again, err := mm.RepairCtx(context.Background(), m, renamed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("content-identical test did not share the memoized repair")
	}
}
