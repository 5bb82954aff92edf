package campaign

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// benchMemoCorpus prices a cold campaign pass — a fresh memo judging
// every paper test under PTX — with and without the static prefilter.
// This is the memo-layer view of the core BenchmarkJudgePaperCorpus A/B
// (BENCH_static.json): each op is one campaign's worth of first-time
// verdict computations, and skips/op is the prefilter hit count the
// memo's ledger records.
func benchMemoCorpus(b *testing.B, static bool) {
	b.Helper()
	m := core.PTX()
	tests := litmus.PaperTests()
	b.ReportAllocs()
	var skipped int64
	for i := 0; i < b.N; i++ {
		mm := NewMemo()
		for _, t := range tests {
			var err error
			if static {
				_, err = mm.VerdictStaticCtxP(context.Background(), m, t, 0)
			} else {
				_, err = mm.Verdict(m, t)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		skipped = mm.StaticSkipped()
	}
	b.ReportMetric(float64(skipped), "skips/op")
}

// BenchmarkMemoCorpus is the cold full-enumeration campaign baseline.
func BenchmarkMemoCorpus(b *testing.B) { benchMemoCorpus(b, false) }

// BenchmarkMemoCorpusStatic is the same cold campaign with the static
// prefilter deciding what it can.
func BenchmarkMemoCorpusStatic(b *testing.B) { benchMemoCorpus(b, true) }
