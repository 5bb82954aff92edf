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
// verdict computations, and skips/op counts the returned verdicts the
// prefilter decided.
func benchMemoCorpus(b *testing.B, static bool) {
	b.Helper()
	m := core.PTX()
	tests := litmus.PaperTests()
	b.ReportAllocs()
	skipped := 0
	for i := 0; i < b.N; i++ {
		mm := NewMemo()
		skipped = 0
		for _, t := range tests {
			v, err := mm.VerdictCtx(context.Background(), m, t, 0, static)
			if err != nil {
				b.Fatal(err)
			}
			if v.StaticSkipped {
				skipped++
			}
		}
	}
	b.ReportMetric(float64(skipped), "skips/op")
}

// BenchmarkMemoCorpus is the cold full-enumeration campaign baseline.
func BenchmarkMemoCorpus(b *testing.B) { benchMemoCorpus(b, false) }

// BenchmarkMemoCorpusStatic is the same cold campaign with the static
// prefilter deciding what it can.
func BenchmarkMemoCorpusStatic(b *testing.B) { benchMemoCorpus(b, true) }

// BenchmarkMemoCorpusModels prices a cold campaign pass under the four
// builtin models — a fresh memo judging every paper test under each — the
// shape of the judge workload. Once the memo knows the four models, each
// test's first request judges all four from one candidate stream.
func BenchmarkMemoCorpusModels(b *testing.B) {
	models := []*core.Model{core.PTX(), core.SC(), core.RMO(), core.SorensenOp()}
	tests := litmus.PaperTests()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mm := NewMemo()
		for _, t := range tests {
			for _, m := range models {
				if _, err := mm.VerdictCtx(context.Background(), m, t, 0, false); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
