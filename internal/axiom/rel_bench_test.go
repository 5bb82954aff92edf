package axiom

import (
	"math/rand"
	"testing"
)

// benchRels builds a deterministic family of relations shaped like the ones
// model evaluation manipulates: a few tens of events, density around the
// po/com mix of a litmus execution.
func benchRels(n, pairs int, seed int64) (Rel, Rel) {
	rng := rand.New(rand.NewSource(seed))
	a, b := NewRel(), NewRel()
	for i := 0; i < pairs; i++ {
		a.Add(EventID(rng.Intn(n)), EventID(rng.Intn(n)))
		b.Add(EventID(rng.Intn(n)), EventID(rng.Intn(n)))
	}
	return a, b
}

// benchRelOps measures the operations a compiled .cat program runs on
// relations over n events: the Set* forms into a warm destination, as the
// evaluator's scratch slots hold them, the acyclicity check and Pairs.
func benchRelOps(b *testing.B, n, pairs int) {
	x, y := benchRels(n, pairs, 1)
	for _, op := range []struct {
		name string
		set  func(dst *Rel, a, b Rel)
	}{
		{"SetUnion", (*Rel).SetUnion},
		{"SetInter", (*Rel).SetInter},
		{"SetMinus", (*Rel).SetMinus},
	} {
		b.Run(op.name, func(b *testing.B) {
			var dst Rel
			op.set(&dst, x, y) // warm destination
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.set(&dst, x, y)
			}
		})
	}
	b.Run("Acyclic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = x.Acyclic()
		}
	})
	b.Run("Pairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = x.Pairs()
		}
	})
}

// BenchmarkRelOps measures the relation-algebra kernel the model evaluator
// is built on: the before/after numbers for the bitset refactor are recorded
// in BENCH_relengine.json.
func BenchmarkRelOps(b *testing.B) { benchRelOps(b, 24, 96) }

// BenchmarkRelOpsWide pins the multi-word slow path at ~100 events — past
// the 64-event single-word line, where the kind-filter masks, fr index
// buffers and Acyclic queues fall back to pooled scratch — at the same
// density as BenchmarkRelOps, 2 words a row.
func BenchmarkRelOpsWide(b *testing.B) { benchRelOps(b, 100, 400) }
