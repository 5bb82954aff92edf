package core

import (
	"context"
	"runtime"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// BenchmarkCatEval measures the hot loop of every verdict the repo produces:
// evaluating the PTX model over the enumerated candidate executions of the
// paper's covered tests. Enumeration is re-done per iteration outside the
// timer, so each timed evaluation sees fresh executions (no carry-over of
// per-execution state between iterations) — exactly the Judge/Analyse
// pattern. The before/after numbers for the relation-engine refactor live in
// BENCH_relengine.json.
func BenchmarkCatEval(b *testing.B) {
	m := PTX()
	var covered []*litmus.Test
	for _, test := range litmus.PaperTests() {
		if ok, _ := Covers(test); ok {
			covered = append(covered, test)
		}
	}
	enumerate := func() [][]*axiom.Execution {
		sets := make([][]*axiom.Execution, len(covered))
		for i, test := range covered {
			execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
			if err != nil {
				b.Fatalf("%s: %v", test.Name, err)
			}
			sets[i] = execs
		}
		return sets
	}
	total := 0
	for _, execs := range enumerate() {
		total += len(execs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		execSets := enumerate()
		b.StartTimer()
		for _, execs := range execSets {
			for _, x := range execs {
				_ = m.prog.RunExec(x, nil).Allowed()
			}
		}
	}
	b.ReportMetric(float64(total), "execs/op")
}

// BenchmarkCatEvalVerdictOnly is BenchmarkCatEval on the verdict-only path
// callers that read just OK/Allowed() (Judge, the campaign memo) actually
// take: RunExecVerdict on one reused scratch, so the per-check relation
// cloning disappears and the skeleton-constant slots (cta-fence unions,
// po-loc filters) are computed once per skeleton instead of once per
// execution. Compare against BenchmarkCatEval for the win; before/after
// numbers live in BENCH_judge.json.
func BenchmarkCatEvalVerdictOnly(b *testing.B) {
	m := PTX()
	var covered []*litmus.Test
	for _, test := range litmus.PaperTests() {
		if ok, _ := Covers(test); ok {
			covered = append(covered, test)
		}
	}
	enumerate := func() [][]*axiom.Execution {
		sets := make([][]*axiom.Execution, len(covered))
		for i, test := range covered {
			execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
			if err != nil {
				b.Fatalf("%s: %v", test.Name, err)
			}
			sets[i] = execs
		}
		return sets
	}
	total := 0
	for _, execs := range enumerate() {
		total += len(execs)
	}
	sc := m.prog.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		execSets := enumerate()
		b.StartTimer()
		for _, execs := range execSets {
			for _, x := range execs {
				allowed, err := m.prog.RunExecVerdict(x, sc)
				if err != nil {
					b.Fatal(err)
				}
				_ = allowed
			}
		}
	}
	b.ReportMetric(float64(total), "execs/op")
}

// BenchmarkJudge measures the full herd-style pipeline (enumeration + model
// evaluation) per test, the granularity campaign memo entries are computed
// at. mp enumerates 4 candidates, so auto mode stays serial: this is the
// streaming + verdict-only win on the small-litmus common case.
func BenchmarkJudge(b *testing.B) {
	m := PTX()
	test := litmus.MP(litmus.NoFence)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Judge(m, test); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJudgeStress runs the full pipeline on a 15000-candidate test
// (litmustest.Stress) at an explicit parallelism — the generated-corpus / deep-
// unrolling regime the streaming fan-out targets. Serial vs Parallel ns/op
// is the multicore win; verdicts are identical by construction.
func benchJudgeStress(b *testing.B, parallelism int) {
	b.Helper()
	m := PTX()
	test := litmustest.Stress(4)
	b.ReportAllocs()
	var v *Verdict
	for i := 0; i < b.N; i++ {
		var err error
		if v, err = JudgeP(m, test, parallelism); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Candidates), "execs/op")
}

// BenchmarkJudgeStressSerial pins the one-worker streaming baseline.
func BenchmarkJudgeStressSerial(b *testing.B) { benchJudgeStress(b, 1) }

// BenchmarkJudgeStressParallel fans the same enumeration out across
// GOMAXPROCS workers with per-worker scratches.
func BenchmarkJudgeStressParallel(b *testing.B) { benchJudgeStress(b, runtime.GOMAXPROCS(0)) }

// benchJudgeSymmetric judges the maximally symmetric shape — five
// interchangeable solo writers of one value plus two readers, orbit size
// 5! = 120 — under explicit serial evaluation, so the Symmetric vs
// SymmetricExhaustive ns/op ratio isolates exactly what equivalence
// pruning saves: the exhaustive producer evaluates 4320 completions, the
// pruned one 36 canonical representatives standing for the same 4320
// weighted candidates (verdicts are identical by the differential oracle).
// Before/after numbers live in BENCH_prune.json.
func benchJudgeSymmetric(b *testing.B, opts axiom.Opts) {
	b.Helper()
	benchJudgeShape(b, litmustest.SymWriters(5), opts)
}

// benchJudgeShape prepares and judges test under PTX with serial
// evaluation, reporting the weighted candidates and the visited
// representatives per judgement.
func benchJudgeShape(b *testing.B, test *litmus.Test, opts axiom.Opts) {
	b.Helper()
	m := PTX()
	b.ReportAllocs()
	var v *Verdict
	for i := 0; i < b.N; i++ {
		en, err := axiom.Prepare(test, opts)
		if err != nil {
			b.Fatal(err)
		}
		if v, err = JudgeWith(context.Background(), m, test, Opts{Parallelism: 1, Enum: en}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.Candidates), "execs/op")
	b.ReportMetric(float64(v.Visited), "visits/op")
}

// BenchmarkJudgeSymmetric is the pruned (default) producer on the
// symmetric shape.
func BenchmarkJudgeSymmetric(b *testing.B) { benchJudgeSymmetric(b, axiom.DefaultOpts()) }

// BenchmarkJudgeSymmetricExhaustive is the same judgement with pruning
// disabled — the pre-change cost of the same verdict.
func BenchmarkJudgeSymmetricExhaustive(b *testing.B) {
	benchJudgeSymmetric(b, axiom.Opts{Exhaustive: true})
}

// BenchmarkJudgeMP3W judges mp+3w, the largest shape of the judge-large
// workload: mp plus three extra pairs of solo writers of distinct values
// to x and y. Its value-blind classes collapse 14,400 candidates into
// 5,476 visited representatives. Before/after numbers live in
// BENCH_prune.json.
func BenchmarkJudgeMP3W(b *testing.B) {
	benchJudgeShape(b, litmustest.MPWriters(3, false), axiom.DefaultOpts())
}

// BenchmarkJudgeMP3WExhaustive is the same judgement with pruning
// disabled: every one of the 14,400 candidates is evaluated.
func BenchmarkJudgeMP3WExhaustive(b *testing.B) {
	benchJudgeShape(b, litmustest.MPWriters(3, false), axiom.Opts{Exhaustive: true})
}

// benchJudgeCorpus judges every paper test under PTX, with or without the
// static prefilter in front — the campaign-shaped A/B behind
// BENCH_static.json. The static run reports how many of the corpus's
// verdicts the prefilter decided (skips/op): the remainder fall through
// to enumeration, so the end-to-end ratio tracks the hit-rate, not a
// per-test constant.
func benchJudgeCorpus(b *testing.B, static bool) {
	b.Helper()
	m := PTX()
	tests := litmus.PaperTests()
	b.ReportAllocs()
	var skipped int
	for i := 0; i < b.N; i++ {
		skipped = 0
		for _, t := range tests {
			var v *Verdict
			var err error
			if static {
				v, err = judgeStatic(context.Background(), m, t, 0)
			} else {
				v, err = Judge(m, t)
			}
			if err != nil {
				b.Fatal(err)
			}
			if v.StaticSkipped {
				skipped++
			}
		}
	}
	b.ReportMetric(float64(skipped), "skips/op")
	b.ReportMetric(float64(len(tests)), "tests/op")
}

// BenchmarkJudgePaperCorpus is the full-enumeration baseline over the
// paper corpus.
func BenchmarkJudgePaperCorpus(b *testing.B) { benchJudgeCorpus(b, false) }

// BenchmarkJudgePaperCorpusStatic is the same corpus with the static
// prefilter skipping decided verdicts.
func BenchmarkJudgePaperCorpusStatic(b *testing.B) { benchJudgeCorpus(b, true) }

// BenchmarkPrefilterDecided prices one decided prefilter call (the
// forced-cycle path on mp+membar.gls), preparation included — the fixed
// cost a static skip pays in place of streaming.
func BenchmarkPrefilterDecided(b *testing.B) {
	m := PTX()
	test := litmus.MP(litmus.FenceGL)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := m.Prefilter(test); res.Verdict == analysis.Unknown {
			b.Fatal("mp+membar.gls must be statically decided")
		}
	}
}

// BenchmarkPrefilterUndecided prices one Unknown prefilter call (mp with
// no fence), preparation included.
func BenchmarkPrefilterUndecided(b *testing.B) {
	m := PTX()
	test := litmus.MP(litmus.NoFence)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := m.Prefilter(test); res.Verdict != analysis.Unknown {
			b.Fatal("mp must be statically undecided under ptx")
		}
	}
}

// benchJudgeFencedStress judges mp+membar.gl+3w (litmustest.MPWriters),
// an inflated decidable shape: the condition still pins 1:r1=1 to T0's
// fenced write (unique writer of value 1) and 1:r2=0 to the initial
// value, so the forced-cycle analysis decides Forbidden exactly as for
// plain mp+membar.gls, while the rf/co choice space, and with it
// enumeration cost, grows factorially with the writer count (14,400
// candidates). It judges it with and without the prefilter — the headline BENCH_static.json pair. Unlike
// the paper corpus (whose 3-5 candidate enumerations cost about as much
// as the static analysis itself), here enumeration is the dominant cost
// and a static skip saves nearly all of it.
func benchJudgeFencedStress(b *testing.B, static bool) {
	b.Helper()
	m := PTX()
	test := litmustest.MPWriters(3, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var v *Verdict
		var err error
		if static {
			v, err = judgeStatic(context.Background(), m, test, 0)
		} else {
			v, err = Judge(m, test)
		}
		if err != nil {
			b.Fatal(err)
		}
		if v.Observable {
			b.Fatal("mp+membar.gl+3w must be forbidden")
		}
	}
}

// BenchmarkJudgeFencedStress enumerates the 14400-candidate decidable
// shape in full.
func BenchmarkJudgeFencedStress(b *testing.B) { benchJudgeFencedStress(b, false) }

// BenchmarkJudgeFencedStressStatic decides the same shape statically.
func BenchmarkJudgeFencedStressStatic(b *testing.B) { benchJudgeFencedStress(b, true) }
