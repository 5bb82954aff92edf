package core

// Observability contract tests for the judge pipeline: the disabled
// (nil-trace) fast path allocates nothing, traced judges report a
// counter ledger identical to the verdict's, phase timers stay within
// wall time on the serial regime, and concurrent traced judges each
// record only their own judgement (run under -race in CI).

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// TestDisabledTracerNoAllocHotPath pins the zero-overhead contract on
// the exact calls the judge hot loop makes per execution when tracing
// is off (mirrors TestWideAcyclicNoAlloc's style: AllocsPerRun over the
// primitive, not the full judge, whose own allocations would drown the
// signal).
func TestDisabledTracerNoAllocHotPath(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := obs.FromContext(ctx)
		if tr.Enabled() {
			t.Fatal("background context traced")
		}
		// The per-execution sequence: eval guard, counter adds.
		tr.AddPhase(obs.PhaseEval, 0)
		tr.Add(obs.CtrCandidates, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %v/op, want 0", allocs)
	}
}

// TestTracedJudgeLedgerMatchesVerdict judges every covered paper test
// with a trace attached and checks the producer-side ledger equals the
// verdict's: candidates, pruned weight, and visited representatives.
// On the serial regime (parallelism 1) it also bounds the phase sum by
// the wall time — phases are exclusive slices of one goroutine.
func TestTracedJudgeLedgerMatchesVerdict(t *testing.T) {
	m := PTX()
	for _, test := range litmus.PaperTests() {
		if ok, _ := Covers(test); !ok {
			continue
		}
		tr := obs.New(obs.NewID())
		ctx := obs.NewContext(context.Background(), tr)
		v, err := JudgeCtx(ctx, m, test, 1)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		snap := tr.Snapshot()
		if got, want := snap.Counters[obs.CtrCandidates], int64(v.Candidates); got != want {
			t.Errorf("%s: trace candidates = %d, verdict %d", test.Name, got, want)
		}
		if got, want := snap.Counters[obs.CtrPrunedWeight], int64(v.Pruned()); got != want {
			t.Errorf("%s: trace pruned weight = %d, verdict %d", test.Name, got, want)
		}
		if got, want := snap.Counters[obs.CtrVisited], int64(v.Visited); got != want {
			t.Errorf("%s: trace visited = %d, verdict %d", test.Name, got, want)
		}
		if snap.Counters[obs.CtrCombos] == 0 {
			t.Errorf("%s: no combos recorded", test.Name)
		}
		var sum time.Duration
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			sum += snap.Phases[p]
		}
		if sum > snap.Wall {
			t.Errorf("%s: phase sum %v exceeds wall %v on the serial regime", test.Name, sum, snap.Wall)
		}
		if snap.Phases[obs.PhaseEval] == 0 && v.Candidates > 0 {
			t.Errorf("%s: no eval time recorded over %d candidates", test.Name, v.Candidates)
		}
	}
}

// TestTracedJudgeLedgerParallelRegimes pins that the weighted ledger is
// independent of parallelism: explicit parallelism fans every unit out to
// the workers, and the atomically accumulated counters must still equal
// the verdict's.
func TestTracedJudgeLedgerParallelRegimes(t *testing.T) {
	m := PTX()
	test, err := litmus.ByName("coRR")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		tr := obs.New("par")
		ctx := obs.NewContext(context.Background(), tr)
		v, err := JudgeCtx(ctx, m, test, par)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if got := tr.Count(obs.CtrCandidates); got != int64(v.Candidates) {
			t.Errorf("par %d: trace candidates = %d, verdict %d", par, got, v.Candidates)
		}
		if got := tr.Count(obs.CtrVisited); got != int64(v.Visited) {
			t.Errorf("par %d: trace visited = %d, verdict %d", par, got, v.Visited)
		}
	}
}

// TestConcurrentTracedJudgesDisjointTraces runs concurrent judges each
// with its own trace (the service's per-request shape) plus the race
// detector, over tests of different sizes, then checks every trace
// separately: its visited and candidate counters equal its own verdict's,
// and its prepare phase is non-zero.
func TestConcurrentTracedJudgesDisjointTraces(t *testing.T) {
	m := PTX()
	names := []string{"mp", "sb", "coRR", "lb"}
	const n = 8
	traces := make([]*obs.Trace, n)
	verdicts := make([]*Verdict, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		test, err := litmus.ByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := obs.New(fmt.Sprintf("judge-%d", i))
			ctx := obs.NewContext(context.Background(), tr)
			v, err := JudgeWith(ctx, m, test, Opts{Parallelism: 1 + i%3})
			if err != nil {
				t.Errorf("judge %d: %v", i, err)
			}
			traces[i], verdicts[i] = tr, v
		}(i)
	}
	wg.Wait()

	for i, tr := range traces {
		v := verdicts[i]
		if v == nil {
			continue
		}
		snap := tr.Snapshot()
		if got, want := snap.Counters[obs.CtrVisited], int64(v.Visited); got != want {
			t.Errorf("judge %d (%s): trace visited = %d, verdict %d", i, v.Test.Name, got, want)
		}
		if got, want := snap.Counters[obs.CtrCandidates], int64(v.Candidates); got != want {
			t.Errorf("judge %d (%s): trace candidates = %d, verdict %d", i, v.Test.Name, got, want)
		}
		if snap.Phases[obs.PhasePrepare] == 0 {
			t.Errorf("judge %d (%s): no prepare time recorded", i, v.Test.Name)
		}
	}
}
