package core

// Observability contract tests for the judge pipeline: the disabled
// (nil-trace) fast path allocates nothing, traced judges report a
// counter ledger identical to the verdict's, phase timers stay within
// wall time on the serial regime, and concurrent traced judges build
// disjoint, well-formed span trees (run under -race in CI).

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
		// The per-execution sequence: eval guard, counter adds, span ops.
		tr.AddPhase(obs.PhaseEval, 0)
		tr.Add(obs.CtrCandidates, 1)
		sp, ctx2 := tr.StartSpan(ctx, "verdict")
		sp.Finish()
		if ctx2 != ctx {
			t.Fatal("nil StartSpan derived a context")
		}
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

// TestConcurrentTracedJudgesDisjointSpans runs concurrent judges each
// with its own trace (the service's per-request shape) plus the race
// detector, then checks every span tree separately: one "verdict" root
// per judge with a "prepare" child, every span finished, and no span
// shared between traces.
func TestConcurrentTracedJudgesDisjointSpans(t *testing.T) {
	m := PTX()
	test, err := litmus.ByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	traces := make([]*obs.Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := obs.New(fmt.Sprintf("judge-%d", i))
			ctx := obs.NewContext(context.Background(), tr)
			if _, err := JudgeCtx(ctx, m, test, 1+i%3); err != nil {
				t.Errorf("judge %d: %v", i, err)
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()

	owner := make(map[*obs.Span]int)
	var walk func(i int, tr *obs.Trace, sp *obs.Span)
	walk = func(i int, tr *obs.Trace, sp *obs.Span) {
		if prev, dup := owner[sp]; dup {
			t.Fatalf("span %q shared between judges %d and %d", sp.Name(), prev, i)
		}
		owner[sp] = i
		if sp.Trace() != tr {
			t.Fatalf("judge %d: span %q belongs to the wrong trace", i, sp.Name())
		}
		if !sp.Finished() {
			t.Fatalf("judge %d: span %q left open", i, sp.Name())
		}
		for _, c := range sp.Children() {
			if c.Parent() != sp {
				t.Fatalf("judge %d: span %q has a broken parent link", i, c.Name())
			}
			walk(i, tr, c)
		}
	}
	for i, tr := range traces {
		roots := tr.Roots()
		if len(roots) != 1 || roots[0].Name() != "verdict" {
			t.Fatalf("judge %d: roots = %d, want one verdict root", i, len(roots))
		}
		kids := roots[0].Children()
		if len(kids) != 1 || kids[0].Name() != "prepare" {
			t.Fatalf("judge %d: verdict children = %d, want one prepare span", i, len(kids))
		}
		walk(i, tr, roots[0])
	}
}
