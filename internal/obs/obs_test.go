package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceNoOps(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	if tr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	tr.AddPhase(PhaseEval, time.Second)
	tr.Add(CtrCandidates, 7)
	if tr.PhaseTime(PhaseEval) != 0 || tr.Count(CtrCandidates) != 0 {
		t.Fatal("nil trace accumulated")
	}
	if ctx := NewContext(context.Background(), tr); FromContext(ctx) != nil {
		t.Fatal("untraced context carries a trace")
	}
	snap := tr.Snapshot()
	if snap.ID != "" || snap.Wall != 0 {
		t.Fatal("nil snapshot not zero")
	}
}

func TestTraceAccumulates(t *testing.T) {
	tr := New("abc")
	if FromContext(NewContext(context.Background(), tr)) != tr {
		t.Fatal("FromContext lost the trace")
	}
	tr.AddPhase(PhaseParse, 3*time.Millisecond)
	tr.AddPhase(PhaseParse, 2*time.Millisecond)
	tr.Add(CtrCombos, 4)
	tr.Add(CtrCombos, 1)
	if got := tr.PhaseTime(PhaseParse); got != 5*time.Millisecond {
		t.Fatalf("phase = %v, want 5ms", got)
	}
	if got := tr.Count(CtrCombos); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	snap := tr.Snapshot()
	if snap.ID != "abc" || snap.Phases[PhaseParse] != 5*time.Millisecond || snap.Counters[CtrCombos] != 5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	if snap.Wall <= 0 {
		t.Fatalf("wall = %v, want > 0", snap.Wall)
	}
}

// TestDisabledPathNoAlloc pins the zero-overhead contract: every obs
// primitive on the disabled (nil-trace) path allocates nothing. The
// judge hot loop runs exactly these calls when tracing is off.
func TestDisabledPathNoAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := FromContext(ctx)
		if tr.Enabled() {
			t.Fatal("background context traced")
		}
		tr.Add(CtrCandidates, 1)
		tr.AddPhase(PhaseEval, time.Microsecond)
		if NewContext(ctx, nil) != ctx {
			t.Fatal("disabled NewContext derived a new context")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op, want 0", allocs)
	}
}

// TestConcurrentAccumulation exercises concurrent counter and phase
// accumulation on one shared trace plus N private traces under the race
// detector: the shared trace sums every goroutine's additions and each
// private trace holds only its own.
func TestConcurrentAccumulation(t *testing.T) {
	const n = 8
	shared := New("shared")
	traces := make([]*Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared.Add(CtrVisited, 1)
			shared.AddPhase(PhaseMerge, time.Microsecond)
			tr := New(fmt.Sprintf("t%d", i))
			tr.Add(CtrVisited, int64(i+1))
			tr.AddPhase(PhaseEval, time.Duration(i+1)*time.Microsecond)
			traces[i] = tr
		}(i)
	}
	wg.Wait()

	if got := shared.Count(CtrVisited); got != n {
		t.Fatalf("shared counter = %d, want %d", got, n)
	}
	if got := shared.PhaseTime(PhaseMerge); got != n*time.Microsecond {
		t.Fatalf("shared merge phase = %v, want %v", got, n*time.Microsecond)
	}
	for i, tr := range traces {
		snap := tr.Snapshot()
		if snap.Counters[CtrVisited] != int64(i+1) || snap.Phases[PhaseEval] != time.Duration(i+1)*time.Microsecond {
			t.Fatalf("trace %s = %+v, want only its own additions", tr.ID(), snap)
		}
		if snap.Phases[PhaseMerge] != 0 {
			t.Fatalf("trace %s picked up the shared trace's merge time", tr.ID())
		}
	}
}

func TestPhaseTable(t *testing.T) {
	tr := New("deadbeef")
	tr.AddPhase(PhaseParse, 100*time.Microsecond)
	tr.AddPhase(PhaseEval, 2*time.Millisecond)
	tr.Add(CtrCandidates, 128)
	tr.Add(CtrVisited, 64)
	tr.Add(CtrPrunedWeight, 64)
	got := tr.Snapshot().PhaseTable()
	for _, want := range []string{
		"trace deadbeef",
		"parse", "prepare", "enumerate", "eval", "merge", "wall",
		"candidates=128", "visited=64", "pruned_weight=64",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("phase table missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "lookup") {
		t.Fatalf("zero lookup phase should be elided:\n%s", got)
	}
	tr.AddPhase(PhaseLookup, time.Millisecond)
	if got := tr.Snapshot().PhaseTable(); !strings.Contains(got, "lookup") {
		t.Fatalf("non-zero lookup phase should print:\n%s", got)
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if a == b {
		t.Fatal("NewID returned duplicates")
	}
	if len(a) != 16 {
		t.Fatalf("NewID length = %d, want 16", len(a))
	}
	for _, c := range a {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("NewID has non-hex char %q in %q", c, a)
		}
	}
}

func TestPhaseAndCounterNames(t *testing.T) {
	wantPhases := []string{"parse", "prepare", "enumerate", "eval", "merge", "lookup"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != wantPhases[p] {
			t.Fatalf("phase %d = %q, want %q", p, p.String(), wantPhases[p])
		}
	}
	wantCtrs := []string{"combos", "rf_choices", "pruned_weight", "memo_hits", "candidates", "visited"}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() != wantCtrs[c] {
			t.Fatalf("counter %d = %q, want %q", c, c.String(), wantCtrs[c])
		}
	}
}
