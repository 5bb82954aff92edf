package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// shortSpec is a small tests×chips matrix that exercises every engine path
// (multi-test, multi-chip, weak and strong profiles) quickly enough for
// short/race mode.
func shortSpec(parallelism int) Spec {
	return Spec{
		Tests: []*litmus.Test{
			litmus.MP(litmus.NoFence),
			litmus.SBGlobal(),
			litmus.CoRR(),
		},
		Chips:       []*chip.Profile{chip.GTXTitan, chip.GTX280},
		Runs:        400,
		Seed:        42,
		Parallelism: parallelism,
	}
}

// TestDeterministicAcrossWorkerCount is the engine's core contract: the
// aggregated outcomes of a ≥3-test × 2-chip campaign are byte-identical
// with one worker and with eight.
func TestDeterministicAcrossWorkerCount(t *testing.T) {
	one, err := Run(shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Run(shortSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Outcomes) != 6 || len(eight.Outcomes) != len(one.Outcomes) {
		t.Fatalf("want 3×2 = 6 outcomes, got %d and %d", len(one.Outcomes), len(eight.Outcomes))
	}
	for i := range one.Outcomes {
		a, b := one.Outcomes[i], eight.Outcomes[i]
		if a.Matches != b.Matches {
			t.Errorf("job %d: matches %d vs %d across worker counts", i, a.Matches, b.Matches)
		}
		if len(a.Histogram) != len(b.Histogram) {
			t.Errorf("job %d: histogram sizes differ", i)
		}
		for k, v := range a.Histogram {
			if b.Histogram[k] != v {
				t.Errorf("job %d: histogram differs at %q: %d vs %d", i, k, v, b.Histogram[k])
			}
		}
		if a.String() != b.String() {
			t.Errorf("job %d: rendered outcomes differ", i)
		}
	}
}

// TestShortCampaign is the -short/-race smoke: one small campaign through
// the concurrent engine with a cell sink and axes checks.
func TestShortCampaign(t *testing.T) {
	var mu sync.Mutex
	finished := make(map[int]int)
	spec := shortSpec(4)
	spec.Sink = func(ev obs.CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Kind == obs.CellFinish {
			finished[ev.Index]++
		}
	}
	agg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(finished) != 6 {
		t.Errorf("sink saw %d finished cells, want 6", len(finished))
	}
	for i, n := range finished {
		if n != 1 {
			t.Errorf("cell %d finished %d times", i, n)
		}
	}
	if len(agg.Tests) != 3 || len(agg.Chips) != 2 || len(agg.Incants) != 1 {
		t.Errorf("axes %d×%d×%d", len(agg.Tests), len(agg.Chips), len(agg.Incants))
	}
	// mp on Titan under default incantations is observable; anything on the
	// strong GTX 280 is not.
	if !agg.Outcome(0, 0, 0).Observed() {
		t.Error("mp must be observed on Titan")
	}
	for ti := range agg.Tests {
		if agg.Outcome(ti, 1, 0).Observed() {
			t.Errorf("%s observed on GTX 280", agg.Tests[ti].Name)
		}
	}
}

func TestSeedFn(t *testing.T) {
	var seedCalls atomic.Int64
	var tests []*litmus.Test
	for _, mk := range []func(litmus.Fence) *litmus.Test{litmus.MP, litmus.MPL1} {
		for _, f := range litmus.Fences {
			tests = append(tests, mk(f))
		}
	}
	spec := Spec{
		Tests: tests,
		Chips: []*chip.Profile{chip.GTXTitan},
		Runs:  100,
		SeedFn: func(j Job) int64 {
			seedCalls.Add(1)
			return int64(j.TestIndex*31 + j.ChipIndex)
		},
	}
	agg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Tests) != 8 || len(agg.Jobs) != 8 { // 2 makers × 4 fences, one chip
		t.Fatalf("tests = %d, jobs = %d", len(agg.Tests), len(agg.Jobs))
	}
	if seedCalls.Load() != 8 {
		t.Errorf("SeedFn called %d times", seedCalls.Load())
	}
	for i, j := range agg.Jobs {
		if j.Seed != int64(j.TestIndex*31+j.ChipIndex) {
			t.Errorf("job %d seed = %d", i, j.Seed)
		}
	}
}

func TestIncantFn(t *testing.T) {
	spec := shortSpec(2)
	spec.IncantFn = func(tst *litmus.Test, base chip.Incant) chip.Incant {
		if len(tst.Scope.CTAs) == 1 {
			base.BankConflicts = true
		}
		return base
	}
	agg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// coRR (test index 2, so job index 2·2+0 = 4) is intra-CTA: its jobs
	// get bank conflicts; the inter-CTA mp jobs do not.
	if !agg.Jobs[4].Incant.BankConflicts {
		t.Error("intra-CTA job must gain bank conflicts")
	}
	if agg.Jobs[0].Incant.BankConflicts {
		t.Error("inter-CTA job must not gain bank conflicts")
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := Run(Spec{Tests: []*litmus.Test{litmus.CoRR()}}); err == nil {
		t.Error("no chips must error")
	}
	if _, err := Run(Spec{Chips: []*chip.Profile{chip.GTXTitan}}); err == nil {
		t.Error("no tests must error")
	}
}

func TestStreamDeliversEveryJob(t *testing.T) {
	seen := make(map[int]bool)
	for r := range StreamCtx(context.Background(), shortSpec(4)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seen[r.Job.Index] {
			t.Errorf("job %d delivered twice", r.Job.Index)
		}
		seen[r.Job.Index] = true
		if r.Outcome == nil || r.Outcome.Runs != 400 {
			t.Errorf("job %d outcome malformed", r.Job.Index)
		}
	}
	if len(seen) != 6 {
		t.Errorf("streamed %d results, want 6", len(seen))
	}
}

func TestStreamSpecError(t *testing.T) {
	var got []Result
	for r := range StreamCtx(context.Background(), Spec{}) {
		got = append(got, r)
	}
	if len(got) != 1 || got[0].Err == nil {
		t.Errorf("spec error must stream exactly one failing result, got %v", got)
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 3, 8} {
		var counts [n]atomic.Int32
		if err := ForEach(n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers %d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

// TestForEachPropagatesFirstErrorByIndex: with two failing indices the
// lower one's error is returned on every repetition, whatever the worker
// count and scheduling.
func TestForEachPropagatesFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{4, 8} {
		for rep := 0; rep < 100; rep++ {
			err := ForEach(100, workers, func(i int) error {
				switch i {
				case 17:
					return errA
				case 60:
					return errB
				}
				return nil
			})
			if err != errA {
				t.Fatalf("workers %d, repetition %d: got %v, want index 17's error", workers, rep, err)
			}
		}
	}
}

// TestRunFirstErrorByJobIndex: a campaign whose jobs 3 and 12 fail returns
// job 3's error on every repetition.
func TestRunFirstErrorByJobIndex(t *testing.T) {
	var tests []*litmus.Test
	for _, f := range litmus.Fences {
		tests = append(tests, litmus.MP(f), litmus.MPL1(f))
	}
	errLow, errHigh := errors.New("job 3"), errors.New("job 12")
	spec := Spec{
		Tests:       tests,
		Chips:       []*chip.Profile{chip.GTXTitan, chip.GTX280},
		Parallelism: 4,
		RunJob: func(_ context.Context, j Job, _ int) (*harness.Outcome, error) {
			switch j.Index {
			case 3:
				return nil, errLow
			case 12:
				return nil, errHigh
			}
			return &harness.Outcome{Test: j.Test}, nil
		},
	}
	for rep := 0; rep < 100; rep++ {
		if _, err := Run(spec); !errors.Is(err, errLow) {
			t.Fatalf("repetition %d: got %v, want job 3's error", rep, err)
		}
	}
}

func TestJobSeedDecorrelates(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := jobSeed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if jobSeed(7, 0) != jobSeed(7, 0) {
		t.Error("jobSeed must be deterministic")
	}
	if jobSeed(7, 0) == jobSeed(8, 0) {
		t.Error("base seed must matter")
	}
}

func TestMemoComputesOncePerTest(t *testing.T) {
	memo := NewMemo()
	m := core.PTX()
	test := litmus.MP(litmus.NoFence)

	// Hammer the memo from the pool: every call must observe the same
	// computed analysis (pointer-identical) with no duplicated work visible.
	infos := make([]*ModelInfo, 16)
	if err := ForEach(16, 8, func(i int) error {
		info, err := memo.Analyse(m, test)
		infos[i] = info
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		if infos[i] != infos[0] {
			t.Fatal("memo returned distinct analyses for one test")
		}
	}
	if !infos[0].WeakAllowed {
		t.Error("mp's weak outcome must be model-allowed")
	}
	if len(infos[0].Allowed) == 0 {
		t.Error("analysis must find allowed states")
	}

	v, err := memo.Verdict(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if v.Candidates == 0 {
		t.Error("the analysis's verdict must enumerate candidates")
	}
	if !v.Observable {
		t.Error("verdict must allow mp")
	}
	v2, _ := memo.Verdict(m, test)
	if v2 != v {
		t.Error("verdict must be memoized")
	}

	// A different model has its own slot.
	sc, err := memo.Verdict(core.SC(), test)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Observable {
		t.Error("SC must forbid mp")
	}
}

// TestMemoContentAddressed pins the content-addressed keying: separately
// constructed (pointer-distinct) but semantically identical tests and models
// share one memo slot, and a renamed-but-identical test still hits it.
func TestMemoContentAddressed(t *testing.T) {
	memo := NewMemo()

	a, err := memo.Analyse(core.PTX(), litmus.CoRR())
	if err != nil {
		t.Fatal(err)
	}
	b, err := memo.Analyse(core.PTX(), litmus.CoRR()) // fresh *Model, fresh *Test
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("pointer-distinct identical (model, test) pairs must share a slot")
	}

	renamed := litmus.CoRR()
	renamed.Name = "corr-under-an-alias"
	c, err := memo.Analyse(core.PTX(), renamed)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("renamed identical test must share the slot (fingerprints ignore names)")
	}

	v1, err := memo.Verdict(core.PTX(), litmus.CoRR())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := memo.Verdict(core.PTX(), litmus.CoRR())
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("verdicts of identical pairs must be memoized across pointers")
	}
}

// TestStreamCtxCancelTruncates: cancelling the stream's context stops
// delivery promptly and still closes the channel.
func TestStreamCtxCancelTruncates(t *testing.T) {
	spec := shortSpec(1) // serial pool: results arrive one at a time
	spec.Runs = 2000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := StreamCtx(ctx, spec)

	got := 0
	for range ch {
		got++
		if got == 1 {
			cancel()
		}
	}
	// One result was read before cancellation; at most the jobs already in
	// flight may have slipped through, never the whole campaign.
	if got >= 6 {
		t.Errorf("read %d of 6 results after cancelling at the first", got)
	}
}

// TestStreamCtxMatchesRun: every outcome an uncancelled StreamCtx delivers
// renders exactly as Run's outcome for the same job.
func TestStreamCtxMatchesRun(t *testing.T) {
	agg, err := Run(shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for res := range StreamCtx(context.Background(), shortSpec(4)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		seen++
		if got, want := res.Outcome.String(), agg.Outcomes[res.Job.Index].String(); got != want {
			t.Errorf("job %d: streamed\n%s\nRun\n%s", res.Job.Index, got, want)
		}
	}
	if seen != 6 {
		t.Errorf("delivered %d of 6 jobs", seen)
	}
}
