package core

// Scratch-pool tests: the fold borrows its evaluation scratches from each
// model's program pool and returns them when it finishes, so scratches
// cross judgements, tests and goroutines. These pin that a returned
// scratch carries nothing of its last judgement (no trace, no skeleton,
// no relations), that verdicts on shared models equal verdicts on fresh
// ones, and that every way a judgement ends returns its scratches.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// poolCorpus is the paper corpus plus shapes that fan out: combination
// units (stress-3w, mp+2w) and rf-chunk units (solo-chunk).
func poolCorpus() []*litmus.Test {
	return append(litmus.PaperTests(), litmustest.Stress(3), litmustest.MPWriters(2, false), litmustest.SoloChunk())
}

// freshVerdicts judges every test under freshly compiled builtin models,
// so no scratch is shared with any other judgement: want[i][j] is tests[i]
// under builtinModels()[j].
func freshVerdicts(t *testing.T, tests []*litmus.Test) [][]*Verdict {
	t.Helper()
	want := make([][]*Verdict, len(tests))
	for i, test := range tests {
		for _, m := range builtinModels() {
			v, err := JudgeWith(context.Background(), m, test, Opts{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", test.Name, m.Name, err)
			}
			want[i] = append(want[i], v)
		}
	}
	return want
}

// TestPooledScratchDropsTrace: once a traced judgement returns, its
// scratches are back in the pool without the trace, so later untraced
// RunExec calls and judgements on the same model add nothing to it.
func TestPooledScratchDropsTrace(t *testing.T) {
	m := PTX()
	tests := []*litmus.Test{litmus.MP(litmus.NoFence), litmustest.Stress(3), litmustest.SoloChunk()}
	var xs []*axiom.Execution
	for _, test := range tests {
		if _, err := JudgeWith(context.Background(), m, test, Opts{Visit: func(_ int, x *axiom.Execution, _ bool) error {
			xs = append(xs, x.Clone())
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	allows := func() {
		for _, x := range xs {
			m.prog.RunExec(x, nil)
		}
	}
	for _, par := range []int{1, 0, 4} {
		tr := obs.New(obs.NewID())
		traced := obs.NewContext(context.Background(), tr)
		for _, test := range tests {
			if _, err := JudgeWith(traced, m, test, Opts{Parallelism: par}); err != nil {
				t.Fatal(err)
			}
		}
		eval := tr.PhaseTime(obs.PhaseEval)
		if eval == 0 {
			t.Fatalf("parallelism %d: the traced judgements recorded no evaluation time", par)
		}
		allows()
		for _, test := range tests {
			for _, p := range []int{1, 0, 4} {
				if _, err := JudgeWith(context.Background(), m, test, Opts{Parallelism: p}); err != nil {
					t.Fatal(err)
				}
			}
		}
		allows()
		if got := tr.PhaseTime(obs.PhaseEval); got != eval {
			t.Errorf("parallelism %d: untraced work after the traced judgements moved their eval time %v -> %v", par, eval, got)
		}
	}
}

// TestPooledScratchDropsSkeleton: a returned scratch forgets the skeleton
// whose constant slots it held, along with the base relations those slots
// aliased, so evaluating an execution of that very skeleton afterwards
// (here through RunExec, on the executions a judgement visited, last
// skeleton first) recomputes every slot and matches a fresh model.
func TestPooledScratchDropsSkeleton(t *testing.T) {
	m, fresh := PTX(), PTX()
	for _, test := range []*litmus.Test{litmus.MP(litmus.NoFence), litmus.CoRR(), litmustest.Stress(3)} {
		var xs []*axiom.Execution
		var allowed []bool
		if _, err := JudgeWith(context.Background(), m, test, Opts{Visit: func(_ int, x *axiom.Execution, ok bool) error {
			xs, allowed = append(xs, x.Clone()), append(allowed, ok)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		for i := len(xs) - 1; i >= 0; i-- {
			got, want := m.prog.RunExec(xs[i], nil), fresh.prog.RunExec(xs[i], nil)
			if got.Allowed() != allowed[i] || len(got) != len(want) {
				t.Fatalf("%s: execution %d: RunExec allows %v after the judgement, visited %v", test.Name, i, got.Allowed(), allowed[i])
			}
			for c := range got {
				if got[c].OK != want[c].OK || !slices.Equal(got[c].Rel.Pairs(), want[c].Rel.Pairs()) {
					t.Fatalf("%s: execution %d: check %s differs from a fresh model's", test.Name, i, got[c].Name)
				}
			}
		}
	}
}

// TestPooledScratchInterleavedMatchesFresh judges the corpus on one set of
// shared models, tests interleaved and twice over, and every verdict must
// equal the fresh-model verdict on every field, witness text included: a
// borrowed scratch's skeleton cache and storage never leak into the next
// test's evaluation.
func TestPooledScratchInterleavedMatchesFresh(t *testing.T) {
	tests := poolCorpus()
	want := freshVerdicts(t, tests)
	shared := builtinModels()
	ctx := context.Background()
	for _, par := range []int{1, 0, 4} {
		for round := 0; round < 2; round++ {
			// Odd tests first, then even ones: consecutive judgements on a
			// model are of different tests in either round.
			for _, start := range []int{1, 0} {
				for i := start; i < len(tests); i += 2 {
					for j, m := range shared {
						got, err := JudgeWith(ctx, m, tests[i], Opts{Parallelism: par})
						if err != nil {
							t.Fatal(err)
						}
						sameVerdictFields(t, fmt.Sprintf("%s/%s/par%d/round%d", tests[i].Name, m.Name, par, round), got, want[i][j])
					}
				}
			}
			vs, err := JudgeModels(ctx, shared, tests[round], Opts{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for j := range shared {
				sameVerdictFields(t, fmt.Sprintf("%s/%s/par%d/models", tests[round].Name, shared[j].Name, par), vs[j], want[round][j])
			}
		}
	}
}

// TestConcurrentJudgesSharedModels has eight goroutines judge different
// tests on the same models at once, so pooled scratches cross goroutines
// between judgements (run under -race in CI); every verdict must equal
// the serial fresh-model one.
func TestConcurrentJudgesSharedModels(t *testing.T) {
	tests := poolCorpus()
	want := freshVerdicts(t, tests)
	shared := builtinModels()
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for _, par := range []int{0, 4} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for k := 0; k < len(tests); k += 8 {
						i := (g + k + r) % len(tests)
						for j, m := range shared {
							got, err := JudgeWith(context.Background(), m, tests[i], Opts{Parallelism: par})
							if err != nil {
								t.Error(err)
								return
							}
							sameVerdictFields(t, fmt.Sprintf("goroutine %d: %s/%s/par%d", g, tests[i].Name, m.Name, par), got, want[i][j])
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestJudgeReturnsScratches bounds a warm judgement's allocations on
// every way it can end: a verdict, a MaxExecs error and a cancelled
// context, on the calling goroutine and on workers. Each goroutine borrows
// its Assembler from axiom's pool and its scratch from the model's pool,
// streams on them and returns them, so no call allocates an Assembler, a
// scratch or their storage again; a path that kept its scratch would
// rebuild one per call (five allocations before any slot grows). The
// bounds sit a few allocations above the measured counts (27, 29, 5, 20,
// 2 and 17 in case order, at GOMAXPROCS 1 to 8; 32 and 34 for the first
// two while the Execution memoized its derived relations). While fan-out
// workers streamed on a fresh Assembler and returned the borrowed one
// unused, they were 90, 82, 5, 67, 2 and 21. Without verdict/par4, they were 263, 1610, 1640, 7 and 37
// when every judgement built fresh scratches, and 139, 52, 75, 3 and 26
// with a fold that never returned its Assembler.
func TestJudgeReturnsScratches(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation bounds are checked without -short (the race detector allocates)")
	}
	m := PTX()
	ctx := context.Background()
	mp := litmus.MP(litmus.NoFence)
	stress := litmustest.Stress(3)
	bounded, err := axiom.Prepare(stress, axiom.Opts{MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	full, err := axiom.Prepare(stress, axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, c := range []struct {
		name  string
		bound float64
		judge func() error
	}{
		{"mp verdict", 30, func() error {
			_, err := JudgeWith(ctx, m, mp, Opts{})
			return err
		}},
		{"verdict/par4", 32, func() error {
			_, err := JudgeWith(ctx, m, stress, Opts{Parallelism: 4, Enum: full})
			return err
		}},
		{"MaxExecs", 8, func() error {
			if _, err := JudgeWith(ctx, m, stress, Opts{Parallelism: 1, Enum: bounded}); err == nil {
				return fmt.Errorf("MaxExecs 100 did not bound the judgement")
			}
			return nil
		}},
		{"MaxExecs/par4", 23, func() error {
			if _, err := JudgeWith(ctx, m, stress, Opts{Parallelism: 4, Enum: bounded}); err == nil {
				return fmt.Errorf("MaxExecs 100 did not bound the judgement")
			}
			return nil
		}},
		{"cancelled", 4, func() error {
			if _, err := JudgeWith(cancelled, m, stress, Opts{Parallelism: 1, Enum: full}); err == nil {
				return fmt.Errorf("a cancelled judgement succeeded")
			}
			return nil
		}},
		{"cancelled/par4", 20, func() error {
			if _, err := JudgeWith(cancelled, m, stress, Opts{Parallelism: 4, Enum: full}); err == nil {
				return fmt.Errorf("a cancelled judgement succeeded")
			}
			return nil
		}},
	} {
		if err := c.judge(); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.judge(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: %.1f allocs per judgement, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}

// TestJudgeModelsAllocsPerSkeleton pins the pooled, in-place producer:
// judging the paper corpus under the four built-in models from prepared
// enumerations, with the Assembler and scratch pools warm, allocates
// about 7 times per streamed skeleton. What is left is the judgement's
// own result (the verdicts, the tallies of a four-model run) and the
// first witness's clone: the skeletons, rf choices and completions are
// rebuilt in storage the pooled Assemblers carry from one judgement to
// the next. Building each skeleton fresh cost about 53.
func TestJudgeModelsAllocsPerSkeleton(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	ctx := context.Background()
	ms := builtinModels()
	tests := litmus.PaperTests()
	ens := make([]*axiom.Enumeration, len(tests))
	skeletons := 0
	for i, test := range tests {
		en, err := axiom.Prepare(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		ens[i] = en
		var last uint64
		if err := en.StreamCtx(ctx, func(x *axiom.Execution) error {
			if k := x.SkeletonKey(); k != last {
				skeletons, last = skeletons+1, k
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	judge := func() {
		for i, en := range ens {
			if _, err := JudgeModels(ctx, ms, tests[i], Opts{Enum: en}); err != nil {
				t.Fatal(err)
			}
		}
	}
	judge() // warm the pools
	per := testing.AllocsPerRun(5, judge) / float64(skeletons)
	t.Logf("%.2f allocations per streamed skeleton (%d skeletons)", per, skeletons)
	if per > 9 {
		t.Errorf("judging the paper corpus costs %.2f allocations per streamed skeleton, want at most 9", per)
	}
}
