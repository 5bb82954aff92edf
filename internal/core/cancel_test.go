package core

import (
	"context"
	"errors"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// TestJudgeCtxCancelled: a cancelled context returns ctx.Err() at every
// parallelism, whether the judgement prepares (JudgeCtx) or starts from a
// prepared enumeration (Opts.Enum), so the serial head, the combo
// fan-out and the chunked fan-out each check it.
func TestJudgeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, test := range []*litmus.Test{litmus.CoRR(), litmustest.Stress(3), litmustest.SoloChunk(), litmustest.MPWriters(2, false)} {
		en, err := axiom.Prepare(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 1, 2, 4, 16} {
			if _, err := JudgeCtx(ctx, PTX(), test, par); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: parallelism %d: err = %v, want context.Canceled", test.Name, par, err)
			}
			if _, err := JudgeWith(ctx, PTX(), test, Opts{Parallelism: par, Enum: en}); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: prepared, parallelism %d: err = %v, want context.Canceled", test.Name, par, err)
			}
		}
	}
}

func TestForEachVerdictCtxCancelMidStream(t *testing.T) {
	// stress-3w enumerates hundreds of candidates; cancel after a few and
	// check the producer stops instead of exhausting the enumeration.
	test := litmustest.Stress(3)
	total, err := PTX().ForEachVerdictCtx(context.Background(), test, 1, func(int, *axiom.Execution, bool) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total < 16 {
		t.Fatalf("stress test enumerates only %d candidates; test needs a bigger stream", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err = PTX().ForEachVerdictCtx(ctx, test, 1, func(int, *axiom.Execution, bool) error {
		seen++
		if seen == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= total {
		t.Errorf("saw %d of %d candidates; cancellation did not stop the stream early", seen, total)
	}
}

// TestForEachVerdictCtxCancelParallel: the visitor returns ctx.Err() for
// a cancelled context at every parallelism it is handed, before any
// visit.
func TestForEachVerdictCtxCancelParallel(t *testing.T) {
	test := litmustest.Stress(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{0, 1, 4} {
		seen := 0
		_, err := PTX().ForEachVerdictCtx(ctx, test, par, func(int, *axiom.Execution, bool) error {
			seen++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if seen != 0 {
			t.Errorf("parallelism %d: %d visits under a cancelled context, want 0", par, seen)
		}
	}
}

func TestJudgeCtxBackgroundMatchesJudge(t *testing.T) {
	for _, test := range []*litmus.Test{litmus.CoRR(), litmus.MP(litmus.NoFence)} {
		want, err := Judge(PTX(), test)
		if err != nil {
			t.Fatal(err)
		}
		got, err := JudgeCtx(context.Background(), PTX(), test, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: JudgeCtx %q != Judge %q", test.Name, got, want)
		}
	}
}
