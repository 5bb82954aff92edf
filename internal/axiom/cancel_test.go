package axiom

import (
	"context"
	"errors"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestEnumerateStreamCtxCancelledUpFront: a cancelled context stops
// PrepareCtx before the fixpoint, and StreamCtx on an enumeration prepared
// beforehand before its first execution.
func TestEnumerateStreamCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareCtx(ctx, litmus.CoRR(), DefaultOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrepareCtx: err = %v, want context.Canceled", err)
	}
	en, err := Prepare(litmus.CoRR(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = en.StreamCtx(ctx, func(*Execution) error {
		yields++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamCtx: err = %v, want context.Canceled", err)
	}
	if yields != 0 {
		t.Errorf("yielded %d executions after up-front cancellation", yields)
	}
}

func TestEnumerateStreamCtxCancelMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	en, err := PrepareCtx(ctx, litmus.SBGlobal(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = en.StreamCtx(ctx, func(*Execution) error {
		yields++
		if yields == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields != 2 {
		t.Errorf("yielded %d executions, want exactly 2 (cancellation checked per execution)", yields)
	}
}

// TestEnumerateStreamCtxBackgroundMatchesEnumerate: a prepared enumeration
// streams any number of times, each stream yielding what Enumerate
// collects (the campaign memo streams one enumeration per model).
func TestEnumerateStreamCtxBackgroundMatchesEnumerate(t *testing.T) {
	want, err := Enumerate(litmus.CoRR(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	en, err := Prepare(litmus.CoRR(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got := 0
		if err := en.StreamCtx(context.Background(), func(*Execution) error {
			got++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != len(want) {
			t.Errorf("stream %d yielded %d executions, Enumerate built %d", round, got, len(want))
		}
	}
}
