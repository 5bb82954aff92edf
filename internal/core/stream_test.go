package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// verdictRecord is one visit call, comparable across pipeline modes.
type verdictRecord struct {
	idx     int
	exec    string
	allowed bool
}

func collectVerdicts(t *testing.T, m *Model, test *litmus.Test, parallelism int) []verdictRecord {
	t.Helper()
	var out []verdictRecord
	weighted := 0
	n, err := m.ForEachVerdictCtx(context.Background(), test, parallelism, func(i int, x *axiom.Execution, allowed bool) error {
		out = append(out, verdictRecord{idx: i, exec: x.String(), allowed: allowed})
		weighted += x.Weight()
		return nil
	})
	if err != nil {
		t.Fatalf("%s: parallelism %d: %v", test.Name, parallelism, err)
	}
	if n != weighted {
		t.Fatalf("%s: parallelism %d: %d candidates reported, visited weights sum to %d", test.Name, parallelism, n, weighted)
	}
	return out
}

// sameVerdicts fails unless got is exactly the serial stream.
func sameVerdicts(t *testing.T, label string, got, serial []verdictRecord) {
	t.Helper()
	if len(got) != len(serial) {
		t.Fatalf("%s: visited %d executions, serial %d", label, len(got), len(serial))
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("%s: visit %d differs:\n%+v\nvs serial\n%+v", label, i, got[i], serial[i])
		}
	}
}

// TestForEachVerdictComboOrderExact is the differential for the single
// verdict contract: at every parallelism — auto, and explicit fan-out over
// path combinations or rf chunks — visit must receive exactly the serial
// stream (same executions, same verdicts, same indices, in the same
// order), not merely the same multiset. stressTest(3) has 64 path
// combinations, so explicit parallelism exercises the ordered merge across
// many worker/combination boundaries; soloChunkTest has one combination
// with four rf chunks; a diy sample adds generated shapes, including ones
// whose single combination does not split.
func TestForEachVerdictComboOrderExact(t *testing.T) {
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	tests = append(tests, stressTest(3), soloChunkTest())
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	for i := 0; i < len(gen); i += 13 {
		tests = append(tests, gen[i].Test)
	}
	models := []*Model{PTX(), SC()}
	for _, test := range tests {
		for _, m := range models {
			serial := collectVerdicts(t, m, test, 1)
			for _, par := range []int{0, 2, 4, 16} {
				got := collectVerdicts(t, m, test, par)
				sameVerdicts(t, fmt.Sprintf("%s/%s: parallelism %d", test.Name, m.Name, par), got, serial)
			}
		}
	}
}

// mpWritersTest is unfenced mp with extra pairs of writers to x and y:
// with two pairs it has 16 path combinations and 576 executions, so auto
// mode checks a serial head of combinations and fans the rest out.
func mpWritersTest(pairs int) *litmus.Test {
	b := litmus.NewTest(fmt.Sprintf("mp+%dwriters", 2*pairs)).
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "st.cg [y],1").
		Thread("ld.cg r1,[y]", "ld.cg r2,[x]")
	for i := 0; i < pairs; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [x],%d", i+2)).Thread(fmt.Sprintf("st.cg [y],%d", i+2))
	}
	return b.InterCTA().Exists("1:r1=1 /\\ 1:r2=0").MustBuild()
}

// TestForEachVerdictAutoHandOff pins the auto-mode hand-off from the
// serial head to the fan-out: the visits match the serial stream, a
// MaxExecs bound just past the hand-off fails at the same execution as
// the serial stream, and cancelling inside visit k — on either side of
// the hand-off — stops with exactly k+1 visits.
func TestForEachVerdictAutoHandOff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	test := mpWritersTest(2)
	m := PTX()
	en, err := axiom.Prepare(test, axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if nc := en.Combos(); nc < 2 || nc >= 32 {
		t.Fatalf("%s has %d path combinations, want 2-31", test.Name, nc)
	}
	// The head streams whole combinations until parallelMinExecs
	// executions have been visited: find where it hands off.
	var a axiom.Assembler
	handOff, weight, combo := 0, 0, 0
	for ; combo < en.Combos() && handOff < parallelMinExecs; combo++ {
		if err := en.StreamCombo(combo, &a, func(x *axiom.Execution) error {
			handOff++
			weight += x.Weight()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	serial := collectVerdicts(t, m, test, 1)
	if combo == en.Combos() || handOff >= len(serial) {
		t.Fatalf("%s: the serial head covers all %d executions; no hand-off", test.Name, len(serial))
	}
	sameVerdicts(t, test.Name+": auto", collectVerdicts(t, m, test, 0), serial)

	bounded := func(par int) (visits int, err error) {
		opts := axiom.DefaultOpts()
		opts.MaxExecs = weight + 2
		en, err := axiom.Prepare(test, opts)
		if err != nil {
			return 0, err
		}
		_, err = m.ForEachVerdictPreparedCtx(context.Background(), test, en, par, func(int, *axiom.Execution, bool) error {
			visits++
			return nil
		})
		return visits, err
	}
	wantVisits, wantErr := bounded(1)
	if wantErr == nil {
		t.Fatalf("MaxExecs %d did not bound the serial stream", weight+2)
	}
	if gotVisits, gotErr := bounded(0); gotVisits != wantVisits || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("auto under MaxExecs %d: %d visits, err %v; serial %d visits, err %v",
			weight+2, gotVisits, gotErr, wantVisits, wantErr)
	}

	for _, k := range []int{handOff - 1, handOff, handOff + 1} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, err := m.ForEachVerdictCtx(ctx, test, 0, func(i int, _ *axiom.Execution, _ bool) error {
			seen++
			if i == k {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", k, err)
		}
		if seen != k+1 {
			t.Errorf("cancel at visit %d: %d visits, want exactly %d", k, seen, k+1)
		}
	}
}

// TestForEachVerdictComboCancelMidVisit pins prompt, deterministic
// cancellation under combo fan-out: visits are serial and ordered, so
// cancelling inside visit k stops the stream with exactly k+1
// visits delivered.
func TestForEachVerdictComboCancelMidVisit(t *testing.T) {
	test := stressTest(3)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err := PTX().ForEachVerdictCtx(ctx, test, 4, func(int, *axiom.Execution, bool) error {
		seen++
		if seen == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 4 {
		t.Errorf("saw %d executions after cancelling at the 4th, want exactly 4", seen)
	}
}

// TestForEachVerdictComboVisitError pins deterministic failure: an error
// from visit k aborts the run having delivered exactly k+1 visits,
// regardless of how production was scheduled.
func TestForEachVerdictComboVisitError(t *testing.T) {
	boom := errors.New("boom")
	test := stressTest(3)
	for _, par := range []int{1, 4} {
		seen := 0
		_, err := PTX().ForEachVerdictCtx(context.Background(), test, par, func(i int, _ *axiom.Execution, _ bool) error {
			seen++
			if i == 9 {
				return fmt.Errorf("visit %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want boom", par, err)
		}
		if seen != 10 {
			t.Errorf("parallelism %d: %d visits before the error, want exactly 10", par, seen)
		}
	}
}

// TestForEachVerdictComboParallelRace drives the combo fan-out with a
// lock-free reduction in visit, for the -race CI step: visits are serial,
// so the reduction needs no lock.
func TestForEachVerdictComboParallelRace(t *testing.T) {
	test := stressTest(3)
	allowed := 0
	n, err := PTX().ForEachVerdictCtx(context.Background(), test, 8, func(_ int, _ *axiom.Execution, ok bool) error {
		if ok {
			allowed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 384 {
		t.Fatalf("stress-3w: %d candidates, want 384", n)
	}
	if allowed == 0 {
		t.Fatal("stress-3w: no allowed executions")
	}
}

// TestJudgePreparedNamesJudgedTest: an enumeration prepared from test A
// judges a renamed copy B as B. The MaxExecs bound error names B at every
// parallelism, and an unbounded verdict and its witness point at B.
func TestJudgePreparedNamesJudgedTest(t *testing.T) {
	a := stressTest(3)
	b := a.Clone()
	b.Name = "renamed-copy"
	ctx := context.Background()
	bounded, err := axiom.Prepare(a, axiom.Opts{MaxExecs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 0, 4} {
		_, err := JudgePreparedCtx(ctx, PTX(), b, bounded, par)
		if err == nil {
			t.Fatalf("p%d: judging past MaxExecs succeeded", par)
		}
		if !strings.Contains(err.Error(), b.Name) || strings.Contains(err.Error(), a.Name) {
			t.Errorf("p%d: bound error %q names the preparing test, want %s", par, err, b.Name)
		}
	}
	en, err := axiom.Prepare(a, axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	v, err := JudgePreparedCtx(ctx, PTX(), b, en, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Witness == nil {
		t.Fatalf("%s has no PTX witness", b.Name)
	}
	if v.Test != b || v.Witness.Test != b {
		t.Errorf("verdict for the renamed copy points at %s", v.Test.Name)
	}
	if en.Test() != a {
		t.Error("judging a copy rebound the shared enumeration")
	}
}
