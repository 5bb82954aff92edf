package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// verdictRecord is one visit call, comparable across parallelisms.
type verdictRecord struct {
	idx     int
	exec    string
	allowed bool
}

// collectVerdicts records every visit of m's visitor over test, and
// returns them with the weight of the allowed ones.
func collectVerdicts(t *testing.T, m *Model, test *litmus.Test, parallelism int) ([]verdictRecord, int) {
	t.Helper()
	var out []verdictRecord
	weighted, allowed := 0, 0
	n, err := m.ForEachVerdictCtx(context.Background(), test, parallelism, func(i int, x *axiom.Execution, ok bool) error {
		out = append(out, verdictRecord{idx: i, exec: x.String(), allowed: ok})
		weighted += x.Weight()
		if ok {
			allowed += x.Weight()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: parallelism %d: %v", test.Name, parallelism, err)
	}
	if n != weighted {
		t.Fatalf("%s: parallelism %d: %d candidates reported, visited weights sum to %d", test.Name, parallelism, n, weighted)
	}
	return out, allowed
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

// TestForEachVerdictComboOrderExact is the differential for the parallel
// fold and the visitor contract: at every parallelism it is handed (auto,
// and explicit fan-out over path combinations or rf chunks), visit
// receives exactly the enumeration order (same executions, same indices,
// in the same order), the weight it sees allowed is the fold's Allowed,
// and the fold's verdict line, visited count and witness (the first
// witnessing execution in enumeration order) are the serial judgement's.
// JudgeWith with a Visit at parallelism 0 and 4 visits in the same order
// and returns the fold's verdict at parallelism 4. The corpus is the
// paper tests, litmustest.Diy, litmustest.Producer and
// litmustest.Symmetric: stress-3w has 64 path combinations, so explicit
// parallelism folds many per worker, solo-chunk one combination with four
// rf chunks, and the diy cycles include shapes whose single combination
// does not split. (Blind's mp+3w shapes, 5,476 visits each, are left to
// the pruned-vs-exhaustive differentials.)
func TestForEachVerdictComboOrderExact(t *testing.T) {
	models := []*Model{PTX(), SC()}
	corpus := slices.Concat(litmustest.Paper(), litmustest.Diy(t), litmustest.Producer(), litmustest.Symmetric())
	litmustest.Run(t, corpus, func(t *testing.T, test *litmus.Test) {
		execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, m := range models {
			serial, _ := collectVerdicts(t, m, test, 1)
			if len(serial) != len(execs) {
				t.Fatalf("%s/%s: visited %d executions, enumerated %d", test.Name, m.Name, len(serial), len(execs))
			}
			for i, r := range serial {
				if r.idx != i || r.exec != execs[i].String() {
					t.Fatalf("%s/%s: visit %d is #%d %s, enumeration has %s", test.Name, m.Name, i, r.idx, r.exec, execs[i])
				}
			}
			fold1, err := JudgeP(m, test, 1)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", test.Name, m.Name, err)
			}
			var fold4 *Verdict
			for _, par := range []int{0, 2, 4, 16} {
				label := fmt.Sprintf("%s/%s: parallelism %d", test.Name, m.Name, par)
				got, allowed := collectVerdicts(t, m, test, par)
				sameVerdicts(t, label, got, serial)
				v, err := JudgeP(m, test, par)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if v.Allowed != allowed {
					t.Fatalf("%s: the fold allows %d, the visitor %d", label, v.Allowed, allowed)
				}
				if v.String() != fold1.String() || v.Visited != fold1.Visited ||
					witnessContent(test, v.Witness) != witnessContent(test, fold1.Witness) {
					t.Fatalf("%s: verdict %v (%d visited, witness %v), serial %v (%d visited, witness %v)",
						label, v, v.Visited, v.Witness, fold1, fold1.Visited, fold1.Witness)
				}
				if par == 4 {
					fold4 = v
				}
			}
			for _, par := range []int{0, 4} {
				label := fmt.Sprintf("%s/%s: Visit at parallelism %d", test.Name, m.Name, par)
				var got []verdictRecord
				v, err := JudgeWith(context.Background(), m, test, Opts{Parallelism: par, Visit: func(i int, x *axiom.Execution, ok bool) error {
					got = append(got, verdictRecord{idx: i, exec: x.String(), allowed: ok})
					return nil
				}})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameVerdicts(t, label, got, serial)
				if v.String() != fold4.String() || v.Visited != fold4.Visited ||
					witnessContent(test, v.Witness) != witnessContent(test, fold4.Witness) {
					t.Fatalf("%s: verdict %v (witness %v), the fold at parallelism 4 %v (witness %v)",
						label, v, v.Witness, fold4, fold4.Witness)
				}
			}
		}
	})
}

// autoHandOff returns the visits and the weight at which auto mode hands
// test off from its serial head to the workers: the head folds whole
// combinations until parallelMinExecs executions have been visited.
func autoHandOff(t *testing.T, test *litmus.Test, en *axiom.Enumeration) (visits, weight int) {
	t.Helper()
	if nc := en.Combos(); nc < 2 || nc >= 32 {
		t.Fatalf("%s has %d path combinations, want 2-31", test.Name, nc)
	}
	var a axiom.Assembler
	combo := 0
	for ; combo < en.Combos() && visits < parallelMinExecs; combo++ {
		if err := en.StreamCombo(combo, &a, func(x *axiom.Execution) error {
			visits++
			weight += x.Weight()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if combo == en.Combos() {
		t.Fatalf("%s: the serial head covers every combination; no hand-off", test.Name)
	}
	return visits, weight
}

// TestForEachVerdictAutoHandOff pins the visitor around the visit where
// auto mode would hand off from its serial head: the visits at every
// parallelism match the serial stream, a MaxExecs bound just past the
// hand-off fails with the serial judgement's error, and cancelling inside
// visit k — on either side of the hand-off — stops with exactly k+1
// visits.
func TestForEachVerdictAutoHandOff(t *testing.T) {
	test := litmustest.MPWriters(2, false)
	m := PTX()
	en, err := axiom.Prepare(test, axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	handOff, weight := autoHandOff(t, test, en)
	serial, _ := collectVerdicts(t, m, test, 1)
	if handOff >= len(serial) {
		t.Fatalf("%s: the serial head covers all %d executions; no hand-off", test.Name, len(serial))
	}
	for _, par := range []int{0, 4} {
		got, _ := collectVerdicts(t, m, test, par)
		sameVerdicts(t, fmt.Sprintf("%s: parallelism %d", test.Name, par), got, serial)
	}

	bounded, err := axiom.Prepare(test, axiom.Opts{MaxExecs: weight + 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, wantErr := JudgeWith(ctx, m, test, Opts{Parallelism: 1, Enum: bounded})
	if wantErr == nil {
		t.Fatalf("MaxExecs %d did not bound the serial judgement", weight+2)
	}
	visits := 0
	if _, err := JudgeWith(ctx, m, test, Opts{Enum: bounded, Visit: func(int, *axiom.Execution, bool) error {
		visits++
		return nil
	}}); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("visitor under MaxExecs %d: err %v, judgement %v", weight+2, err, wantErr)
	}
	if visits <= handOff || visits >= len(serial) {
		t.Errorf("visitor under MaxExecs %d: %d visits, want past the hand-off at %d and short of %d",
			weight+2, visits, handOff, len(serial))
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

// TestJudgeAutoHandOff pins the MaxExecs bound across the auto-mode
// hand-off from the serial head to the workers, and across a chunked run:
// a bound just past the hand-off, or just under the total, fails with the
// serial judgement's error at every parallelism, and a bound equal to the
// total admits the judgement at every parallelism.
func TestJudgeAutoHandOff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	test := litmustest.MPWriters(2, false)
	m := PTX()
	en, err := axiom.Prepare(test, axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, weight := autoHandOff(t, test, en)
	solo := litmustest.SoloChunk()
	full, err := JudgeP(m, solo, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		test     *litmus.Test
		maxExecs int
		fails    bool
	}{
		{test, weight + 2, true},
		{solo, full.Candidates - 1, true},
		{solo, full.Candidates, false},
	} {
		judge := func(par int) (*Verdict, error) {
			en, err := axiom.Prepare(c.test, axiom.Opts{MaxExecs: c.maxExecs})
			if err != nil {
				t.Fatal(err)
			}
			return JudgeWith(ctx, m, c.test, Opts{Parallelism: par, Enum: en})
		}
		want, wantErr := judge(1)
		if (wantErr != nil) != c.fails {
			t.Fatalf("%s under MaxExecs %d: serial err = %v", c.test.Name, c.maxExecs, wantErr)
		}
		for _, par := range []int{0, 4} {
			got, err := judge(par)
			switch {
			case c.fails && (err == nil || err.Error() != wantErr.Error()):
				t.Errorf("%s under MaxExecs %d: parallelism %d: err %v, serial %v", c.test.Name, c.maxExecs, par, err, wantErr)
			case !c.fails && (err != nil || got.String() != want.String()):
				t.Errorf("%s under MaxExecs %d: parallelism %d: %v, %v; serial %v", c.test.Name, c.maxExecs, par, got, err, want)
			}
		}
	}
}

// TestForEachVerdictComboCancelMidVisit pins prompt, deterministic
// cancellation of the visitor over many path combinations: visits are
// serial and ordered, so cancelling inside visit k stops the stream with
// exactly k+1 visits delivered.
func TestForEachVerdictComboCancelMidVisit(t *testing.T) {
	test := litmustest.Stress(3)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err := JudgeWith(ctx, PTX(), test, Opts{Visit: func(int, *axiom.Execution, bool) error {
		seen++
		if seen == 4 {
			cancel()
		}
		return nil
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 4 {
		t.Errorf("saw %d executions after cancelling at the 4th, want exactly 4", seen)
	}
}

// TestForEachVerdictComboVisitError pins deterministic failure: an error
// from visit k aborts the run having delivered exactly k+1 visits.
func TestForEachVerdictComboVisitError(t *testing.T) {
	boom := errors.New("boom")
	seen := 0
	_, err := JudgeWith(context.Background(), PTX(), litmustest.Stress(3), Opts{Visit: func(i int, _ *axiom.Execution, _ bool) error {
		seen++
		if i == 9 {
			return fmt.Errorf("visit %d: %w", i, boom)
		}
		return nil
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if seen != 10 {
		t.Errorf("%d visits before the error, want exactly 10", seen)
	}
}

// TestForEachVerdictComboParallelRace drives the fold's combo fan-out on
// 8 workers, for the -race CI step, against the visitor's serial
// reduction: the per-worker tallies must add up to the same counts.
func TestForEachVerdictComboParallelRace(t *testing.T) {
	test := litmustest.Stress(3)
	allowed := 0
	serial, err := JudgeWith(context.Background(), PTX(), test, Opts{Visit: func(_ int, x *axiom.Execution, ok bool) error {
		if ok {
			allowed += x.Weight()
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	n := serial.Candidates
	if n != 384 {
		t.Fatalf("stress-3w: %d candidates, want 384", n)
	}
	if allowed == 0 {
		t.Fatal("stress-3w: no allowed executions")
	}
	v, err := JudgeP(PTX(), test, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v.Candidates != n || v.Allowed != allowed {
		t.Errorf("8 workers: %d/%d allowed, the visitor %d/%d", v.Allowed, v.Candidates, allowed, n)
	}
}

// TestJudgePreparedNamesJudgedTest: an enumeration prepared from test A
// judges a renamed copy B as B. The MaxExecs bound error names B at every
// parallelism, and an unbounded verdict and its witness point at B.
func TestJudgePreparedNamesJudgedTest(t *testing.T) {
	a := litmustest.Stress(3)
	b := a.Clone()
	b.Name = "renamed-copy"
	ctx := context.Background()
	bounded, err := axiom.Prepare(a, axiom.Opts{MaxExecs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 0, 4} {
		_, err := JudgeWith(ctx, PTX(), b, Opts{Parallelism: par, Enum: bounded})
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
	v, err := JudgeWith(ctx, PTX(), b, Opts{Parallelism: 1, Enum: en})
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
