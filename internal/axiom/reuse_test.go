package axiom

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// This file pins the reusable execution: the producer rewrites one
// Execution per Assembler in place (rf-choice layer per rf choice, the
// coherence map, final memory, Mult and memo per completion), and a
// consumer keeps only what it clones.

// sameValueRF has rf choices that change within one skeleton: two
// non-solo writers of 1 to x give the reads of 1 two sources each, and a
// writer of the initial value gives the reads of 0 the initial state or a
// write, so one skeleton's rf choices alternate between init reads and rf
// edges.
func sameValueRF() *litmus.Test {
	return litmus.NewTest("same-value-rf").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "st.cg [y],1").
		Thread("st.cg [x],0", "st.cg [x],1").
		Thread("ld.cg r0,[x]", "ld.cg r1,[x]", "ld.cg r2,[y]").
		InterCTA().
		Exists("2:r0=1 /\\ 2:r1=0").
		MustBuild()
}

// reuseCorpus is the paper tests, the diy cycles of up to four edges
// (every 8th under -short), mp+kw for k ≤ 3 with and without membar.gl,
// and sameValueRF.
func reuseCorpus(t *testing.T) []*litmus.Test {
	t.Helper()
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	if len(gen) == 0 {
		t.Fatal("diy.Generate returned no tests")
	}
	step := 1
	if testing.Short() {
		step = 8
	}
	for i := 0; i < len(gen); i += step {
		tests = append(tests, gen[i].Test)
	}
	for k := 1; k <= 3; k++ {
		tests = append(tests, mpExtra(k, false), mpExtra(k, true))
	}
	return append(tests, sameValueRF())
}

// exportedCopy rebuilds x from its exported fields alone: no skeleton or
// rf-choice memo, no read→source index, an empty execution memo, so its
// derived relations are computed from scratch. What the producer rewrites
// in place is copied; the skeleton, which it never rewrites, is shared.
func exportedCopy(x *Execution) *Execution {
	co := make(map[ptx.Sym][]EventID, len(x.CO))
	for loc, order := range x.CO {
		co[loc] = slices.Clone(order)
	}
	return &Execution{
		Test: x.Test, Events: x.Events,
		PO: x.PO, Addr: x.Addr, Data: x.Data, Ctrl: x.Ctrl, RMW: x.RMW, Membar: x.Membar,
		RF: x.RF.Clone(), InitReads: maps.Clone(x.InitReads), CO: co,
		Final: &litmus.MapState{Regs: x.Final.Regs, Memv: maps.Clone(x.Final.Memv)},
		Mult:  x.Mult,
	}
}

// sourceDiff reports a read of x that does not have exactly one source:
// the initial state (InitReads) or one rf edge. A reused execution whose
// rf-choice layer kept a stale entry breaks this even where its exported
// copy agrees with it.
func sourceDiff(x *Execution) string {
	for _, e := range x.Events {
		if e.Kind != KRead {
			continue
		}
		srcs := 0
		if x.InitReads[e.ID] {
			srcs++
		}
		for _, w := range x.Events {
			if x.RF.Has(w.ID, e.ID) {
				srcs++
			}
		}
		if srcs != 1 {
			return fmt.Sprintf("read %d has %d sources", e.ID, srcs)
		}
	}
	return ""
}

// execDiff describes how got differs from want on the derived relations,
// the final state, Mult and the rendering, or returns "".
func execDiff(got, want *Execution) string {
	for _, r := range []struct {
		name      string
		got, want Rel
	}{
		{"rfe", got.RFE(), want.RFE()},
		{"fr", got.FR(), want.FR()},
		{"co", got.CoRel(), want.CoRel()},
		{"com", got.Com(), want.Com()},
	} {
		if !r.got.Equal(r.want) {
			return fmt.Sprintf("%s %v, want %v", r.name, r.got, r.want)
		}
	}
	if g, w := renderFinal(got), renderFinal(want); g != w {
		return fmt.Sprintf("final %s, want %s", g, w)
	}
	if got.Mult != want.Mult {
		return fmt.Sprintf("mult %d, want %d", got.Mult, want.Mult)
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("render\n%s\nwant\n%s", g, w)
	}
	return ""
}

// TestReusedExecutionMatchesFresh: every execution the producer yields —
// serially through StreamCtx, and chunk by chunk through one Assembler as
// core's chunked fold drives it — has the derived relations, final state,
// Mult and rendering of a memo-free copy of its exported fields, gives
// every read exactly one source, and its Clone still matches the copy after
// the stream has rewritten the original.
func TestReusedExecutionMatchesFresh(t *testing.T) {
	for _, test := range reuseCorpus(t) {
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		streams := []struct {
			name string
			run  func(yield func(*Execution) error) error
		}{
			{"stream", func(yield func(*Execution) error) error { return en.StreamCtx(context.Background(), yield) }},
			{"chunks", func(yield func(*Execution) error) error {
				var a Assembler
				for c := 0; c < en.Combos(); c++ {
					chunks, _ := en.ComboChunks(c, &a)
					for k := 0; k < chunks; k++ {
						if err := en.StreamComboChunk(c, k, &a, yield); err != nil {
							return err
						}
					}
				}
				return nil
			}},
		}
		for _, s := range streams {
			var clones, fresh []*Execution
			if err := s.run(func(x *Execution) error {
				want := exportedCopy(x)
				if d := sourceDiff(x); d != "" {
					return fmt.Errorf("execution %d: %s", len(fresh), d)
				}
				if d := execDiff(x, want); d != "" {
					return fmt.Errorf("execution %d: %s", len(fresh), d)
				}
				clones, fresh = append(clones, x.Clone()), append(fresh, want)
				return nil
			}); err != nil {
				t.Fatalf("%s/%s: %v", test.Name, s.name, err)
			}
			for i := range clones {
				if d := execDiff(clones[i], fresh[i]); d != "" {
					t.Fatalf("%s/%s: clone of execution %d after the stream: %s", test.Name, s.name, i, d)
				}
			}
		}
	}
}

// TestStreamAllocsPerVisit pins the in-place producer: streaming mp+3w
// (5,476 visited executions) allocates per skeleton and per rf choice
// only, under a quarter of an allocation per visited execution.
func TestStreamAllocsPerVisit(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	en, err := Prepare(mpExtra(3, false), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	count := func(*Execution) error { visits++; return nil }
	if err := en.StreamCtx(context.Background(), count); err != nil {
		t.Fatal(err)
	}
	perRun := visits
	allocs := testing.AllocsPerRun(5, func() {
		if err := en.StreamCtx(context.Background(), count); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(perRun)
	t.Logf("mp+3w: %.3f allocations per visited execution (%d visits)", per, perRun)
	if per >= 0.25 {
		t.Errorf("streaming mp+3w costs %.3f allocations per visited execution (%.0f per %d visits), want < 0.25", per, allocs, perRun)
	}
}

// TestCloneOutlivesStream: a clone of the first streamed execution, taken
// during its yield, still equals Enumerate's first execution once the
// stream has run to the end and rewritten the original many times over.
func TestCloneOutlivesStream(t *testing.T) {
	test := mpExtra(2, true)
	en, err := Prepare(test, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var first *Execution
	n := 0
	if err := en.StreamCtx(context.Background(), func(x *Execution) error {
		if first == nil {
			first = x.Clone()
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	execs, err := Enumerate(test, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != n || n < 2 {
		t.Fatalf("Enumerate yields %d executions, the stream %d", len(execs), n)
	}
	if d := execDiff(first, exportedCopy(execs[0])); d != "" {
		t.Fatalf("clone after the stream: %s", d)
	}
	if renderExec(first) != renderExec(execs[0]) {
		t.Fatalf("clone after the stream renders\n%s\nwant\n%s", renderExec(first), renderExec(execs[0]))
	}
}
