package axiom

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
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
		Final: x.Final.Clone(),
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
			if has(x.RF, w.ID, e.ID) {
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
		{"fr", frOf(got), frOf(want)},
		{"co", got.CoRel(), want.CoRel()},
	} {
		if !sameRel(r.got, r.want) {
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

// snapshotRels names the relations a snapshot keeps, in its order: the
// skeleton relations, rf, the skeleton memo's relations, and the rf- and
// completion-level derived relations.
var snapshotRels = []string{
	"po", "addr", "data", "ctrl", "rmw",
	"membar[none]", "membar.cta", "membar.gl", "membar.sys",
	"rf", "po-loc", "cta", "gl", "sys",
	"rfe", "fr", "co",
}

// snapshot is a deep copy of what an execution exposes — its events, every
// relation the .cat vocabulary reads (the skeleton memo's included), the
// kind masks, the init reads, the coherence orders, the final state and
// Mult — so it stays comparable after the producer rewrites the execution.
type snapshot struct {
	events []Event
	rels   [][][2]EventID // in snapshotRels order
	masks  [][]uint64     // by Kind
	inits  []EventID
	co     map[ptx.Sym][]EventID
	final  string
	mult   int
}

func takeSnapshot(x *Execution) snapshot {
	s := snapshot{events: make([]Event, len(x.Events)), co: make(map[ptx.Sym][]EventID), final: renderFinal(x), mult: x.Mult}
	for i, e := range x.Events {
		s.events[i] = *e
	}
	for _, r := range []Rel{
		x.PO, x.Addr, x.Data, x.Ctrl, x.RMW,
		x.Membar[ptx.ScopeNone], x.Membar[ptx.ScopeCTA], x.Membar[ptx.ScopeGL], x.Membar[ptx.ScopeSys],
		x.RF, x.PoLoc(), x.ScopeRel(ptx.ScopeCTA), x.ScopeRel(ptx.ScopeGL), x.ScopeRel(ptx.ScopeSys),
		x.RFE(), frOf(x), x.CoRel(),
	} {
		s.rels = append(s.rels, r.Pairs())
	}
	for k := KRead; k <= KFence; k++ {
		s.masks = append(s.masks, slices.Clone(x.kindMask(k)))
	}
	for id := range x.InitReads {
		s.inits = append(s.inits, id)
	}
	slices.Sort(s.inits)
	for loc, order := range x.CO {
		s.co[loc] = slices.Clone(order)
	}
	return s
}

// diff describes how s differs from want, or returns "".
func (s snapshot) diff(want snapshot) string {
	if !reflect.DeepEqual(s.events, want.events) {
		return fmt.Sprintf("events %v, want %v", s.events, want.events)
	}
	for i, name := range snapshotRels {
		if !reflect.DeepEqual(s.rels[i], want.rels[i]) {
			return fmt.Sprintf("%s %v, want %v", name, s.rels[i], want.rels[i])
		}
	}
	switch {
	case !reflect.DeepEqual(s.masks, want.masks):
		return fmt.Sprintf("kind masks %x, want %x", s.masks, want.masks)
	case !reflect.DeepEqual(s.inits, want.inits):
		return fmt.Sprintf("init reads %v, want %v", s.inits, want.inits)
	case !reflect.DeepEqual(s.co, want.co):
		return fmt.Sprintf("co %v, want %v", s.co, want.co)
	case s.final != want.final:
		return fmt.Sprintf("final %s, want %s", s.final, want.final)
	case s.mult != want.mult:
		return fmt.Sprintf("mult %d, want %d", s.mult, want.mult)
	}
	return ""
}

// freshSnapshots streams every combination of en with a fresh Assembler
// each, so no storage is reused: out[c] is combination c's executions.
func freshSnapshots(t *testing.T, en *Enumeration) [][]snapshot {
	t.Helper()
	out := make([][]snapshot, en.Combos())
	for c := range out {
		if err := en.StreamCombo(c, new(Assembler), func(x *Execution) error {
			out[c] = append(out[c], takeSnapshot(x))
			return nil
		}); err != nil {
			t.Fatalf("%s: combination %d: %v", en.Test().Name, c, err)
		}
	}
	return out
}

// TestReusedExecutionMatchesFresh: every execution the producer yields —
// serially through StreamCtx, and chunk by chunk through one Assembler as
// core's chunked fold drives it — has the derived relations, final state,
// Mult and rendering of a memo-free copy of its exported fields, gives
// every read exactly one source, and its Clone still matches the copy after
// the stream has rewritten the original. Then one Assembler, and one taken
// back from the pool before every combination, streams the corpus with
// each test's combinations interleaved with its predecessor's (A, B, A,
// …), so every skeleton is built into storage another test's skeleton
// just used: each execution equals the fresh-Assembler stream's field by
// field, the skeleton memo's relations and kind masks included, and every
// build gets a skeleton key no earlier build had.
func TestReusedExecutionMatchesFresh(t *testing.T) {
	corpus := reuseCorpus(t)
	ens := make([]*Enumeration, len(corpus))
	for i, test := range corpus {
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		ens[i] = en
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

	ref := make([][][]snapshot, len(ens))
	for i, en := range ens {
		ref[i] = freshSnapshots(t, en)
	}
	for _, pooled := range []bool{false, true} {
		a := new(Assembler)
		if pooled {
			a = BorrowAssembler()
		}
		keys := make(map[uint64]bool)
		stream := func(i, c int) {
			if pooled {
				ReturnAssembler(a)
				a = BorrowAssembler()
			}
			want := ref[i][c]
			var key uint64
			j := 0
			if err := ens[i].StreamCombo(c, a, func(x *Execution) error {
				switch k := x.SkeletonKey(); {
				case j == 0 && (k == 0 || keys[k]):
					return fmt.Errorf("skeleton key %d is zero or was given to an earlier build", k)
				case j == 0:
					key, keys[k] = k, true
				case k != key:
					return fmt.Errorf("execution %d has skeleton key %d, the build's first %d", j, k, key)
				}
				if j >= len(want) {
					return fmt.Errorf("%d executions, the fresh stream has %d", j+1, len(want))
				}
				if d := takeSnapshot(x).diff(want[j]); d != "" {
					return fmt.Errorf("execution %d: %s", j, d)
				}
				j++
				return nil
			}); err != nil {
				t.Fatalf("pooled=%v: %s combination %d: %v", pooled, corpus[i].Name, c, err)
			}
			if j != len(want) {
				t.Fatalf("pooled=%v: %s combination %d: %d executions, the fresh stream has %d", pooled, corpus[i].Name, c, j, len(want))
			}
		}
		for i := range ens {
			p := (i + len(ens) - 1) % len(ens)
			for c := 0; c < max(ens[i].Combos(), ens[p].Combos()); c++ {
				if c < ens[i].Combos() {
					stream(i, c)
				}
				if c < ens[p].Combos() {
					stream(p, c)
				}
			}
		}
		if pooled {
			ReturnAssembler(a)
		}
	}
}

// TestStreamAllocsPerVisit pins the in-place producer: streaming mp+3w
// (5,476 visited executions) on a warm pooled Assembler rewrites every
// layer in place and allocates almost nothing (0.000 per visited
// execution measured; 0.066 when skeletons were built fresh), well under
// a quarter of an allocation per visited execution.
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
// Clones taken mid-stream keep their events, skeleton relations, final
// registers and skeleton memo unchanged while the Assembler builds
// further skeletons, after it goes back to the pool and streams another
// test, and while a parallel fold's workers go on building skeletons on
// pooled Assemblers as another goroutine reads the clones.
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

	tests := append([]*litmus.Test{test, mpExtra(1, false)}, litmus.PaperTests()...)
	ens := make([]*Enumeration, len(tests))
	refs := make([][][]snapshot, len(tests))
	for i, tst := range tests {
		if ens[i], err = Prepare(tst, DefaultOpts()); err != nil {
			t.Fatal(err)
		}
		refs[i] = freshSnapshots(t, ens[i])
	}
	// midStream streams en's combinations on a and clones the first
	// execution of each that has one, during its yield: later completions
	// of the build and later builds rewrite the execution it was taken
	// from.
	type kept struct {
		c int
		x *Execution
	}
	midStream := func(en *Enumeration, a *Assembler, keep func(kept)) {
		for c := 0; c < en.Combos(); c++ {
			first := true
			if err := en.StreamCombo(c, a, func(x *Execution) error {
				if first {
					keep(kept{c, x.Clone()})
					first = false
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, i int, ks []kept) {
		t.Helper()
		for _, k := range ks {
			if d := takeSnapshot(k.x).diff(refs[i][k.c][0]); d != "" {
				t.Errorf("%s: %s combination %d: clone %s", when, tests[i].Name, k.c, d)
				return
			}
		}
	}

	// Further skeletons on the same Assembler.
	var a Assembler
	for i, en := range ens {
		var ks []kept
		midStream(en, &a, func(k kept) { ks = append(ks, k) })
		if len(ks) < 2 && i == 0 {
			t.Fatalf("%s: %d combinations with executions, want several", tests[i].Name, len(ks))
		}
		check("after further skeletons", i, ks)
	}

	// Back to the pool, then another test on the Assembler the pool lends.
	for i, en := range ens {
		b := BorrowAssembler()
		var ks []kept
		midStream(en, b, func(k kept) { ks = append(ks, k) })
		ReturnAssembler(b)
		other := ens[(i+1)%len(ens)]
		b = BorrowAssembler()
		midStream(other, b, func(kept) {})
		ReturnAssembler(b)
		check("after the pool lent the Assembler again", i, ks)
	}

	// A parallel fold: workers claim combinations in ascending order on
	// pooled Assemblers and hand each clone to a checker goroutine, which
	// reads it while the workers build further skeletons.
	for i, en := range ens {
		var next atomic.Int64
		clones := make(chan kept)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := BorrowAssembler()
				defer ReturnAssembler(b)
				for c := int(next.Add(1) - 1); c < en.Combos(); c = int(next.Add(1) - 1) {
					first := true
					if err := en.StreamCombo(c, b, func(x *Execution) error {
						if first {
							clones <- kept{c, x.Clone()}
							first = false
						}
						return nil
					}); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		go func() { wg.Wait(); close(clones) }()
		var ks []kept
		for k := range clones {
			check("parallel fold", i, []kept{k})
			ks = append(ks, k)
		}
		check("after the parallel fold", i, ks)
	}
}

// TestReturnAssemblerDropsRequestData: an Assembler back in the pool holds
// no reference to the last request's data — no test, no path events or
// locations, no final registers or memory — unless a clone pinned the
// skeleton, which it then no longer holds at all.
func TestReturnAssemblerDropsRequestData(t *testing.T) {
	en, err := Prepare(mpExtra(1, true), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []bool{false, true} {
		a := new(Assembler)
		if err := en.StreamCombo(0, a, func(x *Execution) error {
			if pin {
				x.Clone()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ReturnAssembler(a)
		switch {
		case a.x.Test != nil || a.x.Events != nil || a.x.Final != nil || a.x.shared != nil:
			t.Errorf("pin=%v: the returned Assembler's execution keeps the test, events, final state or memo", pin)
		case a.final.Slots() != &noSlots || a.final.Slots().Len() != 0 || len(a.co) != 0:
			t.Errorf("pin=%v: the returned Assembler keeps final state or coherence orders", pin)
		case pin && a.sk != nil:
			t.Errorf("the returned Assembler keeps a skeleton a clone pinned")
		case !pin && (a.sk == nil || slices.ContainsFunc(a.sk.evs[:cap(a.sk.evs)], func(e Event) bool { return e != Event{} })):
			t.Errorf("the returned Assembler keeps path events in its skeleton storage")
		}
	}
}

// frOf returns x's from-read relation.
func frOf(x *Execution) Rel {
	var fr Rel
	x.SetFR(&fr)
	return fr
}
