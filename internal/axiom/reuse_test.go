package axiom

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// This file pins the reusable execution: the producer rewrites one
// Execution per Assembler in place (rf-choice layer per rf choice, the
// coherence rows, final memory and weight per completion), and a consumer
// keeps only what it clones.

// handBuilt gives x, an execution a test built by hand, what the Assembler
// gives every execution it builds: a skeleton store with a key of its own,
// the read→source index of its rf edges, and weight 1. It returns x.
func handBuilt(x *Execution) *Execution {
	x.sk = &skeleton{key: skeletonSeq.Add(1)}
	x.srcOf = make([]int32, len(x.Events))
	for i := range x.srcOf {
		x.srcOf[i] = -1
	}
	x.RF.Each(func(w, r EventID) { x.srcOf[r] = int32(w) })
	x.mult = 1
	return x
}

// exportedCopy rebuilds x from its exported fields and weight alone, as
// handBuilt does: its read→source index is derived from RF, not copied.
// What the producer rewrites in place is copied; the skeleton relations,
// which it never rewrites, are shared.
func exportedCopy(x *Execution) *Execution {
	co := make([][]EventID, len(x.CO))
	for loc, order := range x.CO {
		co[loc] = slices.Clone(order)
	}
	c := handBuilt(&Execution{
		Test: x.Test, Events: x.Events,
		PO: x.PO, Addr: x.Addr, Data: x.Data, Ctrl: x.Ctrl, RMW: x.RMW, Membar: x.Membar,
		RF: x.RF.Clone(), CO: co,
		Final: x.Final.Clone(),
	})
	c.mult = x.mult
	return c
}

// sourceDiff reports an event of x whose read→source index disagrees with
// RF: a read has at most one rf edge, and the index holds its source, or
// -1 when it has none (an init read) and for every other event. A reused
// execution whose rf-choice layer kept a stale edge or index entry breaks
// this even where its exported copy, which has no index, agrees with it.
func sourceDiff(x *Execution) string {
	for _, e := range x.Events {
		src, edges := int32(-1), 0
		for _, w := range x.Events {
			if has(x.RF, w.ID, e.ID) {
				src, edges = int32(w.ID), edges+1
			}
		}
		switch {
		case edges > 1 || edges == 1 && e.Kind != KRead:
			return fmt.Sprintf("%s has %d rf edges", e, edges)
		case x.srcOf[e.ID] != src:
			return fmt.Sprintf("%s has source %d in the index, %d in rf", e, x.srcOf[e.ID], src)
		}
	}
	return ""
}

// contractDiff reports where x breaks what the Assembler guarantees of
// every execution it builds and of every clone of one, and what the
// fallback-free derivations rely on: a nonzero skeleton key, a weight of
// at least 1, and a read→source index that agrees with RF.
func contractDiff(x *Execution) string {
	switch {
	case x.SkeletonKey() == 0:
		return "skeleton key 0"
	case x.Weight() < 1:
		return fmt.Sprintf("weight %d", x.Weight())
	}
	return sourceDiff(x)
}

// slotDiff reports where x's location slots disagree with en's names:
// every event's Slot is Slots().Loc of its Loc (-1 for fences), and CO has
// a row per slot, non-empty exactly when some write has that slot.
func slotDiff(en *Enumeration, x *Execution) string {
	if len(x.CO) != len(en.Slots().Locs()) {
		return fmt.Sprintf("%d coherence rows for %d locations", len(x.CO), len(en.Slots().Locs()))
	}
	written := make([]bool, len(x.CO))
	for _, e := range x.Events {
		want := int32(en.Slots().Loc(e.Loc))
		if e.Kind == KFence {
			want = -1
		}
		if e.Slot != want {
			return fmt.Sprintf("%s has slot %d, want %d", e, e.Slot, want)
		}
		if e.Kind == KWrite {
			written[e.Slot] = true
		}
	}
	for s, order := range x.CO {
		if (len(order) > 0) != written[s] {
			return fmt.Sprintf("coherence row %d is %v, and written is %v", s, order, written[s])
		}
	}
	return ""
}

// execDiff describes how got differs from want on every relation the .cat
// vocabulary reads, the final state, the weight and the rendering, or
// returns "".
func execDiff(got, want *Execution) string {
	g, w := snapshotRelsOf(got), snapshotRelsOf(want)
	for i, name := range snapshotRels {
		if !sameRel(g[i], w[i]) {
			return fmt.Sprintf("%s %v, want %v", name, g[i], w[i])
		}
	}
	if g, w := renderFinal(got), renderFinal(want); g != w {
		return fmt.Sprintf("final %s, want %s", g, w)
	}
	if got.Weight() != want.Weight() {
		return fmt.Sprintf("weight %d, want %d", got.Weight(), want.Weight())
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("render\n%s\nwant\n%s", g, w)
	}
	return ""
}

// snapshotRels names the relations a snapshot keeps, in its order: the
// skeleton relations, rf, the relations derived from the skeleton, and
// the rf- and completion-level derived relations. They include every
// relation the .cat vocabulary reads.
var snapshotRels = []string{
	"po", "addr", "data", "ctrl", "rmw",
	"membar[none]", "membar.cta", "membar.gl", "membar.sys",
	"rf", "po-loc", "cta", "gl", "sys",
	"rfe", "fr", "co",
}

// snapshotRelsOf returns x's relations in snapshotRels order.
func snapshotRelsOf(x *Execution) []Rel {
	return []Rel{
		x.PO, x.Addr, x.Data, x.Ctrl, x.RMW,
		x.Membar[ptx.ScopeNone], x.Membar[ptx.ScopeCTA], x.Membar[ptx.ScopeGL], x.Membar[ptx.ScopeSys],
		x.RF, poLocOf(x), scopeOf(x, ptx.ScopeCTA), scopeOf(x, ptx.ScopeGL), scopeOf(x, ptx.ScopeSys),
		rfeOf(x), frOf(x), x.CoRel(),
	}
}

// snapshot is a deep copy of what an execution exposes — its events, every
// relation the .cat vocabulary reads, the read→source index, the coherence
// orders, the final state and the weight — so it stays comparable after
// the producer rewrites the execution.
type snapshot struct {
	events []Event
	rels   [][][2]EventID // in snapshotRels order
	srcs   []int32
	co     [][]EventID
	final  string
	weight int
}

func takeSnapshot(x *Execution) snapshot {
	s := snapshot{events: make([]Event, len(x.Events)), srcs: slices.Clone(x.srcOf), co: make([][]EventID, len(x.CO)), final: renderFinal(x), weight: x.Weight()}
	for i, e := range x.Events {
		s.events[i] = *e
	}
	for _, r := range snapshotRelsOf(x) {
		s.rels = append(s.rels, r.Pairs())
	}
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
	case !reflect.DeepEqual(s.srcs, want.srcs):
		return fmt.Sprintf("sources %v, want %v", s.srcs, want.srcs)
	case !reflect.DeepEqual(s.co, want.co):
		return fmt.Sprintf("co %v, want %v", s.co, want.co)
	case s.final != want.final:
		return fmt.Sprintf("final %s, want %s", s.final, want.final)
	case s.weight != want.weight:
		return fmt.Sprintf("weight %d, want %d", s.weight, want.weight)
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
// weight and rendering of a copy of its exported fields, has
// location slots that agree with its location names, and keeps the
// producer's contract (contractDiff: skeleton key, weight, read→source
// index, relation widths); its Clone keeps the contract and still matches
// the copy after the stream has rewritten the original. Then one Assembler,
// and one taken back from the pool before every combination, streams the
// corpus with each test's combinations interleaved with its predecessor's
// (A, B, A, …), so every skeleton is built into storage another test's
// skeleton just used: each execution equals the fresh-Assembler stream's
// field by field, the relations derived from the skeleton included, and
// every build gets a skeleton key no earlier build had. The corpus is
// the paper tests, litmustest.Diy and litmustest.Shapes.
func TestReusedExecutionMatchesFresh(t *testing.T) {
	corpus := slices.Concat(litmustest.Paper(), litmustest.Diy(t), litmustest.Shapes())
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
				if d := slotDiff(en, x); d != "" {
					return fmt.Errorf("execution %d: %s", len(fresh), d)
				}
				if d := contractDiff(x); d != "" {
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
				if d := contractDiff(clones[i]); d != "" {
					t.Fatalf("%s/%s: clone of execution %d after the stream: %s", test.Name, s.name, i, d)
				}
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
	en, err := Prepare(litmustest.MPWriters(3, false), DefaultOpts())
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
// registers and skeleton relations unchanged while the Assembler builds
// further skeletons, after it goes back to the pool and streams another
// test, and while a parallel fold's workers go on building skeletons on
// pooled Assemblers as another goroutine reads the clones.
func TestCloneOutlivesStream(t *testing.T) {
	test := litmustest.MPWriters(2, true)
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

	tests := append([]*litmus.Test{test, litmustest.MPWriters(1, false)}, litmus.PaperTests()...)
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
	en, err := Prepare(litmustest.MPWriters(1, true), DefaultOpts())
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
		case a.x.Test != nil || a.x.Events != nil || a.x.Final != nil || a.x.sk != nil:
			t.Errorf("pin=%v: the returned Assembler's execution keeps the test, events, final state or skeleton", pin)
		case a.final.Slots() != &noSlots || a.final.Slots().Len() != 0 || len(a.co) != 0:
			t.Errorf("pin=%v: the returned Assembler keeps final state or coherence orders", pin)
		case pin && a.sk != nil:
			t.Errorf("the returned Assembler keeps a skeleton a clone pinned")
		case !pin && (a.sk == nil || slices.ContainsFunc(a.sk.evs[:cap(a.sk.evs)], func(e Event) bool { return e != Event{} })):
			t.Errorf("the returned Assembler keeps path events in its skeleton storage")
		}
	}
}

// frOf, rfeOf, poLocOf and scopeOf return x's derived relations, each
// built into fresh storage.
func frOf(x *Execution) Rel {
	var fr Rel
	x.SetFR(&fr)
	return fr
}

func rfeOf(x *Execution) Rel {
	var rfe Rel
	x.SetRFE(&rfe)
	return rfe
}

func poLocOf(x *Execution) Rel {
	var poLoc Rel
	x.SetPoLoc(&poLoc)
	return poLoc
}

func scopeOf(x *Execution, s ptx.Scope) Rel {
	var r Rel
	x.SetScopeRel(&r, s)
	return r
}
