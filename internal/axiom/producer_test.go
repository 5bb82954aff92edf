package axiom

import (
	"context"
	"fmt"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// producerTests is the differential corpus for the memoized/parallel
// producer: every paper test plus shapes that stress exactly what the
// rework touched — multi-iteration value-domain fixpoints (computed stores
// feeding loads), many same-location writers (deep rf/co spaces) and RMW
// atomicity filtering.
func producerTests(t *testing.T) []*litmus.Test {
	t.Helper()
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	multi := litmus.NewTest("multi-writer").
		Global("x", 0).
		Thread("st.cg [x],1", "ld.cg r0,[x]").
		Thread("st.cg [x],2", "ld.cg r0,[x]").
		Thread("st.cg [x],3", "ld.cg r0,[x]").
		InterCTA().
		Exists("0:r0=3").
		MustBuild()
	chain := litmus.NewTest("chained-values").
		Global("x", 0).Global("y", 0).
		Thread("ld.cg r1,[x]", "add r2,r1,1", "st.cg [y],r2").
		Thread("ld.cg r3,[y]", "st.cg [x],r3").
		InterCTA().
		Exists("0:r1=1").
		MustBuild()
	cas := litmus.NewTest("cas-pair").
		Global("c", 0).
		Thread("atom.cas r0,[c],0,1").
		Thread("atom.cas r1,[c],0,1").
		InterCTA().
		Exists("0:r0=0 /\\ 1:r1=0").
		MustBuild()
	return append(tests, multi, chain, cas)
}

// collectStream drains an Enumeration through StreamCtx into comparable
// records.
func collectStream(t *testing.T, en *Enumeration) []string {
	t.Helper()
	var out []string
	if err := en.StreamCtx(context.Background(), func(x *Execution) error {
		out = append(out, renderExec(x))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// renderExec renders an execution including its final state, so two streams
// comparing equal really produced the same candidates.
func renderExec(x *Execution) string {
	s := x.String()
	for _, loc := range x.Test.Locations() {
		v, _ := x.Final.Mem(loc)
		s += fmt.Sprintf("|%s=%d", loc, v)
	}
	return s
}

// prepareNoMemo runs the value-domain fixpoint with the cross-iteration
// path memo disabled: every thread is re-derived on every iteration, the
// pre-memoization behaviour.
func prepareNoMemo(t *litmus.Test, opts Opts) (*Enumeration, error) {
	e := &enumerator{test: t, opts: opts.withDefaults(), ctx: context.Background(), noMemo: true}
	return e.prepare()
}

// TestPathMemoMatchesUnmemoized pins the memoized fixpoint against the
// always-re-derive one: the enumerated executions must be identical, in
// order, for every test in the corpus. This is the producer half of the
// "byte-identical to the pre-change path" guarantee — memoization may only
// skip derivations whose replay could not differ.
func TestPathMemoMatchesUnmemoized(t *testing.T) {
	for _, test := range producerTests(t) {
		memod, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: memoized: %v", test.Name, err)
		}
		plain, err := prepareNoMemo(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: unmemoized: %v", test.Name, err)
		}
		if memod.Combos() != plain.Combos() {
			t.Errorf("%s: memoized %d combos, unmemoized %d", test.Name, memod.Combos(), plain.Combos())
			continue
		}
		got, want := collectStream(t, memod), collectStream(t, plain)
		if len(got) != len(want) {
			t.Errorf("%s: memoized %d executions, unmemoized %d", test.Name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: execution %d differs:\n%s\nvs\n%s", test.Name, i, got[i], want[i])
				break
			}
		}
	}
}

// TestStreamComboMatchesStream pins the per-combination producer against
// the serial stream: concatenating StreamCombo(0..Combos()-1) — with one
// reused Assembler, the way a producer worker drives it — must reproduce
// StreamCtx byte for byte.
func TestStreamComboMatchesStream(t *testing.T) {
	for _, test := range producerTests(t) {
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		want := collectStream(t, en)
		var got []string
		var a Assembler
		for c := 0; c < en.Combos(); c++ {
			if err := en.StreamCombo(c, &a, func(x *Execution) error {
				got = append(got, renderExec(x))
				return nil
			}); err != nil {
				t.Fatalf("%s: combo %d: %v", test.Name, c, err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: combos yielded %d executions, stream %d", test.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: execution %d differs:\n%s\nvs\n%s", test.Name, i, got[i], want[i])
			}
		}
	}
}

// TestStreamComboFreshAssemblers re-runs the combo comparison with a fresh
// Assembler per combination (the boundary workers cross when combinations
// land on different workers): Assembler state must not leak between
// combinations.
func TestStreamComboFreshAssemblers(t *testing.T) {
	for _, test := range producerTests(t) {
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		want := collectStream(t, en)
		var got []string
		for c := 0; c < en.Combos(); c++ {
			if err := en.StreamCombo(c, new(Assembler), func(x *Execution) error {
				got = append(got, renderExec(x))
				return nil
			}); err != nil {
				t.Fatalf("%s: combo %d: %v", test.Name, c, err)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: fresh-assembler streams differ from serial stream", test.Name)
		}
	}
}

// TestStreamCtxMaxExecsAcrossCombos pins the exact MaxExecs bound on the
// prepared producer: the bound counts across combinations, at most MaxExecs
// executions are yielded, and the failure is BoundError.
func TestStreamCtxMaxExecsAcrossCombos(t *testing.T) {
	test := litmus.NewTest("bound").
		Global("x", 0).
		Thread("st.cg [x],1", "ld.cg r0,[x]").
		Thread("st.cg [x],2", "ld.cg r0,[x]").
		InterCTA().
		Exists("0:r0=2").
		MustBuild()
	en, err := Prepare(test, Opts{MaxExecs: 5})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Prepare(test, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := len(collectStream(t, all))
	if total <= 5 {
		t.Fatalf("test enumerates only %d executions; the bound needs more", total)
	}
	yields := 0
	err = en.StreamCtx(context.Background(), func(*Execution) error {
		yields++
		return nil
	})
	if err == nil || err.Error() != en.BoundError().Error() {
		t.Fatalf("err = %v, want %v", err, en.BoundError())
	}
	if yields != 5 {
		t.Errorf("yielded %d executions before the bound fired, want exactly 5", yields)
	}
}

// TestPreparedStreamCancelMidCombo pins prompt cancellation on the prepared
// producer, for an enumeration prepared before the context.
func TestPreparedStreamCancelMidCombo(t *testing.T) {
	en, err := Prepare(litmus.SBGlobal(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	yields := 0
	err = en.StreamCtx(ctx, func(*Execution) error {
		yields++
		if yields == 2 {
			cancel()
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields != 2 {
		t.Errorf("yielded %d executions, want exactly 2", yields)
	}
}

// TestWideAcyclicNoAlloc pins the pooled wide-universe scratch: Acyclic on
// a >64-event relation must not heap-allocate per call (the ROADMAP
// >64-event item; BenchmarkRelOpsWide reports the same number).
func TestWideAcyclicNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	x, _ := benchRels(100, 400, 1)
	x.Acyclic() // warm the pool
	if allocs := testing.AllocsPerRun(100, func() { x.Acyclic() }); allocs != 0 {
		t.Errorf("wide Acyclic allocates %.1f objects per call, want 0", allocs)
	}
}

// TestWideSetFRNoAlloc pins the pooled index buffers and storage reuse of
// the from-read derivation past 64 events: with a warm destination and a
// hand-built execution (no precomputed rf index), SetFR must not allocate.
func TestWideSetFRNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	x := wideExec(70)
	var dst Rel
	x.SetFR(&dst) // warm destination storage and pool
	if allocs := testing.AllocsPerRun(100, func() { x.SetFR(&dst) }); allocs != 0 {
		t.Errorf("wide SetFR allocates %.1f objects per call, want 0", allocs)
	}
	// Each writer's read is fr-before every later writer: 70·69/2 pairs.
	if got := dst.Size(); got != 70*69/2 {
		t.Errorf("wide SetFR has %d pairs, want %d", got, 70*69/2)
	}
}

// wideExec hand-builds a >64-event execution: n writers to one location,
// each followed by a reader of its value.
func wideExec(writers int) *Execution {
	x := &Execution{}
	var order []EventID
	for i := 0; i < writers; i++ {
		w := &Event{ID: EventID(2 * i), Thread: i, PoIdx: 0, Kind: KWrite, Loc: "x", Val: int64(i + 1)}
		r := &Event{ID: EventID(2*i + 1), Thread: i, PoIdx: 1, Kind: KRead, Loc: "x", Val: int64(i + 1)}
		x.Events = append(x.Events, w, r)
		x.PO.Add(w.ID, r.ID)
		x.RF.Add(w.ID, r.ID)
		order = append(order, w.ID)
	}
	x.CO = map[ptx.Sym][]EventID{"x": order}
	return x
}
