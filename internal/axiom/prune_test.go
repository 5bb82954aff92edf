package axiom

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// This file is the differential oracle for symmetry pruning: the pruned
// producer (the default) against the exhaustive one (Opts.Exhaustive), over
// every test the producer tests already cover plus shapes built to have
// non-trivial symmetry classes — same-value solo writers, writes nobody
// reads (where only coherence permutations distinguish executions), classes
// at several locations, intra-CTA and mixed scope trees, and a seeded
// random corpus.

// symWriters is the canonical symmetric shape: `writers` interchangeable
// solo writers of 1 plus two readers, every thread in its own CTA.
func symWriters(writers int) *litmus.Test {
	b := litmus.NewTest(fmt.Sprintf("sym-%dwriters", writers)).Global("x", 0)
	for i := 0; i < writers; i++ {
		b = b.Thread("st.cg [x],1")
	}
	b = b.Thread("ld.cg r0,[x]").Thread("ld.cg r0,[x]")
	return b.InterCTA().Exists(fmt.Sprintf("%d:r0=1", writers)).MustBuild()
}

// symmetryTests builds the hand-written symmetric corpus.
func symmetryTests(t *testing.T) []*litmus.Test {
	t.Helper()
	unobserved := litmus.NewTest("sym-unobserved").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		InterCTA().
		Exists("x=2").
		MustBuild()
	twoLocs := litmus.NewTest("sym-two-locs").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("st.cg [y],1").
		Thread("st.cg [y],1").
		Thread("ld.cg r0,[x]", "ld.cg r1,[y]").
		InterCTA().
		Exists("4:r0=1 /\\ 4:r1=0").
		MustBuild()
	intra := litmus.NewTest("sym-intra").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("ld.cg r0,[x]").
		IntraCTA().
		Exists("3:r0=1").
		MustBuild()
	// Writers of the initial value: the reads' value domain is {0} alone, so
	// the test has one path combination whose rf cross product still spans
	// init plus three interchangeable writers — the chunked single-combo shape.
	initVal := litmus.NewTest("sym-init-value").
		Global("x", 0).
		Thread("st.cg [x],0").
		Thread("st.cg [x],0").
		Thread("st.cg [x],0").
		Thread("ld.cg r0,[x]").
		InterCTA().
		Exists("3:r0=0").
		MustBuild()
	// Mixed scope tree: writers 0 and 1 share a CTA, writer 2 and the reader
	// have their own. Only {0, 1} are CTA-compatible, so the class must stop
	// at the scope boundary even though all three writes look identical.
	mixed := litmus.NewTest("sym-mixed-scope").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("ld.cg r0,[x]").
		Scope(litmus.ScopeTree{CTAs: []litmus.CTAScope{
			{Warps: []litmus.WarpScope{{Threads: []int{0}}, {Threads: []int{1}}}},
			{Warps: []litmus.WarpScope{{Threads: []int{2}}}},
			{Warps: []litmus.WarpScope{{Threads: []int{3}}}},
		}}).
		Exists("3:r0=1").
		MustBuild()
	return []*litmus.Test{symWriters(3), unobserved, twoLocs, intra, initVal, mixed}
}

// mpExtra is mp, optionally with membar.gl between each thread's two
// accesses, plus k extra pairs of solo writers of distinct values to x and
// y: the shape the value-blind classes collapse. Its exhaustive space is
// 36, 576 and 14,400 executions for k = 1, 2, 3.
func mpExtra(k int, fence bool) *litmus.Test {
	name := fmt.Sprintf("mp+%dw", k)
	t0 := []string{"st.cg [x],1", "st.cg [y],1"}
	t1 := []string{"ld.cg r1,[y]", "ld.cg r2,[x]"}
	if fence {
		name = fmt.Sprintf("mp+membar.gl+%dw", k)
		t0 = []string{t0[0], "membar.gl", t0[1]}
		t1 = []string{t1[0], "membar.gl", t1[1]}
	}
	b := litmus.NewTest(name).Global("x", 0).Global("y", 0).Thread(t0...).Thread(t1...)
	for i := 0; i < k; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [x],%d", 2+i)).Thread(fmt.Sprintf("st.cg [y],%d", 2+i))
	}
	return b.InterCTA().Exists("1:r1=1 /\\ 1:r2=0").MustBuild()
}

// blindTests builds the hand-written value-blind corpus: solo writers of
// distinct values, whose coherence positions only matter while some read
// takes them or they are co-last.
func blindTests(t *testing.T) []*litmus.Test {
	t.Helper()
	tests := []*litmus.Test{}
	for k := 1; k <= 3; k++ {
		tests = append(tests, mpExtra(k, false), mpExtra(k, true))
	}
	// The co-last write's value differs from the other members', and the
	// final memory reads it.
	coLast := litmus.NewTest("blind-co-last").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		Thread("st.cg [x],3").
		Thread("ld.cg r0,[x]").
		InterCTA().
		Exists("x=2 /\\ 3:r0=1").
		MustBuild()
	// A same-value class {1, 1} beside the distinct-value writers 2 and 3
	// at one location: the two groupings must stay disjoint.
	mixedVals := litmus.NewTest("blind-beside-same-value").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		Thread("st.cg [x],3").
		Thread("ld.cg r0,[x]").
		InterCTA().
		Exists("x=1 /\\ 4:r0=3").
		MustBuild()
	// Two readers: writer 2 is read under some rf choices and not others,
	// so its eligibility changes from one choice to the next.
	sometimesRead := litmus.NewTest("blind-sometimes-read").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		Thread("st.cg [x],3").
		Thread("ld.cg r0,[x]").
		Thread("ld.cg r1,[x]").
		InterCTA().
		Exists("3:r0=2 /\\ 4:r1=0").
		MustBuild()
	// Writers 0 and 1 share a CTA with the reader, writers 2 and 3 have
	// their own: the scope tree splits the location's writers into {0, 1}
	// and {2, 3}.
	split := litmus.NewTest("blind-scope-split").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.cg [x],2").
		Thread("st.cg [x],3").
		Thread("st.cg [x],4").
		Thread("ld.cg r0,[x]").
		Scope(litmus.ScopeTree{CTAs: []litmus.CTAScope{
			{Warps: []litmus.WarpScope{{Threads: []int{0}}, {Threads: []int{1}}, {Threads: []int{4}}}},
			{Warps: []litmus.WarpScope{{Threads: []int{2}}}},
			{Warps: []litmus.WarpScope{{Threads: []int{3}}}},
		}}).
		Exists("x=3 /\\ 4:r0=0").
		MustBuild()
	// Mixed cache operators and volatility, which no .cat word reads: all
	// five writers form one value-blind class.
	annot := litmus.NewTest("blind-annotations").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("st.ca [x],2").
		Thread("st.cg [x],3").
		Thread("st.volatile [x],4").
		Thread("st.cg [x],5").
		Thread("ld.cg r0,[x]").
		InterCTA().
		Exists("x=4 /\\ 5:r0=2").
		MustBuild()
	return append(tests, coLast, mixedVals, sometimesRead, split, annot)
}

// randomSymTests generates a seeded corpus biased toward symmetry: one
// location, 3-4 threads each a solo writer (values collide often, including
// the initial value), a solo reader, or a write-then-read pair, under an
// inter- or intra-CTA tree. The memory condition keeps unobserved writes
// relevant to the verdict.
func randomSymTests(t *testing.T, n int) []*litmus.Test {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tests := make([]*litmus.Test, 0, n)
	for i := 0; i < n; i++ {
		b := litmus.NewTest(fmt.Sprintf("rand-sym-%d", i)).Global("x", 0)
		nt := 3 + rng.Intn(2)
		for tid := 0; tid < nt; tid++ {
			switch rng.Intn(4) {
			case 0, 1:
				b = b.Thread(fmt.Sprintf("st.cg [x],%d", rng.Intn(3)))
			case 2:
				b = b.Thread("ld.cg r0,[x]")
			default:
				b = b.Thread(fmt.Sprintf("st.cg [x],%d", rng.Intn(3)), "ld.cg r0,[x]")
			}
		}
		if rng.Intn(2) == 0 {
			b = b.InterCTA()
		} else {
			b = b.IntraCTA()
		}
		test, err := b.Exists("x=1").Build()
		if err != nil {
			t.Fatalf("rand-sym-%d: %v", i, err)
		}
		tests = append(tests, test)
	}
	return tests
}

// pruneCorpus is the full differential corpus: the producer tests (paper
// tests plus the memoization stress shapes, none of which have symmetry
// classes — there the pruned stream must simply equal the exhaustive one)
// and the symmetric corpus above.
func pruneCorpus(t *testing.T) []*litmus.Test {
	t.Helper()
	tests := producerTests(t)
	tests = append(tests, symmetryTests(t)...)
	tests = append(tests, blindTests(t)...)
	return append(tests, randomSymTests(t, 6)...)
}

// renderFinal renders an execution's complete final state — registers in
// thread/register order plus every location's memory — the unit the
// weighted outcome-histogram comparison is over.
func renderFinal(x *Execution) string {
	var sb strings.Builder
	tids := make([]int, 0, len(x.Final.Regs))
	for tid := range x.Final.Regs {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		regs := make([]string, 0, len(x.Final.Regs[tid]))
		for r := range x.Final.Regs[tid] {
			regs = append(regs, string(r))
		}
		sort.Strings(regs)
		for _, r := range regs {
			fmt.Fprintf(&sb, "%d:%s=%d;", tid, r, x.Final.Regs[tid][ptx.Reg(r)])
		}
	}
	for _, loc := range x.Test.Locations() {
		v, _ := x.Final.Mem(loc)
		fmt.Fprintf(&sb, "%s=%d;", loc, v)
	}
	return sb.String()
}

// weightedExec is one streamed execution as the differential compares it.
type weightedExec struct {
	str   string // full content render (events, rf, co, final memory)
	final string // final-state render alone
	w     int    // Execution.Weight()
}

func collectWeighted(t *testing.T, en *Enumeration) []weightedExec {
	t.Helper()
	var out []weightedExec
	if err := en.StreamCtx(context.Background(), func(x *Execution) error {
		out = append(out, weightedExec{str: renderExec(x), final: renderFinal(x), w: x.Weight()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrunedStreamMatchesExhaustive is the producer-level differential
// oracle: checkPrunedStream over the whole corpus.
func TestPrunedStreamMatchesExhaustive(t *testing.T) {
	for _, test := range pruneCorpus(t) {
		checkPrunedStream(t, test, DefaultOpts())
	}
}

// checkPrunedStream checks test's pruned stream against its exhaustive
// one, both prepared with opts' bounds:
//
//   - weights: every exhaustive execution has weight 1, and the pruned
//     weights sum to the exhaustive count (MaxExecs accounting is exact);
//   - content: the pruned stream is an in-order subsequence of the
//     exhaustive stream — every representative is a real execution the
//     exhaustive order would have produced at that relative position, and
//     in particular the first executions (witness selection) coincide;
//   - outcomes: the weighted final-state histogram equals the exhaustive
//     one, so observable-state counting cannot tell the modes apart.
func checkPrunedStream(t *testing.T, test *litmus.Test, opts Opts) {
	t.Helper()
	exOpts := opts
	exOpts.Exhaustive = true
	opts.Exhaustive = false
	ex, err := Prepare(test, exOpts)
	if err != nil {
		t.Fatalf("%s: exhaustive: %v", test.Name, err)
	}
	pr, err := Prepare(test, opts)
	if err != nil {
		t.Fatalf("%s: pruned: %v", test.Name, err)
	}
	exs := collectWeighted(t, ex)
	prs := collectWeighted(t, pr)

	for i, e := range exs {
		if e.w != 1 {
			t.Errorf("%s: exhaustive execution %d has weight %d, want 1", test.Name, i, e.w)
			break
		}
	}
	total := 0
	for _, p := range prs {
		total += p.w
	}
	if total != len(exs) {
		t.Errorf("%s: pruned weights sum to %d, exhaustive count is %d", test.Name, total, len(exs))
		return
	}
	if len(prs) > 0 && prs[0].str != exs[0].str {
		t.Errorf("%s: first pruned execution differs from first exhaustive:\n%s\nvs\n%s",
			test.Name, prs[0].str, exs[0].str)
	}
	j := 0
	for i, p := range prs {
		k := j
		for k < len(exs) && exs[k].str != p.str {
			k++
		}
		if k == len(exs) {
			t.Errorf("%s: pruned execution %d is not in the exhaustive stream at or after position %d:\n%s",
				test.Name, i, j, p.str)
			break
		}
		j = k + 1
	}

	want := map[string]int{}
	for _, e := range exs {
		want[e.final]++
	}
	got := map[string]int{}
	for _, p := range prs {
		got[p.final] += p.w
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d weighted final states, exhaustive has %d", test.Name, len(got), len(want))
		return
	}
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%s: final state %q has weight %d, exhaustive count %d", test.Name, f, got[f], n)
		}
	}
}

// TestSymmetryPrunedCounts pins the arithmetic of the canonical symmetric
// shapes, derived by hand from the restricted-growth rf form and the
// coherence canonicality filter:
//
// sym-3writers (3 interchangeable writers of 1, two readers): orbit size
// 3! = 6 per skeleton. Per path combination (reader values (0,0), (0,1),
// (1,0), (1,1)) the exhaustive stream has 1, 3, 3 and 9 rf choices times 6
// coherence orders = 96 executions; the pruned stream visits 1, 3, 3 and 9
// representatives = 16, each of weight 6.
//
// sym-unobserved (writers 1, 1, 2; nobody reads): one class of two, orbit
// size 2; 3! = 6 exhaustive coherence orders collapse to 3 representatives.
// Writer 2 stays out of the value-blind grouping: the others already form
// a same-value class.
//
// co3 (writers 1, 2, 3; nobody reads): one value-blind class of three.
// Each of the 3 co-last choices pins one writer and leaves two eligible, so
// 6 coherence orders collapse to 3 representatives of weight 2! = 2.
//
// mp+kw (± membar.gl): x and y each get a value-blind class of k extra
// writers. The weights vary per execution (wantWeight 0 skips that check);
// 36, 576 and 14,400 executions collapse to 36, 484 and 5,476 visits.
//
// Cache operators and volatility split no class: sym-annotations (writers
// .cg, .ca and .volatile of 1) prunes exactly as sym-3writers, 96
// executions to 16 visits (96 while annotations split classes), and
// blind-annotations (blindTests) visits 90 of 720 (384 while they split).
func TestSymmetryPrunedCounts(t *testing.T) {
	check := func(test *litmus.Test, wantVisits, wantTotal, wantWeight int) {
		t.Helper()
		en, err := Prepare(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		prs := collectWeighted(t, en)
		total := 0
		for i, p := range prs {
			total += p.w
			if wantWeight != 0 && p.w != wantWeight {
				t.Errorf("%s: execution %d has weight %d, want %d", test.Name, i, p.w, wantWeight)
			}
		}
		if len(prs) != wantVisits || total != wantTotal {
			t.Errorf("%s: %d visits summing to %d, want %d visits summing to %d",
				test.Name, len(prs), total, wantVisits, wantTotal)
		}
	}
	check(symWriters(3), 16, 96, 6)
	check(symmetryTests(t)[1], 3, 6, 2) // sym-unobserved
	check(co3Test(), 3, 6, 2)
	check(litmus.NewTest("sym-annotations").Global("x", 0).
		Thread("st.cg [x],1").Thread("st.ca [x],1").Thread("st.volatile [x],1").
		Thread("ld.cg r0,[x]").Thread("ld.cg r0,[x]").
		InterCTA().Exists("4:r0=1").MustBuild(), 16, 96, 6)
	blind := blindTests(t)
	check(blind[len(blind)-1], 90, 720, 0) // blind-annotations
	for _, fence := range []bool{false, true} {
		check(mpExtra(1, fence), 36, 36, 1)
		check(mpExtra(2, fence), 484, 576, 0)
		check(mpExtra(3, fence), 5476, 14400, 0)
	}
}

// TestStreamComboChunksMatchStreamCombo pins the chunked producer: for
// every combination of every corpus test, in both modes, concatenating
// StreamComboChunk(combo, 0..chunks-1) must reproduce StreamCombo(combo)
// byte for byte, and the pre-pruning estimate must bound the weighted
// completion count.
func TestStreamComboChunksMatchStreamCombo(t *testing.T) {
	for _, test := range pruneCorpus(t) {
		for _, opts := range []Opts{DefaultOpts(), {Exhaustive: true}} {
			mode := "pruned"
			if opts.Exhaustive {
				mode = "exhaustive"
			}
			en, err := Prepare(test, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", test.Name, mode, err)
			}
			var a Assembler
			for c := 0; c < en.Combos(); c++ {
				var whole []weightedExec
				if err := en.StreamCombo(c, &a, func(x *Execution) error {
					whole = append(whole, weightedExec{str: renderExec(x), w: x.Weight()})
					return nil
				}); err != nil {
					t.Fatalf("%s/%s: combo %d: %v", test.Name, mode, c, err)
				}
				chunks, estimate := en.ComboChunks(c, &a)
				if chunks == 0 {
					if len(whole) != 0 {
						t.Fatalf("%s/%s: combo %d reports 0 chunks but streams %d executions",
							test.Name, mode, c, len(whole))
					}
					continue
				}
				var cat []weightedExec
				for k := 0; k < chunks; k++ {
					if err := en.StreamComboChunk(c, k, &a, func(x *Execution) error {
						cat = append(cat, weightedExec{str: renderExec(x), w: x.Weight()})
						return nil
					}); err != nil {
						t.Fatalf("%s/%s: combo %d chunk %d: %v", test.Name, mode, c, k, err)
					}
				}
				if len(cat) != len(whole) {
					t.Fatalf("%s/%s: combo %d: chunks yielded %d executions, whole combo %d",
						test.Name, mode, c, len(cat), len(whole))
				}
				weighted := 0
				for i := range cat {
					if cat[i] != whole[i] {
						t.Fatalf("%s/%s: combo %d: execution %d differs:\n%s\nvs\n%s",
							test.Name, mode, c, i, cat[i].str, whole[i].str)
					}
					weighted += cat[i].w
				}
				if weighted > estimate {
					t.Fatalf("%s/%s: combo %d: weighted count %d exceeds estimate %d",
						test.Name, mode, c, weighted, estimate)
				}
			}
		}
	}
}

// TestStreamComboChunkRanges pins the boundary behaviour of the chunk API:
// out-of-range combinations report no chunks, and out-of-range chunk
// indices fail loudly rather than streaming nothing.
func TestStreamComboChunkRanges(t *testing.T) {
	en, err := Prepare(symWriters(3), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var a Assembler
	if chunks, estimate := en.ComboChunks(-1, &a); chunks != 0 || estimate != 0 {
		t.Errorf("ComboChunks(-1) = (%d, %d), want (0, 0)", chunks, estimate)
	}
	if chunks, estimate := en.ComboChunks(en.Combos(), &a); chunks != 0 || estimate != 0 {
		t.Errorf("ComboChunks(Combos()) = (%d, %d), want (0, 0)", chunks, estimate)
	}
	chunks, _ := en.ComboChunks(0, &a)
	if chunks == 0 {
		t.Fatal("combo 0 must have chunks")
	}
	noop := func(*Execution) error { return nil }
	if err := en.StreamComboChunk(0, -1, &a, noop); err == nil {
		t.Error("chunk -1 must fail")
	}
	if err := en.StreamComboChunk(0, chunks, &a, noop); err == nil {
		t.Errorf("chunk %d of %d must fail", chunks, chunks)
	}
	if err := en.StreamComboChunk(en.Combos(), 0, &a, noop); err == nil {
		t.Error("out-of-range combo must fail")
	}
}

// TestMaxExecsWeightedBound pins that the bound semantics are mode-blind:
// with MaxExecs set to the exhaustive total both modes stream everything;
// one below, both fail with BoundError (the pruned producer must not yield
// a representative whose class straddles the bound).
func TestMaxExecsWeightedBound(t *testing.T) {
	test := symWriters(3)
	full, err := Prepare(test, Opts{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	total := len(collectStream(t, full))
	for _, exhaustive := range []bool{false, true} {
		en, err := Prepare(test, Opts{MaxExecs: total, Exhaustive: exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		if err := en.StreamCtx(context.Background(), func(x *Execution) error {
			sum += x.Weight()
			return nil
		}); err != nil {
			t.Errorf("exhaustive=%v: MaxExecs=%d failed: %v", exhaustive, total, err)
		}
		if sum != total {
			t.Errorf("exhaustive=%v: weights sum to %d, want %d", exhaustive, sum, total)
		}
		tight, err := Prepare(test, Opts{MaxExecs: total - 1, Exhaustive: exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		err = tight.StreamCtx(context.Background(), func(*Execution) error { return nil })
		if err == nil || err.Error() != tight.BoundError().Error() {
			t.Errorf("exhaustive=%v: MaxExecs=%d: err = %v, want %v", exhaustive, total-1, err, tight.BoundError())
		}
	}
}

// fuzzShape decodes data into a small test of solo writers and readers for
// FuzzPrunedMatchesExhaustive: one byte for the scope tree and condition,
// then one byte per thread (at most five) picking a solo write (.cg, .ca
// or volatile), a solo read, or a write-then-read pair, its location (x or
// y) and its value (0-3). It returns nil for data too short to hold a
// thread.
func fuzzShape(data []byte) *litmus.Test {
	if len(data) < 2 {
		return nil
	}
	head, body := data[0], data[1:]
	if len(body) > 5 {
		body = body[:5]
	}
	b := litmus.NewTest("fuzz-blind").Global("x", 0).Global("y", 0)
	for _, c := range body {
		loc := "x"
		if c&0x08 != 0 {
			loc = "y"
		}
		val := int(c>>4) & 3
		switch c & 0x07 {
		case 0, 1:
			b = b.Thread(fmt.Sprintf("st.cg [%s],%d", loc, val))
		case 2:
			b = b.Thread(fmt.Sprintf("st.ca [%s],%d", loc, val))
		case 3:
			b = b.Thread(fmt.Sprintf("st.volatile [%s],%d", loc, val))
		case 4, 5:
			b = b.Thread(fmt.Sprintf("ld.cg r0,[%s]", loc))
		default:
			b = b.Thread(fmt.Sprintf("st.cg [%s],%d", loc, val), fmt.Sprintf("ld.cg r0,[%s]", loc))
		}
	}
	switch head & 3 {
	case 0:
		b = b.InterCTA()
	case 1:
		b = b.IntraCTA()
	default:
		// Thread i joins CTA bit i of head>>2: a tree that may split classes.
		var ctas [2][]litmus.WarpScope
		for tid := range body {
			g := int(head>>(2+tid)) & 1
			ctas[g] = append(ctas[g], litmus.WarpScope{Threads: []int{tid}})
		}
		var tree litmus.ScopeTree
		for _, warps := range ctas {
			if len(warps) > 0 {
				tree.CTAs = append(tree.CTAs, litmus.CTAScope{Warps: warps})
			}
		}
		b = b.Scope(tree)
	}
	test, err := b.Exists(fmt.Sprintf("x=%d", int(head>>6)&3)).Build()
	if err != nil {
		return nil
	}
	return test
}

// FuzzPrunedMatchesExhaustive runs checkPrunedStream on random solo-writer
// and reader shapes (fuzzShape) whose exhaustive space stays small.
func FuzzPrunedMatchesExhaustive(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x10, 0x20, 0x30},             // co3 with a write of the initial value
		{0x00, 0x10, 0x20, 0x30, 0x04},       // plus a reader
		{0x01, 0x10, 0x10, 0x20, 0x30, 0x04}, // same-value class beside blind writers, intra-CTA
		{0x42, 0x10, 0x22, 0x33, 0x30, 0x04}, // cache-op and volatile mismatches, split tree
		{0x0e, 0x10, 0x20, 0x30, 0x04, 0x05}, // two readers, split tree
		{0x80, 0x16, 0x26, 0x30, 0x18, 0x28}, // write-then-read pairs, two locations
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		test := fuzzShape(data)
		if test == nil {
			return
		}
		opts := Opts{MaxExecs: 1 << 12, Exhaustive: true}
		en, err := Prepare(test, opts)
		if err != nil {
			return
		}
		if err := en.StreamCtx(context.Background(), func(*Execution) error { return nil }); err != nil {
			return // too large for a quick differential
		}
		checkPrunedStream(t, test, opts)
	})
}
