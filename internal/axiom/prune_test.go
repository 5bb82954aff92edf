package axiom

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// This file is the differential oracle for symmetry pruning: the pruned
// producer (the default) against the exhaustive one (Opts.Exhaustive),
// over the paper tests and litmustest's hand-written shapes, which have
// non-trivial symmetry classes: same-value solo writers, writes nobody
// reads (where only coherence permutations distinguish executions),
// classes at several locations, intra-CTA and mixed scope trees, and
// value-blind classes of distinct-value writers.

// renderFinal renders an execution's complete final state — its present
// registers in thread/register order plus every location's memory — the
// unit the weighted outcome-histogram comparison is over.
func renderFinal(x *Execution) string {
	var sb strings.Builder
	for tid := range x.Test.Threads {
		regs := slices.Clone(x.Final.Slots().Regs(tid))
		slices.Sort(regs)
		for _, r := range regs {
			if v, ok := x.Final.Reg(tid, r); ok {
				fmt.Fprintf(&sb, "%d:%s=%d;", tid, r, v)
			}
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
// oracle: checkPrunedStream over the paper tests and the shapes.
func TestPrunedStreamMatchesExhaustive(t *testing.T) {
	litmustest.Run(t, slices.Concat(litmustest.Paper(), litmustest.Shapes()), func(t *testing.T, test *litmus.Test) {
		checkPrunedStream(t, test, DefaultOpts())
	})
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
// blind-annotations visits 90 of 720 (384 while they split).
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
	check(litmustest.SymWriters(3), 16, 96, 6)
	check(litmustest.Symmetric()[3], 3, 6, 2) // sym-unobserved
	check(co3Test(), 3, 6, 2)
	check(litmustest.SymAnnotations(), 16, 96, 6)
	check(litmustest.BlindAnnotations(), 90, 720, 0)
	for _, fence := range []bool{false, true} {
		check(litmustest.MPWriters(1, fence), 36, 36, 1)
		check(litmustest.MPWriters(2, fence), 484, 576, 0)
		check(litmustest.MPWriters(3, fence), 5476, 14400, 0)
	}
}

// TestStreamComboChunksMatchStreamCombo pins the chunked producer: for
// every combination of every corpus test, in both modes, concatenating
// StreamComboChunk(combo, 0..chunks-1) must reproduce StreamCombo(combo)
// byte for byte, and the pre-pruning estimate must bound the weighted
// completion count.
func TestStreamComboChunksMatchStreamCombo(t *testing.T) {
	litmustest.Run(t, slices.Concat(litmustest.Paper(), litmustest.Shapes()), func(t *testing.T, test *litmus.Test) {
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
	})
}

// TestStreamComboChunkRanges pins the boundary behaviour of the chunk API:
// out-of-range combinations report no chunks, and out-of-range chunk
// indices fail loudly rather than streaming nothing.
func TestStreamComboChunkRanges(t *testing.T) {
	en, err := Prepare(litmustest.SymWriters(3), DefaultOpts())
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
	test := litmustest.SymWriters(3)
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
