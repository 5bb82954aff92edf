package litmustest

import (
	"fmt"
	"math/rand"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Producer returns the shapes that stress the producer: Stress(3), the
// multi-writer shape of deep rf and co spaces; chained-values, a
// multi-iteration value-domain fixpoint (a load's value plus one is
// stored and read back); cas-pair, RMW atomicity; and same-value-rf, whose
// rf choices change within one skeleton (two non-solo writers of 1 give
// the reads of 1 two sources each, and a writer of the initial value
// gives the reads of 0 the initial state or a write).
func Producer() []*litmus.Test {
	chain := litmus.NewTest("chained-values").
		Global("x", 0).Global("y", 0).
		Thread("ld.cg r1,[x]", "add r2,r1,1", "st.cg [y],r2").
		Thread("ld.cg r3,[y]", "st.cg [x],r3").
		InterCTA().Exists("0:r1=1").MustBuild()
	cas := litmus.NewTest("cas-pair").
		Global("c", 0).
		Thread("atom.cas r0,[c],0,1").
		Thread("atom.cas r1,[c],0,1").
		InterCTA().Exists("0:r0=0 /\\ 1:r1=0").MustBuild()
	sameValueRF := litmus.NewTest("same-value-rf").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "st.cg [y],1").
		Thread("st.cg [x],0", "st.cg [x],1").
		Thread("ld.cg r0,[x]", "ld.cg r1,[x]", "ld.cg r2,[y]").
		InterCTA().Exists("2:r0=1 /\\ 2:r1=0").MustBuild()
	return []*litmus.Test{Stress(3), chain, cas, sameValueRF}
}

// Stress is the multi-writer shape: `writers` threads each store a
// distinct value to x and read it back. With 3 writers it has 64 path
// combinations and 384 candidates (past the fold's auto fan-out
// threshold), with 4 writers 15,000.
func Stress(writers int) *litmus.Test {
	b := litmus.NewTest(fmt.Sprintf("stress-%dw", writers)).Global("x", 0)
	for i := 0; i < writers; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [x],%d", i+1), "ld.cg r0,[x]")
	}
	return b.InterCTA().Exists(fmt.Sprintf("0:r0=%d", writers)).MustBuild()
}

// solo builds a test on x with one single-instruction thread per entry of
// body, every thread in its own CTA unless tree is set.
func solo(name, exists string, tree *litmus.ScopeTree, body ...string) *litmus.Test {
	b := litmus.NewTest(name).Global("x", 0)
	for _, ins := range body {
		b = b.Thread(ins)
	}
	if tree == nil {
		b = b.InterCTA()
	} else {
		b = b.Scope(*tree)
	}
	return b.Exists(exists).MustBuild()
}

// ctas is a scope tree with one CTA per group, one warp per thread.
func ctas(groups ...[]int) *litmus.ScopeTree {
	var tree litmus.ScopeTree
	for _, g := range groups {
		var cta litmus.CTAScope
		for _, tid := range g {
			cta.Warps = append(cta.Warps, litmus.WarpScope{Threads: []int{tid}})
		}
		tree.CTAs = append(tree.CTAs, cta)
	}
	return &tree
}

// SymWriters is the canonical symmetric shape: `writers` interchangeable
// solo writers of 1 plus two readers, every thread in its own CTA. The
// writers form one class of orbit size writers!: 3 writers have 96
// candidates visited as 16 representatives, 4 writers 600 as 25.
func SymWriters(writers int) *litmus.Test {
	var body []string
	for i := 0; i < writers; i++ {
		body = append(body, "st.cg [x],1")
	}
	body = append(body, "ld.cg r0,[x]", "ld.cg r0,[x]")
	return solo(fmt.Sprintf("sym-%dwriters", writers), fmt.Sprintf("%d:r0=1", writers), nil, body...)
}

// SoloChunk is the chunked-driver shape: three writers of the initial
// value plus two readers. Reads can only see 0, so the test has one path
// combination, while its rf cross product spans four sources (init and
// three interchangeable writers), which the fold's chunk split fans out.
func SoloChunk() *litmus.Test {
	return solo("solo-chunk", "3:r0=0", nil, "st.cg [x],0", "st.cg [x],0", "st.cg [x],0", "ld.cg r0,[x]", "ld.cg r0,[x]")
}

// SymAnnotations is SymWriters(3) with writers .cg, .ca and .volatile:
// cache operators and volatility, which no .cat word reads, split no
// class.
func SymAnnotations() *litmus.Test {
	return solo("sym-annotations", "4:r0=1", nil, "st.cg [x],1", "st.ca [x],1", "st.volatile [x],1", "ld.cg r0,[x]", "ld.cg r0,[x]")
}

// Symmetric returns the shapes with non-trivial symmetry classes:
// SymWriters(3) and (4); sym-one-reader, SymWriters(3) with one reader;
// sym-unobserved, writers of 1, 1 and 2 nobody reads, where only
// coherence orders tell executions apart; sym-two-locs, a class at each
// of two locations; sym-intra, one CTA; sym-init-value, writers of the
// initial value; sym-mixed-scope, whose scope tree stops the class at a
// CTA boundary; SymAnnotations; SoloChunk; and rand-sym-0 to rand-sym-5,
// seeded random shapes of 3-4 threads on x, each a solo writer (values
// collide often), a solo reader or a write-then-read pair, whose
// condition x=1 keeps unobserved writes relevant to the verdict.
func Symmetric() []*litmus.Test {
	const w1, rd = "st.cg [x],1", "ld.cg r0,[x]"
	twoLocs := litmus.NewTest("sym-two-locs").
		Global("x", 0).Global("y", 0).
		Thread(w1).Thread(w1).Thread("st.cg [y],1").Thread("st.cg [y],1").
		Thread(rd, "ld.cg r1,[y]").
		InterCTA().Exists("4:r0=1 /\\ 4:r1=0").MustBuild()
	intra := litmus.IntraCTA(0, 1, 2, 3)
	tests := []*litmus.Test{
		SymWriters(3),
		SymWriters(4),
		solo("sym-one-reader", "3:r0=1", nil, w1, w1, w1, rd),
		solo("sym-unobserved", "x=2", nil, w1, w1, "st.cg [x],2"),
		twoLocs,
		solo("sym-intra", "3:r0=1", &intra, w1, w1, w1, rd),
		solo("sym-init-value", "3:r0=0", nil, "st.cg [x],0", "st.cg [x],0", "st.cg [x],0", rd),
		solo("sym-mixed-scope", "3:r0=1", ctas([]int{0, 1}, []int{2}, []int{3}), w1, w1, w1, rd),
		SymAnnotations(),
		SoloChunk(),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		b := litmus.NewTest(fmt.Sprintf("rand-sym-%d", i)).Global("x", 0)
		nt := 3 + rng.Intn(2)
		for tid := 0; tid < nt; tid++ {
			switch rng.Intn(4) {
			case 0, 1:
				b = b.Thread(fmt.Sprintf("st.cg [x],%d", rng.Intn(3)))
			case 2:
				b = b.Thread(rd)
			default:
				b = b.Thread(fmt.Sprintf("st.cg [x],%d", rng.Intn(3)), rd)
			}
		}
		if rng.Intn(2) == 0 {
			b = b.InterCTA()
		} else {
			b = b.IntraCTA()
		}
		tests = append(tests, b.Exists("x=1").MustBuild())
	}
	return tests
}

// MPWriters is mp, with membar.gl between each thread's two accesses when
// fenced, plus k extra pairs of solo writers of distinct values to x and
// y: the shape value-blind classes collapse. Its 36, 576 and 14,400
// candidates for k = 1, 2, 3 are visited as 36, 484 and 5,476.
func MPWriters(k int, fenced bool) *litmus.Test {
	name, fence := fmt.Sprintf("mp+%dw", k), []string{}
	if fenced {
		name, fence = fmt.Sprintf("mp+membar.gl+%dw", k), []string{"membar.gl"}
	}
	b := litmus.NewTest(name).Global("x", 0).Global("y", 0).
		Thread(append(append([]string{"st.cg [x],1"}, fence...), "st.cg [y],1")...).
		Thread(append(append([]string{"ld.cg r1,[y]"}, fence...), "ld.cg r2,[x]")...)
	for i := 0; i < k; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [x],%d", 2+i)).Thread(fmt.Sprintf("st.cg [y],%d", 2+i))
	}
	return b.InterCTA().Exists("1:r1=1 /\\ 1:r2=0").MustBuild()
}

// BlindAnnotations has five writers of distinct values with mixed cache
// operators and volatility, which no .cat word reads, and a reader: the
// five form one value-blind class, 720 candidates visited as 90.
func BlindAnnotations() *litmus.Test {
	return solo("blind-annotations", "x=4 /\\ 5:r0=2", nil,
		"st.cg [x],1", "st.ca [x],2", "st.cg [x],3", "st.volatile [x],4", "st.cg [x],5", "ld.cg r0,[x]")
}

// Blind returns the value-blind shapes, solo writers of distinct values
// whose coherence positions matter only while a read takes them or they
// are co-last: blind-co-last, whose co-last value differs from the other
// members' and is read by the final memory; blind-beside-same-value, a
// same-value class {1, 1} beside distinct-value writers; two readers, into
// r1 or both into r0, so writer 2 is read under some rf choices only
// (blind-sometimes-read, blind-sometimes-read-same-reg);
// blind-scope-split, whose tree puts writers 0 and 1 in the reader's CTA;
// BlindAnnotations; and MPWriters(k, fenced) for k = 1, 2, 3.
func Blind() []*litmus.Test {
	const w1, w2, w3, rd = "st.cg [x],1", "st.cg [x],2", "st.cg [x],3", "ld.cg r0,[x]"
	tests := []*litmus.Test{
		solo("blind-co-last", "x=2 /\\ 3:r0=1", nil, w1, w2, w3, rd),
		solo("blind-beside-same-value", "x=1 /\\ 4:r0=3", nil, w1, w1, w2, w3, rd),
		solo("blind-sometimes-read", "3:r0=2 /\\ 4:r1=0", nil, w1, w2, w3, rd, "ld.cg r1,[x]"),
		solo("blind-sometimes-read-same-reg", "3:r0=2 /\\ 4:r0=0", nil, w1, w2, w3, rd, rd),
		solo("blind-scope-split", "x=3 /\\ 4:r0=0", ctas([]int{0, 1, 4}, []int{2}, []int{3}), w1, w2, w3, "st.cg [x],4", rd),
		BlindAnnotations(),
	}
	for k := 1; k <= 3; k++ {
		tests = append(tests, MPWriters(k, false), MPWriters(k, true))
	}
	return tests
}

// LongPath is a test whose thread 0 has paths of 134 and 130 events, so
// that its dependency sets reach past the first 64 events of a path: 130
// loads (event 100 reads x, the others z, which nobody writes),
// then a guarded branch, an address- and data-dependent store and a
// data-dependent RMW on those loads. Nothing else in the corpus has a
// path longer than 7 events.
func LongPath() *litmus.Test {
	var body []string
	for i := 0; i < 130; i++ {
		dst, loc := "r1", "z"
		switch i {
		case 0:
			dst = "r3"
		case 70:
			dst = "r6"
		case 100:
			dst, loc = "r8", "x"
		case 129:
			dst = "r7"
		}
		body = append(body, fmt.Sprintf("ld.cg %s,[%s]", dst, loc))
	}
	body = append(body,
		"xor r2,r6,r7",
		"xor r2,r2,r8",
		"xor r2,r2,r3",
		"setp.eq p1,r2,0",
		"@!p1 bra END",
		"and r5,r8,0",
		"add r4,ra,r5",
		"st.cg [r4],r2",
		"st.cg [y],r1",
		"atom.add r9,[y],r2",
		"END:",
	)
	return litmus.NewTest("long-path").
		Global("w", 0).Global("x", 0).Global("y", 0).Global("z", 0).
		Thread(body...).AddrReg(0, "ra", "w").
		Thread("st.cg [x],1", "ld.cg r0,[y]").
		InterCTA().Exists("1:r0=1").MustBuild()
}
