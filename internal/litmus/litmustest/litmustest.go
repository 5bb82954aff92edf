// Package litmustest generates the seeded random litmus tests that the
// differential tests hold the static analysis to the judge on.
package litmustest

import (
	"fmt"
	"math/rand"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Random synthesizes a small random litmus test named rand-<idx>, or
// returns nil when the drawn program is invalid. The generator is
// seeded, so the corpus is identical on every run; it intentionally
// produces guarded instructions, atomics, fences at every scope, and
// conditions with negations and disjunctions to push the prefilter's
// soundness guards.
func Random(r *rand.Rand, idx int) *litmus.Test {
	locs := []string{"x", "y", "z"}
	nThreads := 2 + r.Intn(2)
	b := litmus.NewTest(fmt.Sprintf("rand-%03d", idx))
	for _, l := range locs {
		b.Global(l, int64(r.Intn(2)))
	}
	type readRec struct {
		tid int
		reg string
	}
	var reads []readRec
	for tid := 0; tid < nThreads; tid++ {
		var prog []string
		nInstr := 1 + r.Intn(4)
		reg := 0
		newReg := func() string { reg++; return fmt.Sprintf("r%d", reg) }
		for i := 0; i < nInstr; i++ {
			loc := locs[r.Intn(len(locs))]
			guard := ""
			if r.Intn(6) == 0 && len(reads) > 0 && reads[len(reads)-1].tid == tid {
				guard = fmt.Sprintf("@%s ", reads[len(reads)-1].reg)
			}
			switch r.Intn(8) {
			case 0, 1, 2:
				prog = append(prog, fmt.Sprintf("%sst.cg [%s],%d", guard, loc, r.Intn(3)))
			case 3, 4, 5:
				rr := newReg()
				prog = append(prog, fmt.Sprintf("%sld.cg %s,[%s]", guard, rr, loc))
				reads = append(reads, readRec{tid, rr})
			case 6:
				prog = append(prog, []string{"membar.cta", "membar.gl", "membar.sys"}[r.Intn(3)])
			case 7:
				rr := newReg()
				switch r.Intn(3) {
				case 0:
					prog = append(prog, fmt.Sprintf("atom.exch.b32 %s,[%s],%d", rr, loc, r.Intn(3)))
				case 1:
					prog = append(prog, fmt.Sprintf("atom.add.s32 %s,[%s],%d", rr, loc, 1+r.Intn(2)))
				case 2:
					prog = append(prog, fmt.Sprintf("atom.cas.b32 %s,[%s],%d,%d", rr, loc, r.Intn(2), r.Intn(3)))
				}
				reads = append(reads, readRec{tid, rr})
			}
		}
		b.Thread(prog...)
	}
	if r.Intn(2) == 0 {
		b.InterCTA()
	} else {
		b.IntraCTA()
	}
	// Condition: a random tree of register/memory atoms.
	var atom func() string
	atom = func() string {
		if len(reads) > 0 && r.Intn(3) > 0 {
			rd := reads[r.Intn(len(reads))]
			return fmt.Sprintf("%d:%s=%d", rd.tid, rd.reg, r.Intn(3))
		}
		return fmt.Sprintf("%s=%d", locs[r.Intn(len(locs))], r.Intn(3))
	}
	cond := atom()
	for i := 0; i < r.Intn(3); i++ {
		op := []string{" /\\ ", " \\/ "}[r.Intn(2)]
		next := atom()
		if r.Intn(4) == 0 {
			next = "~" + next
		}
		cond = cond + op + next
	}
	b.Exists(cond)
	tst, err := b.Build()
	if err != nil {
		return nil // some random programs are invalid; skip them
	}
	return tst
}

// Corpus returns the first n valid tests Random draws from a fixed seed
// (fewer when 10n draws do not yield n), the same on every run.
func Corpus(n int) []*litmus.Test {
	r := rand.New(rand.NewSource(0x57a71c))
	var corpus []*litmus.Test
	for i := 0; len(corpus) < n && i < 10*n; i++ {
		if tst := Random(r, i); tst != nil {
			corpus = append(corpus, tst)
		}
	}
	return corpus
}
