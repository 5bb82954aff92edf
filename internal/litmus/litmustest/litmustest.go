// Package litmustest is the one test corpus the differential tests take
// their tests from: the paper tests, the diy cycles, a seeded random
// generator, hand-written shapes that stress the producer, symmetry
// pruning and value-blind coherence classes, and the application
// studies. A shape added here is checked by every differential that
// runs its sub-corpus. Run runs a check over a corpus, one subtest per
// test.
//
// The packages litmustest imports (litmus, ptx, diy, sim, apps, chip,
// obs) cannot use it from their package-internal tests.
package litmustest

import (
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/apps"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Paper returns the paper's 24 tests, litmus.PaperTests.
func Paper() []*litmus.Test { return litmus.PaperTests() }

// Cycles returns the 776 diy cycles of up to four edges in generation
// order, under every mode: the corpus goldens, digests, decision floors
// and fuzz seeds are computed on.
func Cycles() []*litmus.Test {
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	tests := make([]*litmus.Test, len(gen))
	for i, g := range gen {
		tests[i] = g.Test
	}
	return tests
}

// Diy returns the diy cycles a differential runs on: every cycle, or
// under -short the cycles whose index in Cycles is a multiple of 8 or of
// 13.
func Diy(tb testing.TB) []*litmus.Test {
	tb.Helper()
	tests := Cycles()
	if !testing.Short() {
		return tests
	}
	var sample []*litmus.Test
	for i, t := range tests {
		if i%8 == 0 || i%13 == 0 {
			sample = append(sample, t)
		}
	}
	return sample
}

// Apps returns the litmus tests of the application studies, apps.All.
func Apps() []*litmus.Test {
	var tests []*litmus.Test
	for _, a := range apps.All() {
		tests = append(tests, a.Test)
	}
	return tests
}

// Shapes returns the hand-written sub-corpora: Producer, Symmetric and
// Blind.
func Shapes() []*litmus.Test { return slices.Concat(Producer(), Symmetric(), Blind()) }

// All returns every sub-corpus in one list, under every mode: Paper,
// Cycles, Random(120), Producer, Symmetric, Blind and Apps.
func All() []*litmus.Test {
	return slices.Concat(Paper(), Cycles(), Random(120), Shapes(), Apps())
}

// Run runs check on every test of corpus, each in a subtest named by the
// test, so a failure names the test it failed on.
func Run(t *testing.T, corpus []*litmus.Test, check func(t *testing.T, test *litmus.Test)) {
	t.Helper()
	for _, test := range corpus {
		t.Run(test.Name, func(t *testing.T) { check(t, test) })
	}
}
