package harness

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// digestCell is one (test, chip, incantation) cell of the digest corpus.
type digestCell struct {
	test *litmus.Test
	chip *chip.Profile
	inc  chip.Incant
}

// paperIncant is the incantation the figures run under: the default
// stress, plus bank conflicts for intra-CTA tests.
func paperIncant(t *litmus.Test) chip.Incant {
	inc := chip.Default()
	if len(t.Scope.CTAs) == 1 {
		inc.BankConflicts = true
	}
	return inc
}

// digestCorpus is the simulator's pinned corpus: every paper test, the
// figure tests, a few diy cycles and every application study, each on
// every result chip under the paper incantation, plus mp under all 16
// incantations on the GTX Titan.
func digestCorpus() []digestCell {
	tests := litmus.PaperTests()
	for _, f := range litmus.Fences {
		tests = append(tests, litmus.MPL1(f), litmus.CoRRL2L1(f))
	}
	tests = append(tests, litmus.MPVolatile(),
		litmus.DlbMP(false), litmus.DlbLB(false), litmus.CasSL(false), litmus.SlFuture(false))
	for _, g := range diy.Generate(diy.DefaultPool(), 3, 6) {
		tests = append(tests, g.Test)
	}
	tests = append(tests, litmustest.Apps()...)
	var cells []digestCell
	for _, t := range tests {
		for _, p := range chip.ResultChips() {
			cells = append(cells, digestCell{t, p, paperIncant(t)})
		}
	}
	for _, inc := range chip.AllIncants() {
		cells = append(cells, digestCell{litmus.MP(litmus.NoFence), chip.GTXTitan, inc})
	}
	return cells
}

const (
	digestRuns = 100
	digestSeed = 20150314
)

// histogramDigest hashes, cell by cell, harness.Run's sorted histogram and
// match count and the ticks sim.Run spends over the same iteration seeds.
func histogramDigest(t *testing.T, cells []digestCell) string {
	t.Helper()
	h := sha256.New()
	for ci, c := range cells {
		seed := digestSeed + int64(ci)*10_007
		o, err := Run(c.test, Config{Chip: c.chip, Incant: c.inc, Runs: digestRuns, Seed: seed, Parallelism: 2})
		if err != nil {
			t.Fatalf("%s on %s: %v", c.test.Name, c.chip.ShortName, err)
		}
		ticks := 0
		for i := 0; i < digestRuns; i++ {
			res, err := sim.Run(c.test, c.chip, c.inc, seed+int64(i))
			if err != nil {
				t.Fatalf("%s on %s: %v", c.test.Name, c.chip.ShortName, err)
			}
			ticks += res.Ticks
		}
		keys := make([]string, 0, len(o.Histogram))
		for k := range o.Histogram {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|", c.test.Name, c.chip.ShortName, c.inc, o.Matches, ticks)
		for _, k := range keys {
			fmt.Fprintf(h, "%s:%d;", k, o.Histogram[k])
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestHistogramDigest pins the simulator's output: every histogram, match
// count and tick total of the digest corpus at a fixed seed. Any change to
// the simulator's schedules or to the harness's bookkeeping moves it.
func TestHistogramDigest(t *testing.T) {
	const want = "cdc29edd7420c0d2646cf6871866c7cdf3b7868fc59533820ebbe8686410c058"
	if got := histogramDigest(t, digestCorpus()); got != want {
		t.Errorf("histogram digest = %s, want %s", got, want)
	}
}
