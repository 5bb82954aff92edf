package core

import (
	"context"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// sweepSkips is the expression /v1/sweep decides its static skips with:
// t prepares, and Prefilter under PolicyNone, which makes no model
// assumption, forbids its condition.
func sweepSkips(t *litmus.Test) bool {
	en, err := axiom.Prepare(t, axiom.DefaultOpts())
	return err == nil && analysis.Prefilter(en, analysis.PolicyNone).Verdict == analysis.Forbidden
}

// TestUnsatisfiableDifferential holds the sweep's static skip (sweepSkips)
// to both semantics its claim covers, over the paper tests, the 776 diy
// cycles and 600 random tests: a test it flags has no witness under any
// builtin model, and no run of it on any result chip's simulator matches
// its condition. /v1/sweep skips the harness cells of a flagged test, so a
// wrong flag would hide an observation.
func TestUnsatisfiableDifferential(t *testing.T) {
	runs := 2000
	if testing.Short() {
		runs = 200
	}
	corpus := litmus.PaperTests()
	for _, g := range diy.Generate(diy.DefaultPool(), 4, 1<<20) {
		corpus = append(corpus, g.Test)
	}
	corpus = append(corpus, randCorpus(t, 600)...)
	ms := builtinModels()
	flagged := 0
	for _, tst := range corpus {
		if !sweepSkips(tst) {
			continue
		}
		flagged++
		vs, err := JudgeModels(context.Background(), ms, tst, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", tst.Name, err)
		}
		for i, v := range vs {
			if v.Witnesses != 0 {
				t.Errorf("%s flagged unsatisfiable, but %s finds %d witnesses", tst.Name, ms[i].Name, v.Witnesses)
			}
		}
		for _, p := range chip.ResultChips() {
			out, err := harness.Run(tst, harness.Config{Chip: p, Incant: chip.Default(), Runs: runs, Seed: 1})
			if err != nil {
				t.Fatalf("%s on %s: %v", tst.Name, p.ShortName, err)
			}
			if out.Matches != 0 {
				t.Errorf("%s flagged unsatisfiable, but %d of %d runs on %s match", tst.Name, out.Matches, runs, p.ShortName)
			}
		}
	}
	t.Logf("the sweep's static skip flagged %d of %d tests", flagged, len(corpus))
	checkDecidedFloor(t, flagged, 269)
}
