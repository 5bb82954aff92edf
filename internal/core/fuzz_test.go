package core

import (
	"context"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// FuzzRepair drives the fence-repair synthesis engine with arbitrary
// litmus sources, seeded from every paper test plus the §6 broken-idiom
// corpus, and holds the engine's whole contract: every suggested repair
// re-parses, round-trips through String with a stable fingerprint, and is
// judge-verified Never under PTX. CI runs a 15s burst next to FuzzParse.
func FuzzRepair(f *testing.F) {
	for _, t := range litmus.PaperTests() {
		f.Add(t.String())
	}
	for _, t := range []*litmus.Test{
		litmus.MPL1(litmus.FenceCTA),
		litmus.MP(litmus.NoFence),
		litmus.MP(litmus.FenceCTA),
		litmus.MP(litmus.FenceGL),
		litmus.LB(litmus.FenceCTA),
		litmus.SB(),
	} {
		f.Add(t.String())
	}
	m := PTX()
	f.Fuzz(func(t *testing.T, src string) {
		test, err := litmus.Parse(src)
		if err != nil {
			return
		}
		// Keep each iteration cheap: repair verification enumerates rf×co
		// candidates per oracle call, which grows combinatorially with the
		// number of accesses.
		if len(test.Threads) > 3 {
			return
		}
		instrs := 0
		for _, th := range test.Threads {
			instrs += len(th.Prog)
		}
		if instrs > 8 {
			return
		}
		r, err := Repair(m, test)
		if err != nil {
			// The judge rejects some parseable tests (e.g. value domains it
			// cannot bound); those are its errors to report, not repair bugs.
			t.Skip()
		}
		if !r.Verified || len(r.Actions) == 0 {
			return
		}
		re, err := litmus.Parse(r.Repaired.String())
		if err != nil {
			t.Fatalf("suggested repair does not re-parse: %v\nactions: %v\n%s", err, r.Actions, r.Repaired.String())
		}
		if re.Fingerprint() != r.Repaired.Fingerprint() {
			t.Fatalf("repair fingerprint drifts across String round-trip\nactions: %v", r.Actions)
		}
		v, err := Judge(m, r.Repaired)
		if err != nil {
			t.Fatalf("judging the suggested repair: %v", err)
		}
		if v.Observable {
			t.Fatalf("suggested repair is not Never under %s\nactions: %v\n%s", m.Name, r.Actions, r.Repaired.String())
		}
	})
}

// FuzzPrefilter holds the static analysis to the judge on arbitrary litmus
// sources, seeded from the paper tests, litmustest.Diy, litmustest.Shapes
// and the application tests. For each source the parser accepts and the
// judge can judge within 4096 candidates, a decided Prefilter under each
// builtin model agrees with JudgeWith, and a test that Prefilter under
// PolicyNone forbids (the test /v1/sweep skips) has no witness under any
// of them. CI runs a 15s burst next to FuzzRepair. The random tests are
// held to both claims by TestStaticDifferentialRandomCorpus and
// TestUnsatisfiableDifferential; as seeds they would dominate the
// package's run time, since judging rand-106 walks 3,240,000 path
// combinations for 192 candidates under each model.
func FuzzPrefilter(f *testing.F) {
	for _, t := range slices.Concat(litmustest.Paper(), litmustest.Diy(f), litmustest.Shapes(), litmustest.Apps()) {
		f.Add(t.String())
	}
	ms := builtinModels()
	f.Fuzz(func(t *testing.T, src string) {
		test, err := litmus.Parse(src)
		if err != nil {
			return
		}
		en, err := axiom.Prepare(test, axiom.Opts{MaxExecs: 4096})
		if err != nil {
			return
		}
		unsat := analysis.Prefilter(en, analysis.PolicyNone).Verdict == analysis.Forbidden
		for _, m := range ms {
			v, err := JudgeWith(context.Background(), m, test, Opts{Enum: en})
			if err != nil {
				return
			}
			if res := m.Prefilter(test); res.Verdict != analysis.Unknown && (res.Verdict == analysis.Allowed) != v.Observable {
				t.Fatalf("Prefilter under %s says %s (%s), JudgeWith finds %d witnesses\n%s", m.Name, res.Verdict, res.Reason, v.Witnesses, src)
			}
			if unsat && v.Witnesses != 0 {
				t.Fatalf("Prefilter(none) forbids, but JudgeWith under %s finds %d witnesses\n%s", m.Name, v.Witnesses, src)
			}
		}
	})
}
