package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/apps"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/optcheck"
	"github.com/weakgpu/gpulitmus/internal/sass"
)

// Validation is the Sec. 5.4 experiment: the model must allow every
// behaviour the (simulated) hardware exhibits.
type Validation struct {
	Tests        int // corpus size
	ChipsTested  []string
	WeakAllowed  int      // tests whose weak outcome the model allows
	WeakObserved int      // tests whose weak outcome some chip exhibited
	Unsound      []string // observed-but-forbidden (must be empty)
}

// Sound reports whether no observation fell outside the model.
func (v *Validation) Sound() bool { return len(v.Unsound) == 0 }

// String summarises the validation.
func (v *Validation) String() string {
	verdict := "SOUND: every observed behaviour is allowed by the model"
	if !v.Sound() {
		verdict = fmt.Sprintf("UNSOUND: %d observation(s) outside the model: %v", len(v.Unsound), v.Unsound)
	}
	return fmt.Sprintf("Model validation (Sec. 5.4 analogue): %d generated tests on %v; weak outcome allowed for %d, observed for %d; %s",
		v.Tests, v.ChipsTested, v.WeakAllowed, v.WeakObserved, verdict)
}

// ModelValidationMemo generates a diy corpus, judges each test under the
// PTX model, runs it on the most relaxed simulated chips, and checks that
// every observed final state is the final state of some model-allowed
// execution. runsPerChip is the per-test per-chip iteration budget. Both
// phases run on the campaign engine's worker pool, bounded by parallelism
// (0 selects GOMAXPROCS); results are identical for every parallelism.
// The verdicts go through a caller-owned memo, so an invocation running
// several experiments (gpuexplore's Report) shares one content-addressed
// analysis cache across them: any (model, test) content pair analysed
// here is free for every later experiment and vice versa.
func ModelValidationMemo(memo *campaign.Memo, maxTests, runsPerChip int, seed int64, parallelism int) (*Validation, error) {
	corpus := diy.Generate(diy.DefaultPool(), 4, maxTests)
	profiles := []*chip.Profile{chip.TeslaC2075, chip.GTXTitan, chip.HD7970}
	m := core.PTX()
	v := &Validation{Tests: len(corpus), ChipsTested: chipNames(profiles)}

	tests := make([]*litmus.Test, len(corpus))
	for i, g := range corpus {
		tests[i] = g.Test
	}

	// Phase 1: memoized model analysis (candidate enumeration + verdicts)
	// of every test, in parallel on the pool. The memo is shared with the
	// aggregation phase, which then hits the cache only.
	if err := campaign.ForEach(len(tests), parallelism, func(i int) error {
		if _, err := memo.Analyse(m, tests[i]); err != nil {
			return fmt.Errorf("experiments: %s: %w", tests[i].Name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: the hardware sweep, corpus × most-relaxed chips, with the
	// per-cell seeds of the serial loop this replaced.
	agg, err := campaign.Run(campaign.Spec{
		Tests:       tests,
		Chips:       profiles,
		Runs:        runsPerChip,
		Parallelism: parallelism,
		SeedFn: func(j campaign.Job) int64 {
			return seed + int64(j.TestIndex)*971 + int64(j.ChipIndex)*31
		},
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: aggregate in matrix order, so the report is deterministic
	// whatever the completion order was.
	for ti, test := range tests {
		info, err := memo.Analyse(m, test)
		if err != nil {
			return nil, err
		}
		if info.WeakAllowed {
			v.WeakAllowed++
		}
		weakObserved := false
		for pi, p := range profiles {
			out := agg.Outcome(ti, pi, 0)
			if out.Observed() {
				weakObserved = true
			}
			fps := make([]string, 0, len(out.Histogram))
			for fp := range out.Histogram {
				fps = append(fps, fp)
			}
			sort.Strings(fps)
			for _, fp := range fps {
				if !info.Allowed[fp] {
					v.Unsound = append(v.Unsound, fmt.Sprintf("%s on %s: %s", test.Name, p.ShortName, fp))
				}
			}
		}
		if weakObserved {
			v.WeakObserved++
		}
	}
	return v, nil
}

// SorensenDivergenceMemo reproduces the Sec. 6 refutation of the
// operational model: lb+membar.ctas is allowed by the paper's PTX model,
// forbidden by the operational model, and was observed on hardware
// (586/100k on Titan, 19/100k on GTX 660). Our simulator under-approximates
// here (its membar.cta orders loads for all observers), so the hardware
// evidence is quoted from the paper. The verdicts are served through a
// caller-owned memo; if the invocation already judged lb+membar.ctas under
// either model (content-addressed, whatever the pointer), the cached
// verdict is reused.
func SorensenDivergenceMemo(memo *campaign.Memo) (string, error) {
	test := litmus.LB(litmus.FenceCTA)
	ptxV, err := memo.Verdict(core.PTX(), test)
	if err != nil {
		return "", err
	}
	opV, err := memo.Verdict(core.SorensenOp(), test)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sec. 6: %s\n", test.Name)
	fmt.Fprintf(&sb, "  PTX model (this paper):        allowed=%v (must be true)\n", ptxV.Observable)
	fmt.Fprintf(&sb, "  Operational model (Sorensen):  allowed=%v (must be false)\n", opV.Observable)
	fmt.Fprintf(&sb, "  Paper hardware observations:   Titan 586/100k, GTX 660 19/100k -> the operational model is unsound\n")
	fmt.Fprintf(&sb, "  (simulator note: our membar.cta waits for outstanding loads, an intentional\n")
	fmt.Fprintf(&sb, "   under-approximation that keeps the simulator sound w.r.t. the PTX model)\n")
	if !ptxV.Observable || opV.Observable {
		return "", fmt.Errorf("experiments: Sorensen divergence broken: ptx=%v op=%v", ptxV.Observable, opV.Observable)
	}
	return sb.String(), nil
}

// CompilerCheck is one Table 2 toolchain row reproduced through optcheck.
type CompilerCheck struct {
	Issue    string
	Detected bool
}

// CompilerChecks reproduces the compiler rows of Table 2: each emulated
// miscompilation must be caught by the Sec. 4.4 machinery.
func CompilerChecks() ([]CompilerCheck, error) {
	var out []CompilerCheck

	corrVolatile := litmus.NewTest("coRR-volatile").
		Global("x", 0).
		Thread("st.volatile [x],1").
		Thread("ld.volatile r1,[x]", "ld.volatile r2,[x]").
		IntraCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
	vs, err := optcheck.Verify(corrVolatile, sass.Options{Level: sass.O3, VolatileReorderBug: true})
	if err != nil {
		return nil, err
	}
	out = append(out, CompilerCheck{"CUDA 5.5 reorders volatile loads (coRR, Sec. 4.4)", len(vs) > 0})

	vs, err = optcheck.Verify(litmus.DlbLB(false), sass.Options{Level: sass.O3, ReorderLoadCAS: true})
	if err != nil {
		return nil, err
	}
	out = append(out, CompilerCheck{"TeraScale 2 reorders load and CAS (dlb-lb, Sec. 3.2.1)", len(vs) > 0})

	vs, err = optcheck.Verify(litmus.CoRR(), sass.Options{Level: sass.O3, EliminateRedundantLoads: true})
	if err != nil {
		return nil, err
	}
	out = append(out, CompilerCheck{"AMD merges loads from the same location (coRR, Sec. 4.4)", len(vs) > 0})

	// GCN 1.0 removes fences between loads: detected by fence counting
	// (the access sequence itself is unchanged).
	spec, err := optcheck.AddSpec(litmus.MP(litmus.FenceGL))
	if err != nil {
		return nil, err
	}
	buggy, err := sass.Compile(spec, 1, sass.Options{Level: sass.O3, RemoveFencesBetweenLoads: true})
	if err != nil {
		return nil, err
	}
	fences := 0
	for _, i := range buggy {
		if i.Op == sass.OpMEMBAR {
			fences++
		}
	}
	out = append(out, CompilerCheck{"GCN 1.0 removes fences between loads (mp, Sec. 3.1.2)", fences == 0})
	return out, nil
}

// AppStudies runs the Sec. 3.2 applications on a weak and a strong chip:
// the broken variants must fail on the weak chip and the repaired variants
// must succeed everywhere. The per-app runs execute in parallel on the
// campaign pool; the report renders in app order regardless.
func AppStudies(o Opts) (string, []string, error) {
	var sb strings.Builder
	var errs []string
	weak, strong := chip.GTXTitan, chip.GTX280
	runs := o.Runs / 4
	if runs < 2000 {
		runs = 2000
	}
	all := apps.All()
	type appResult struct {
		weak, strong *apps.Report
	}
	results := make([]appResult, len(all))
	if err := campaign.ForEach(len(all), 0, func(i int) error {
		a := all[i]
		wRep, err := a.Run(weak, chip.Default(), runs, o.Seed)
		if err != nil {
			return err
		}
		sRep, err := a.Run(strong, chip.Default(), runs/4, o.Seed+1)
		if err != nil {
			return err
		}
		results[i] = appResult{weak: wRep, strong: sRep}
		return nil
	}); err != nil {
		return "", nil, err
	}
	for i, a := range all {
		repaired := strings.Contains(a.Name, "+fences") || strings.Contains(a.Name, "+fixed")
		wRep, sRep := results[i].weak, results[i].strong
		fmt.Fprintf(&sb, "  %-28s %-32s %s\n", a.Name, wRep.String()[len(a.Name)+1:], sRep.String()[len(a.Name)+1:])
		if repaired && wRep.Violations > 0 {
			errs = append(errs, fmt.Sprintf("%s must be correct on %s", a.Name, weak.ShortName))
		}
		if sRep.Violations > 0 {
			errs = append(errs, fmt.Sprintf("%s must be correct on %s", a.Name, strong.ShortName))
		}
	}
	return sb.String(), errs, nil
}

// ablate clones a profile and applies a modification (the DESIGN.md
// ablations).
func ablate(p *chip.Profile, name string, f func(*chip.Profile)) *chip.Profile {
	cp := *p
	cp.ShortName = p.ShortName + "-" + name
	f(&cp)
	return &cp
}

// Ablations runs the design-decision ablations D1-D4 of DESIGN.md on the
// Titan profile and reports the observation deltas. The eight cells (a
// baseline and an ablated run per decision) execute in parallel on the
// campaign pool; rendering and checks happen in D1-D4 order afterwards.
func Ablations(o Opts) (string, []string, error) {
	base := chip.GTXTitan

	// D1: force in-order synchronous stores — sb disappears.
	d1 := ablate(base, "no-sb", func(p *chip.Profile) { p.PStoreDelay = 0; p.PWWCommit = 0 })
	// D2: coherent L1 — mp-L1 under membar.cta disappears (stale lines
	// were the only mechanism surviving the fence).
	d2 := ablate(base, "coherent-l1", func(p *chip.Profile) { p.PStaleL1 = 0; p.PCoRRMixed = 0 })
	// D3: no same-location read reordering — coRR disappears (SC per
	// location restored in full).
	d3 := ablate(base, "no-corr", func(p *chip.Profile) { p.PCoRR = 0 })
	// D4: flat incantation response — weak behaviour appears even without
	// memory stress, flattening Table 6's zero structure.
	d4 := ablate(base, "flat-incant", func(p *chip.Profile) {
		p.Response = map[chip.Class]chip.Coef{
			chip.Intra: {Base: 1, Max: 1},
			chip.Inter: {Base: 1, Max: 1},
			chip.Stale: {Base: 1, Max: 1},
		}
	})

	checks := []struct {
		tag      string
		test     *litmus.Test
		chip     *chip.Profile
		wantZero bool
		salt     int64
	}{
		{"D1 baseline (store buffering on)", litmus.SBGlobal(), base, false, 900},
		{"D1 ablated (synchronous stores)", litmus.SBGlobal(), d1, true, 901},
		{"D2 baseline (non-coherent L1)", litmus.MPL1(litmus.FenceCTA), base, false, 902},
		{"D2 ablated (no stale lines)", litmus.MPL1(litmus.FenceCTA), d2, true, 903},
		{"D3 baseline (load-load hazard)", litmus.CoRR(), base, false, 904},
		{"D3 ablated (SC per location)", litmus.CoRR(), d3, true, 905},
	}
	quiet := chip.Incant{} // no incantations at all
	vals := make([]int, len(checks))
	var outBase, outFlat *harness.Outcome
	if err := campaign.ForEach(len(checks)+2, 0, func(i int) error {
		var err error
		switch {
		case i < len(checks):
			vals[i], err = cell(checks[i].test, checks[i].chip, o, checks[i].salt)
		case i == len(checks):
			outBase, err = harness.Run(litmus.SBGlobal(), harness.Config{Chip: base, Incant: quiet, Runs: o.Runs, Seed: o.Seed + 906, Parallelism: 1})
		default:
			outFlat, err = harness.Run(litmus.SBGlobal(), harness.Config{Chip: d4, Incant: quiet, Runs: o.Runs, Seed: o.Seed + 907, Parallelism: 1})
		}
		return err
	}); err != nil {
		return "", nil, err
	}

	var sb strings.Builder
	var errs []string
	for i, c := range checks {
		fmt.Fprintf(&sb, "  %-44s %s: %d/100k\n", c.tag, c.test.Name, vals[i])
		if c.wantZero && vals[i] != 0 {
			errs = append(errs, fmt.Sprintf("%s: expected 0, got %d", c.tag, vals[i]))
		}
		if !c.wantZero && vals[i] == 0 {
			errs = append(errs, fmt.Sprintf("%s: expected >0, got 0", c.tag))
		}
	}
	fmt.Fprintf(&sb, "  %-44s sb without incantations: %d/100k\n", "D4 baseline (coupled incantations)", outBase.Per100k())
	fmt.Fprintf(&sb, "  %-44s sb without incantations: %d/100k\n", "D4 ablated (flat response)", outFlat.Per100k())
	if outBase.Observed() {
		errs = append(errs, "D4: baseline must show nothing without incantations")
	}
	if !outFlat.Observed() {
		errs = append(errs, "D4: flat response must show sb without incantations")
	}
	return sb.String(), errs, nil
}
