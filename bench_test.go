package gpulitmus

// The benchmark harness regenerates every empirical table and figure of the
// paper (deliverable (d) of DESIGN.md): one benchmark per experiment, each
// printing the measured-vs-paper table once and reporting headline rates as
// metrics. Budgets are reduced for bench runs; use cmd/gpuexplore
// -runs 100000 for paper-scale regeneration.

import (
	"runtime"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/experiments"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/sass"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

func benchOpts() experiments.Opts { return experiments.Opts{Runs: 3000, Seed: 20150314} }

// tableBench runs one figure generator per iteration, logs the final table
// and reports the first row's maximum cell as a rate metric.
func tableBench(b *testing.B, gen func(experiments.Opts) (*experiments.Table, error)) {
	b.Helper()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = gen(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tab.String())
	if errs := tab.ShapeErrors(); len(errs) > 0 {
		b.Errorf("shape deviations: %v", errs)
	}
	maxCell := 0
	for _, v := range tab.Meas[0] {
		if v > maxCell {
			maxCell = v
		}
	}
	b.ReportMetric(float64(maxCell), "obs/100k")
}

// BenchmarkFig1CoRR regenerates Fig. 1 (read-read coherence violations).
func BenchmarkFig1CoRR(b *testing.B) { tableBench(b, experiments.Fig1) }

// BenchmarkFig3MPL1 regenerates Fig. 3 (mp with L1 operators per fence).
func BenchmarkFig3MPL1(b *testing.B) { tableBench(b, experiments.Fig3) }

// BenchmarkFig4CoRRL2L1 regenerates Fig. 4 (coRR mixing cache operators).
func BenchmarkFig4CoRRL2L1(b *testing.B) { tableBench(b, experiments.Fig4) }

// BenchmarkFig5MPVolatile regenerates Fig. 5 (mp with volatiles).
func BenchmarkFig5MPVolatile(b *testing.B) { tableBench(b, experiments.Fig5) }

// BenchmarkFig7DlbMP regenerates Fig. 7 (deque message passing).
func BenchmarkFig7DlbMP(b *testing.B) {
	tableBench(b, func(o experiments.Opts) (*experiments.Table, error) {
		o.Runs = 30000 // the paper's rates are a few per 100k
		return experiments.Fig7(o)
	})
}

// BenchmarkFig8DlbLB regenerates Fig. 8 (deque load buffering, HD6570 n/a).
func BenchmarkFig8DlbLB(b *testing.B) { tableBench(b, experiments.Fig8) }

// BenchmarkFig9CasSL regenerates Fig. 9 (CAS spin-lock stale reads).
func BenchmarkFig9CasSL(b *testing.B) {
	tableBench(b, func(o experiments.Opts) (*experiments.Table, error) {
		o.Runs = 20000
		return experiments.Fig9(o)
	})
}

// BenchmarkFig11SlFuture regenerates Fig. 11 (spin-lock future reads).
func BenchmarkFig11SlFuture(b *testing.B) {
	tableBench(b, func(o experiments.Opts) (*experiments.Table, error) {
		o.Runs = 20000
		return experiments.Fig11(o)
	})
}

// BenchmarkRepairedFigures verifies the (+)-fenced variants stay silent.
func BenchmarkRepairedFigures(b *testing.B) { tableBench(b, experiments.RepairedFigures) }

// BenchmarkTable6Incantations regenerates the Table 6 grids for GTX Titan
// and Radeon HD 7970 and checks the paper's key incantation claims.
func BenchmarkTable6Incantations(b *testing.B) {
	var titan *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		titan, err = experiments.Table6(chip.GTXTitan, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		hd, err := experiments.Table6(chip.HD7970, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + titan.String())
			b.Log("\n" + hd.String())
		}
	}
	if errs := experiments.Table6KeyClaims(titan); len(errs) > 0 {
		b.Errorf("Table 6 claims violated: %v", errs)
	}
}

// BenchmarkModelValidation is the Sec. 5.4 experiment: a generated corpus
// run on the weakest chips, every observation checked against the model.
func BenchmarkModelValidation(b *testing.B) {
	var v *experiments.Validation
	for i := 0; i < b.N; i++ {
		var err error
		v, err = experiments.ModelValidationMemo(campaign.NewMemo(), 60, 300, 20150314, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log(v)
	if !v.Sound() {
		b.Errorf("model unsound: %v", v.Unsound)
	}
	sd, err := experiments.SorensenDivergenceMemo(campaign.NewMemo())
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sd)
	b.ReportMetric(float64(v.Tests), "tests")
}

// benchValidation runs the Sec. 5.4 experiment with an explicit campaign
// worker-pool bound, so the Serial and Parallel variants below expose the
// engine's speedup directly: compare their ns/op on a multicore machine
// (results are identical by the engine's determinism guarantee).
func benchValidation(b *testing.B, parallelism int) {
	b.Helper()
	var v *experiments.Validation
	for i := 0; i < b.N; i++ {
		var err error
		v, err = experiments.ModelValidationMemo(campaign.NewMemo(), 60, 300, 20150314, parallelism)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !v.Sound() {
		b.Errorf("model unsound: %v", v.Unsound)
	}
	b.ReportMetric(float64(parallelism), "workers")
}

// benchModelAnalysis isolates the model phase of the Sec. 5.4 validation:
// the generated corpus's candidate executions stream from the enumerator
// into verdict-only model checks (Memo.Analyse, inner-serial per test)
// fanned across tests on the campaign pool, with a fresh memo per
// iteration so nothing carries over between ops. The Serial/Parallel pair
// exposes the verdict pipeline's scaling the way the ModelValidation pair
// exposes the harness sweep's; the memoized infos are identical for every
// parallelism.
func benchModelAnalysis(b *testing.B, parallelism int) {
	b.Helper()
	tests := litmustest.Cycles()[:60]
	m := core.PTX()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo := campaign.NewMemo()
		if err := campaign.ForEach(len(tests), parallelism, func(j int) error {
			_, err := memo.Analyse(m, tests[j])
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tests)), "tests")
}

// BenchmarkModelAnalysisSerial pins the one-worker streaming baseline.
func BenchmarkModelAnalysisSerial(b *testing.B) { benchModelAnalysis(b, 1) }

// BenchmarkModelAnalysisParallel runs the same analysis on a full
// GOMAXPROCS pool.
func BenchmarkModelAnalysisParallel(b *testing.B) {
	benchModelAnalysis(b, runtime.GOMAXPROCS(0))
}

// BenchmarkModelValidationSerial pins the one-worker baseline.
func BenchmarkModelValidationSerial(b *testing.B) { benchValidation(b, 1) }

// BenchmarkModelValidationParallel runs the same campaign on a full
// GOMAXPROCS pool; ns/op versus the Serial variant is the engine's
// speedup (near-linear on multicore: the jobs are independent CPU-bound
// simulator sweeps).
func BenchmarkModelValidationParallel(b *testing.B) {
	benchValidation(b, runtime.GOMAXPROCS(0))
}

// BenchmarkOptcheck reproduces the Sec. 4.4 compiler checks (Table 2's
// toolchain rows): every emulated miscompilation must be detected.
func BenchmarkOptcheck(b *testing.B) {
	var checks []experiments.CompilerCheck
	for i := 0; i < b.N; i++ {
		var err error
		checks, err = experiments.CompilerChecks()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range checks {
		if !c.Detected {
			b.Errorf("missed: %s", c.Issue)
		}
		b.Logf("%-60s detected=%v", c.Issue, c.Detected)
	}
}

// BenchmarkDependencyPreservation measures the Fig. 13 schemes through the
// optimiser: the xor scheme is deleted at O3, the and scheme survives.
func BenchmarkDependencyPreservation(b *testing.B) {
	andDep := litmus.NewTest("dep-and").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[r0]", "and.b32 r2,r1,0x80000000", "cvt.u64.u32 r3,r2", "add r4,r4,r3", "ld.cg r5,[r4]").
		AddrReg(1, "r0", "x").AddrReg(1, "r4", "y").
		InterCTA().Exists("1:r1=1 /\\ 1:r5=0").MustBuild()
	xorDep := litmus.NewTest("dep-xor").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[r0]", "xor.b32 r2,r1,r1", "cvt.u64.u32 r3,r2", "add r4,r4,r3", "ld.cg r5,[r4]").
		AddrReg(1, "r0", "x").AddrReg(1, "r4", "y").
		InterCTA().Exists("1:r1=1 /\\ 1:r5=0").MustBuild()
	survived, deleted := false, true
	for i := 0; i < b.N; i++ {
		ap, err := sass.Compile(andDep, 1, sass.Options{Level: sass.O3})
		if err != nil {
			b.Fatal(err)
		}
		xp, err := sass.Compile(xorDep, 1, sass.Options{Level: sass.O3})
		if err != nil {
			b.Fatal(err)
		}
		survived, deleted = false, true
		for _, in := range ap {
			if in.Op == sass.OpLOPAND {
				survived = true
			}
		}
		for _, in := range xp {
			if in.Op == sass.OpLOPXOR {
				deleted = false
			}
		}
	}
	if !survived || !deleted {
		b.Errorf("Fig. 13 behaviour broken: and-survives=%v xor-deleted=%v", survived, deleted)
	}
	b.Logf("and-scheme survives O3: %v; xor-scheme deleted at O3: %v", survived, deleted)
}

// BenchmarkAppStudies runs the Sec. 3.2 applications end to end.
func BenchmarkAppStudies(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var errs []string
		var err error
		out, errs, err = experiments.AppStudies(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(errs) > 0 {
			b.Errorf("app expectations violated: %v", errs)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkAblationStoreBuffer etc. run the DESIGN.md design-decision
// ablations D1-D4.
func BenchmarkAblations(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var errs []string
		var err error
		out, errs, err = experiments.Ablations(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(errs) > 0 {
			b.Errorf("ablation expectations violated: %v", errs)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkSimulatorIteration measures raw simulator throughput on one mp
// iteration — the cost driver of every experiment above.
func BenchmarkSimulatorIteration(b *testing.B) {
	test := litmus.MP(litmus.NoFence)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(test, chip.GTXTitan, chip.Default(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessRun measures the harness loop on mp: one op is one
// iteration of cells of up to 2000 runs on one worker, so the test's compilation and
// the per-distinct-state fingerprinting are amortised as in a real cell.
func BenchmarkHarnessRun(b *testing.B) {
	test := litmus.MP(litmus.NoFence)
	const runs = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i += runs {
		cfg := harness.Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: min(runs, b.N-i), Seed: int64(i), Parallelism: 1}
		if _, err := harness.Run(test, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelJudgement measures the herd-style pipeline (enumeration +
// model evaluation) on the paper's tests.
func BenchmarkModelJudgement(b *testing.B) {
	tests := litmus.PaperTests()
	for i := 0; i < b.N; i++ {
		test := tests[i%len(tests)]
		if _, err := Judge(test); err != nil {
			b.Fatal(err)
		}
	}
}
