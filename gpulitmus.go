// Package gpulitmus is a pure-Go reproduction of the system behind
// "GPU Concurrency: Weak Behaviours and Programming Assumptions"
// (Alglave et al., ASPLOS 2015): a litmus-testing framework for GPU memory
// consistency, an operational simulator of the paper's eight GPUs, the
// diy-style test generator, the opcheck compiler-interference checker, and
// the paper's formal PTX memory model (SPARC RMO stratified per GPU scope)
// with a herd-style simulator.
//
// Quick start:
//
//	test := gpulitmus.MustParseTest(src)           // or gpulitmus.TestByName("coRR")
//	out, _ := gpulitmus.Run(test, gpulitmus.RunConfig{Chip: gpulitmus.ChipTitan})
//	fmt.Println(out)                               // histogram + Observation line
//	v, _ := gpulitmus.Judge(test)                  // is the outcome allowed by the model?
//	fmt.Println(v)
//
// Cross-test sweeps — the shape of every result table in the paper — go
// through the concurrent campaign engine rather than a serial loop:
//
//	res, _ := gpulitmus.Sweep(gpulitmus.Campaign{
//		Tests: gpulitmus.PaperTests(),
//		Chips: gpulitmus.Chips(),
//		Runs:  10000,
//		Seed:  1,
//	})
//	fmt.Println(res.Outcome(0, 0, 0))              // first test on first chip
//
// A Campaign expands its matrix (tests × chips × incantations) into jobs,
// executes them on a bounded worker pool, and aggregates outcomes in
// matrix order. Per-job seeds derive deterministically from the base seed,
// so results are byte-identical for every worker count. SweepStream
// delivers outcomes as they complete for progress-oriented consumers.
//
// The hardware the paper measured is simulated; see DESIGN.md for the
// substitution argument and EXPERIMENTS.md for paper-vs-measured tables.
package gpulitmus

import (
	"context"
	"net"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/apps"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/optcheck"
	"github.com/weakgpu/gpulitmus/internal/sass"
	"github.com/weakgpu/gpulitmus/internal/service"
)

// Core types re-exported from the implementation packages.
type (
	// Test is a GPU litmus test (Sec. 4.1 of the paper).
	Test = litmus.Test
	// TestBuilder builds tests programmatically.
	TestBuilder = litmus.Builder
	// Fence selects the membar inserted at a test's fence slots.
	Fence = litmus.Fence
	// Chip is a simulated GPU profile (Table 1).
	Chip = chip.Profile
	// Incant selects the stress incantations of Sec. 4.3.
	Incant = chip.Incant
	// Outcome is a harness run's histogram and observation count.
	Outcome = harness.Outcome
	// Model is a memory-consistency model (the paper's PTX model, SC,
	// RMO, or the refuted operational model).
	Model = core.Model
	// Verdict is a model's decision on a test's final condition.
	Verdict = core.Verdict
	// App is an end-to-end application study of Sec. 3.2.
	App = apps.App
	// CompileOptions configure the SASS compiler substrate (Sec. 4.4).
	CompileOptions = sass.Options
	// CompileLevel is the assembler optimisation level (-O0..-O3).
	CompileLevel = sass.Level
	// Violation is an optcheck conformance failure.
	Violation = optcheck.Violation
	// GeneratedTest pairs a diy cycle with its synthesised test.
	GeneratedTest = diy.GeneratedTest
	// Campaign declares a sweep matrix — tests × chips × incantations ×
	// run budget — executed concurrently by Sweep.
	Campaign = campaign.Spec
	// CampaignJob is one expanded unit of campaign work.
	CampaignJob = campaign.Job
	// CampaignResult pairs a job with its outcome as it completes.
	CampaignResult = campaign.Result
	// SweepResult is a completed campaign's outcome matrix.
	SweepResult = campaign.Aggregate
	// Memo is a content-addressed cache of model analyses and verdicts:
	// identical (model, test) content pairs — whatever their names or
	// construction paths — are computed once. Safe for concurrent use. A
	// Test handed to a Memo must not be mutated afterwards: the memo
	// fingerprints each *Test once and remembers it.
	Memo = campaign.Memo
	// ServiceConfig parameterises the gpulitmusd HTTP service (in-flight
	// budget, per-request parallelism cap, verdict-cache size, persistent
	// store directory, and the replica fleet for consistent-hash
	// sharding).
	ServiceConfig = service.Config
	// ServiceClient is the Go client of a gpulitmusd service.
	ServiceClient = service.Client
	// ServiceStats is the /v1/stats payload: cache, store, peer,
	// admission and request counters.
	ServiceStats = service.StatsResponse
	// ServiceStoreStats / ServicePeerStats are the persistent-store and
	// fleet sections of ServiceStats (present when configured).
	ServiceStoreStats = service.StoreStats
	ServicePeerStats  = service.PeerStats
	// ServiceTestRef names a test in a service request: a paper test by
	// name or an inline Fig. 12 source.
	ServiceTestRef = service.TestRef
	// JudgeRequest/JudgeResult are the /v1/judge wire types.
	JudgeRequest = service.JudgeRequest
	JudgeResult  = service.JudgeResult
	// RunRequest/RunResponse are the /v1/run wire types.
	RunRequest  = service.RunRequest
	RunResponse = service.RunResponse
	// SweepRequest/SweepRow are the /v1/sweep wire types (NDJSON rows).
	SweepRequest = service.SweepRequest
	SweepRow     = service.SweepRow
	// RepairRequest/RepairResponse are the /v1/repair wire types.
	RepairRequest  = service.RepairRequest
	RepairResponse = service.RepairResponse
	// AnalysisReport is the static analyzer's full output for one test:
	// sorted diagnostics plus the prefilter verdict under each builtin
	// model (the gpulint payload).
	AnalysisReport = analysis.Report
	// AnalysisDiagnostic is one structured static finding (race, critical
	// cycle, scope mismatch, unused register, dead write, redundant fence,
	// unsatisfiable condition).
	AnalysisDiagnostic = analysis.Diagnostic
	// RepairResult is the fence-repair synthesis engine's answer: the
	// minimal judge-verified set of fence edits that makes the behaviour
	// Never, plus the full oracle-checked candidate ledger.
	RepairResult = analysis.RepairResult
	// RepairAction is one fence edit of a repair: an insertion before an
	// instruction or an in-place widening of an existing membar.
	RepairAction = analysis.RepairAction
	// RepairAttempt is one ledger entry: a candidate edit set and whether
	// the judge verified it.
	RepairAttempt = analysis.RepairAttempt
	// StaticVerdict is the three-valued prefilter answer. Unknown is
	// always safe: it only ever means "enumerate".
	StaticVerdict = analysis.StaticVerdict
	// StaticResult pairs a StaticVerdict with its justification.
	StaticResult = analysis.Result
)

// Fence levels (the rows of Figs. 3 and 4).
const (
	NoFence  = litmus.NoFence
	FenceCTA = litmus.FenceCTA
	FenceGL  = litmus.FenceGL
	FenceSys = litmus.FenceSys
)

// The three static prefilter verdicts.
const (
	StaticUnknown   = analysis.Unknown
	StaticForbidden = analysis.Forbidden
	StaticAllowed   = analysis.Allowed
)

// Assembler optimisation levels.
const (
	O0 = sass.O0
	O1 = sass.O1
	O2 = sass.O2
	O3 = sass.O3
)

// The chips of Table 1.
var (
	ChipGTX280 = chip.GTX280
	ChipGTX5   = chip.GTX540m
	ChipTesC   = chip.TeslaC2075
	ChipGTX6   = chip.GTX660
	ChipTitan  = chip.GTXTitan
	ChipGTX7   = chip.GTX750
	ChipHD6570 = chip.HD6570
	ChipHD7970 = chip.HD7970
)

// Chips returns every simulated chip in Table 1 order.
func Chips() []*Chip { return chip.All() }

// ChipByName resolves a chip by short or full name ("Titan", "GTX 540m").
func ChipByName(name string) (*Chip, error) { return chip.ByName(name) }

// DefaultIncant is memory stress + thread synchronisation + thread
// randomisation (Table 6 column 12).
func DefaultIncant() Incant { return chip.Default() }

// AllIncants enumerates the 16 incantation combinations in Table 6 order.
func AllIncants() []Incant { return chip.AllIncants() }

// ParseIncant parses the compact incantation syntax ("ms+ts+tr", "none").
func ParseIncant(s string) (Incant, error) { return chip.ParseIncant(s) }

// ParseTest parses the Fig. 12 litmus format.
func ParseTest(src string) (*Test, error) { return litmus.Parse(src) }

// MustParseTest parses src and panics on error.
func MustParseTest(src string) *Test { return litmus.MustParse(src) }

// NewTest starts a programmatic test builder.
func NewTest(name string) *TestBuilder { return litmus.NewTest(name) }

// TestByName returns a paper test by name ("coRR", "mp-L1", "cas-sl", ...).
func TestByName(name string) (*Test, error) { return litmus.ByName(name) }

// PaperTests returns every litmus test appearing in the paper's figures.
func PaperTests() []*Test { return litmus.PaperTests() }

// RunConfig parameterises a harness run.
type RunConfig struct {
	Chip   *Chip
	Incant *Incant // nil selects DefaultIncant
	Runs   int     // 0 selects the paper's 100k
	Seed   int64
}

// Run executes the test many times on the simulated chip under stress and
// returns the final-state histogram (Sec. 4.2).
func Run(t *Test, cfg RunConfig) (*Outcome, error) {
	inc := chip.Default()
	if cfg.Incant != nil {
		inc = *cfg.Incant
	}
	return harness.Run(t, harness.Config{Chip: cfg.Chip, Incant: inc, Runs: cfg.Runs, Seed: cfg.Seed})
}

// Sweep expands the campaign's matrix into jobs, runs them on a bounded
// worker pool (default GOMAXPROCS workers), and returns the
// aggregated outcomes in matrix order. The aggregate is deterministic in
// the campaign spec alone: per-job seeds derive from Campaign.Seed, and
// worker count or completion order never changes a single byte of it.
func Sweep(c Campaign) (*SweepResult, error) { return campaign.Run(c) }

// SweepStream runs the campaign like Sweep but delivers each job's result
// as it completes (completion order). The channel closes after the last
// job; the caller must drain it. Individual outcomes are still
// deterministic per job — only delivery order varies.
func SweepStream(c Campaign) <-chan CampaignResult {
	return campaign.StreamCtx(context.Background(), c)
}

// PTXModel returns the paper's model of Nvidia GPUs (Figs. 15 and 16).
func PTXModel() *Model { return core.PTX() }

// SCModel returns sequential consistency.
func SCModel() *Model { return core.SC() }

// RMOModel returns plain SPARC RMO.
func RMOModel() *Model { return core.RMO() }

// OperationalModel returns the Sorensen et al. model the paper refutes
// (Sec. 6).
func OperationalModel() *Model { return core.SorensenOp() }

// Judge decides whether the test's final condition is allowed by the PTX
// model (herd-style simulation, Sec. 5). Candidate executions stream from
// the enumerator into verdict-only model evaluation; large enumerations fan
// out across the worker pool. The verdict (including the witness) is
// deterministic regardless of parallelism.
func Judge(t *Test) (*Verdict, error) { return JudgeUnder(core.PTX(), t) }

// JudgeUnder decides the final condition under an explicit model.
func JudgeUnder(m *Model, t *Test) (*Verdict, error) { return JudgeUnderP(m, t, 0) }

// JudgeUnderP is JudgeUnder with an explicit evaluation parallelism: 0
// auto-sizes to GOMAXPROCS (staying serial for small enumerations), 1
// forces serial, n > 1 forces n workers. Verdicts are identical for every
// choice.
func JudgeUnderP(m *Model, t *Test, parallelism int) (*Verdict, error) {
	return core.JudgeWith(context.Background(), m, t, core.Opts{Parallelism: parallelism})
}

// ModelCovers reports whether the test is within the PTX model's documented
// scope (.cg accesses to global memory; Sec. 5.5) and, if not, why.
func ModelCovers(t *Test) (bool, string) { return core.Covers(t) }

// Analyze runs the static analyzer over the test: races, critical cycles,
// scope mismatches, idiom lint, and the prefilter verdict under every
// builtin model. It prepares the test's read domains but produces no
// candidate execution and runs no simulation.
func Analyze(t *Test) *AnalysisReport { return analysis.Analyze(t) }

// StaticPrefilter statically judges the test under the model without
// enumerating. The soundness contract: StaticForbidden and StaticAllowed
// agree with the full Judge verdict (Witnesses == 0 / > 0 respectively);
// StaticUnknown means the analysis cannot decide and is always safe.
func StaticPrefilter(m *Model, t *Test) StaticResult { return m.Prefilter(t) }

// RepairTest synthesizes the minimal set of fence insertions or
// strengthenings that makes the test's exists-condition Never under the
// PTX model. Every suggested fix is judge-verified: candidates mutate the
// test through the litmus insertion API and are re-judged until the
// behaviour is forbidden, then greedily reduced so no single edit is
// removable. Deterministic for a given test and model.
func RepairTest(t *Test) (*RepairResult, error) { return core.Repair(core.PTX(), t) }

// RepairUnder is RepairTest under an explicit model.
func RepairUnder(m *Model, t *Test) (*RepairResult, error) { return core.Repair(m, t) }

// NewMemo returns an empty content-addressed verdict/analysis memo (see
// Memo); long-lived callers judging overlapping test sets share one.
func NewMemo() *Memo { return campaign.NewMemo() }

// Observability. A Trace rides a context through the pipeline and
// accumulates per-phase wall time (parse, prepare, enumerate, eval,
// merge, lookup) plus producer counters (combos, rf choices, pruned
// weight, memo hits, candidates, visited). The untraced path is free: a
// context without a trace yields a nil *Trace whose methods are no-op
// and allocation-free, so Judge and Run cost the same with tracing
// compiled in but unused.
type (
	// Trace is one request's observability collector (nil = disabled).
	Trace = obs.Trace
	// TraceSnapshot is a consistent copy of a Trace's timers and
	// counters; its PhaseTable renders the human-readable breakdown the
	// gpuherd -trace flag prints.
	TraceSnapshot = obs.Snapshot
	// CampaignCellEvent is one progress event from a campaign sink:
	// "start" when a cell's job begins, "finish"/"error" with the wall
	// time when it ends (Campaign.Sink receives them concurrently from
	// the worker pool).
	CampaignCellEvent = obs.CellEvent
)

// Campaign cell-event kinds, as CampaignCellEvent.Kind reports them.
const (
	CellStart  = obs.CellStart
	CellFinish = obs.CellFinish
	CellError  = obs.CellError
)

// NewTrace starts an enabled trace. An empty id draws a fresh random one
// (the same generator behind the service's X-Trace-Id).
func NewTrace(id string) *Trace {
	if id == "" {
		id = obs.NewID()
	}
	return obs.New(id)
}

// WithTrace attaches tr to ctx; pipeline stages invoked under the
// returned context (JudgeCtx paths, Memo.VerdictCtx, ParseTestCtx)
// record their phases into it.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return obs.NewContext(ctx, tr)
}

// TraceFromContext returns ctx's trace, or nil (a valid no-op receiver)
// when the context is untraced.
func TraceFromContext(ctx context.Context) *Trace { return obs.FromContext(ctx) }

// ParseTestCtx is ParseTest with the ctx's trace accruing the parse
// phase.
func ParseTestCtx(ctx context.Context, src string) (*Test, error) {
	return litmus.ParseCtx(ctx, src)
}

// GenerateTests enumerates litmus tests from the default diy edge pool
// (Sec. 4.1), up to maxEdges edges per cycle and maxTests tests.
func GenerateTests(maxEdges, maxTests int) []*GeneratedTest {
	return diy.Generate(diy.DefaultPool(), maxEdges, maxTests)
}

// TestFromEdges synthesises one litmus test from a relaxed-edge cycle such
// as "Rfe PodRR Fre PodWW" (append ":cta" to external edges for same-CTA
// placement).
func TestFromEdges(name, edges string) (*Test, error) {
	es, err := diy.ParseEdges(edges)
	if err != nil {
		return nil, err
	}
	return diy.Cycle(name, es)
}

// CheckCompile runs the Sec. 4.4 opcheck pipeline: embed the xor
// specification, compile to SASS under opts, and report conformance
// violations (empty means the test is safe to run).
func CheckCompile(t *Test, opts CompileOptions) ([]Violation, error) {
	return optcheck.Verify(t, opts)
}

// Apps returns the application studies of Sec. 3.2 (broken and repaired
// spin locks, work-stealing deque, transaction isolation).
func Apps() []*App { return apps.All() }

// Serve runs the gpulitmusd HTTP service on addr until ctx is cancelled:
// the judge/run/sweep pipeline behind a content-addressed, LRU-bounded
// verdict/outcome cache with singleflight deduplication and a bounded
// in-flight admission budget (429 + Retry-After beyond it). With
// cfg.StoreDir set the cache is backed by an append-only segment store
// (verdicts survive restarts); with cfg.Peers/cfg.Self set, fingerprints
// shard across the replica fleet by consistent hashing — fetch from the
// owning peer before computing, replicate computed records to the owner,
// degrade to local compute when a peer is down. GET /metrics exposes
// Prometheus-text counters for all of it. ready, when non-nil, receives
// the bound address before serving — pass addr "host:0" to let the
// kernel pick a free port. Verdict and outcome payloads are
// byte-identical to the gpuherd/gpulitmus CLIs for the same request.
func Serve(ctx context.Context, addr string, cfg ServiceConfig, ready func(net.Addr)) error {
	return service.Serve(ctx, addr, cfg, ready)
}

// NewClient returns a Go client for a gpulitmusd service at baseURL
// (e.g. "http://127.0.0.1:7980").
func NewClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// Fingerprint returns the content-addressed identity of a test — the hex
// SHA-256 of its canonicalised threads, declarations, memory map and final
// condition, independent of its name. Identical-content tests share cache
// entries in the service and the campaign memo.
func Fingerprint(t *Test) string { return t.Fingerprint() }

// GenerateKernel emits the CUDA-style kernel source the paper's tool
// produces for a test (Sec. 4.2): testing threads selected by global id,
// inline PTX, incantation loops for the rest. The deterministic (non-
// randomised) placement for the chip's geometry is used.
func GenerateKernel(t *Test, c *Chip, inc Incant) (string, error) {
	g := harness.DefaultGeometry(c)
	p, err := harness.Place(t, g, inc, nil)
	if err != nil {
		return "", err
	}
	return harness.GenerateKernel(t, g, inc, p)
}
