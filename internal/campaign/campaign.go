// Package campaign is the concurrent sweep engine behind every cross-test
// experiment: it expands a declarative matrix spec — tests × chips ×
// incantations × run budget — into jobs, executes them on a bounded
// worker pool, and aggregates the outcomes in matrix order. Per-job seeds
// are derived deterministically from the base seed, so a campaign's
// aggregated results are byte-identical regardless of worker count or
// completion order. The paper's result tables (Figs. 3-4, Table 6,
// the Sec. 5.4 validation) are all sweeps of this shape; package
// experiments builds them on this engine.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// Spec declares a sweep matrix. The job list is the cross product of
// Tests, Chips and Incants, test-major.
type Spec struct {
	// Tests are the litmus tests to sweep (required).
	Tests []*litmus.Test
	// Chips are the simulated profiles to sweep (required).
	Chips []*chip.Profile
	// Incants is the incantation axis; empty selects {chip.Default()}.
	Incants []chip.Incant
	// IncantFn, when set, transforms the incantation per job (e.g. the
	// experiments' bank-conflict tweak for intra-CTA tests). It must be a
	// pure function of its arguments.
	IncantFn func(t *litmus.Test, base chip.Incant) chip.Incant
	// Runs is the per-job iteration budget (0 selects harness.DefaultRuns).
	Runs int
	// Seed is the base seed; per-job seeds derive from it and the job's
	// matrix coordinates via a splitmix64 hash unless SeedFn is set.
	Seed int64
	// SeedFn, when set, overrides seed derivation per job. It must be a
	// pure function of the job's coordinates.
	SeedFn func(Job) int64
	// Parallelism bounds the worker pool (0 selects GOMAXPROCS).
	Parallelism int
	// Sink, when set, receives one obs.CellEvent per cell lifecycle step:
	// CellStart before the job runs (index and seed), then CellFinish
	// (elapsed, runs, matches) or CellError (elapsed, error text). Events
	// are delivered from the worker that ran the cell — concurrently
	// under parallel campaigns — so a sink must be safe for concurrent
	// use. The gpulitmusd sweep handler streams these as NDJSON trace
	// events; the CLIs print live progress lines from them.
	Sink func(obs.CellEvent)
	// RunJob, when set, replaces the default harness execution of one job.
	// It must be deterministic in the job's coordinates — same outcome as
	// harness.RunCtx for the job's test/chip/incant/runs/seed — but may
	// source that outcome elsewhere (the gpulitmusd service routes cells
	// through its content-addressed verdict cache this way, so repeated
	// and overlapping sweeps share work). It is called concurrently from
	// pool workers.
	RunJob func(ctx context.Context, j Job, runParallelism int) (*harness.Outcome, error)
}

// Job is one unit of campaign work: one test on one chip under one
// incantation for Runs iterations from Seed.
type Job struct {
	Index       int // position in the expanded job list
	TestIndex   int // position in Spec.Tests
	ChipIndex   int
	IncantIndex int
	Test        *litmus.Test
	Chip        *chip.Profile
	Incant      chip.Incant
	Runs        int
	Seed        int64
}

// Result pairs a job with its outcome (or error) as it completes.
type Result struct {
	Job     Job
	Outcome *harness.Outcome
	Err     error
}

// Aggregate is a completed campaign: every outcome, indexed by the matrix
// coordinates of the spec. Its contents are independent of worker count.
type Aggregate struct {
	Tests    []*litmus.Test
	Chips    []*chip.Profile
	Incants  []chip.Incant
	Jobs     []Job
	Outcomes []*harness.Outcome // by Job.Index
}

// Outcome returns the outcome at (testIndex, chipIndex, incantIndex).
func (a *Aggregate) Outcome(testIndex, chipIndex, incantIndex int) *harness.Outcome {
	return a.Outcomes[(testIndex*len(a.Chips)+chipIndex)*len(a.Incants)+incantIndex]
}

// jobSeed derives a per-job seed from the base seed and job index with a
// splitmix64 finalizer, decorrelating neighbouring jobs (plain seed+index
// would overlap the iteration seed ranges harness.Run derives per run).
func jobSeed(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// expand materialises the spec's job list in matrix order.
func (s *Spec) expand() ([]Job, []chip.Incant, error) {
	if len(s.Chips) == 0 {
		return nil, nil, fmt.Errorf("campaign: no chips in spec")
	}
	if len(s.Tests) == 0 {
		return nil, nil, fmt.Errorf("campaign: no tests in spec")
	}
	incants := s.Incants
	if len(incants) == 0 {
		incants = []chip.Incant{chip.Default()}
	}
	runs := s.Runs
	if runs <= 0 {
		runs = harness.DefaultRuns
	}

	jobs := make([]Job, 0, len(s.Tests)*len(s.Chips)*len(incants))
	for ti, t := range s.Tests {
		for ci, c := range s.Chips {
			for ii, inc := range incants {
				if s.IncantFn != nil {
					inc = s.IncantFn(t, inc)
				}
				j := Job{
					Index:       len(jobs),
					TestIndex:   ti,
					ChipIndex:   ci,
					IncantIndex: ii,
					Test:        t,
					Chip:        c,
					Incant:      inc,
					Runs:        runs,
				}
				if s.SeedFn != nil {
					j.Seed = s.SeedFn(j)
				} else {
					j.Seed = jobSeed(s.Seed, j.Index)
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs, incants, nil
}

// workers resolves the pool size.
func (s *Spec) workers() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runParallelism resolves the within-job harness parallelism for a
// campaign of numJobs jobs: the pool split across the jobs — 1 when jobs
// outnumber workers, workers/jobs when a small matrix would otherwise idle
// cores (a single-test sweep still saturates the machine). Results never
// depend on it.
func (s *Spec) runParallelism(numJobs int) int {
	if per := s.workers() / numJobs; per > 1 {
		return per
	}
	return 1
}

// runJob executes one job — through RunJob when the spec overrides it, the
// harness otherwise — under ctx (cancellation aborts the run between
// iterations, see harness.RunCtx).
func (s *Spec) runJob(ctx context.Context, j Job, runPar int) (*harness.Outcome, error) {
	if s.Sink != nil {
		s.Sink(obs.CellEvent{Kind: obs.CellStart, Index: j.Index, Seed: j.Seed})
		t0 := time.Now()
		out, err := s.runJobInner(ctx, j, runPar)
		ev := obs.CellEvent{Index: j.Index, Seed: j.Seed, Elapsed: time.Since(t0)}
		if err != nil {
			ev.Kind = obs.CellError
			ev.Err = err.Error()
		} else {
			ev.Kind = obs.CellFinish
			ev.Runs = out.Runs
			ev.Matches = out.Matches
		}
		s.Sink(ev)
		return out, err
	}
	return s.runJobInner(ctx, j, runPar)
}

func (s *Spec) runJobInner(ctx context.Context, j Job, runPar int) (*harness.Outcome, error) {
	var out *harness.Outcome
	var err error
	if s.RunJob != nil {
		out, err = s.RunJob(ctx, j, runPar)
	} else {
		out, err = harness.RunCtx(ctx, j.Test, harness.Config{
			Chip:        j.Chip,
			Incant:      j.Incant,
			Runs:        j.Runs,
			Seed:        j.Seed,
			Parallelism: runPar,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: %s on %s: %w", j.Test.Name, j.Chip.ShortName, err)
	}
	return out, nil
}

// Run expands the spec, executes every job on the pool, and aggregates the
// outcomes in matrix order. The first error by job index aborts the
// campaign. The aggregate is deterministic in the spec alone.
func Run(spec Spec) (*Aggregate, error) {
	jobs, incants, err := spec.expand()
	if err != nil {
		return nil, err
	}
	agg := &Aggregate{
		Tests:    spec.Tests,
		Chips:    spec.Chips,
		Incants:  incants,
		Jobs:     jobs,
		Outcomes: make([]*harness.Outcome, len(jobs)),
	}
	runPar := spec.runParallelism(len(jobs))
	err = ForEach(len(jobs), spec.workers(), func(i int) error {
		out, err := spec.runJob(context.Background(), jobs[i], runPar)
		agg.Outcomes[i] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// StreamCtx expands the spec and streams each job's Result as it completes
// (completion order, hence nondeterministic ordering; the outcomes
// themselves are still deterministic per job). The channel is closed when
// every job has been delivered. A spec error is delivered as a single
// Result with Err set. Once ctx is cancelled no new job is started, jobs
// already in flight abort between harness iterations (harness.RunCtx), and
// no further Result is delivered — the channel closes promptly without
// blocking on a reader that has gone away; cancellation only truncates the
// stream. The service layer passes request-scoped contexts so an abandoned
// sweep stops burning the worker pool.
func StreamCtx(ctx context.Context, spec Spec) <-chan Result {
	ch := make(chan Result)
	go func() {
		defer close(ch)
		jobs, _, err := spec.expand()
		if err != nil {
			select {
			case ch <- Result{Err: err}:
			case <-ctx.Done():
			}
			return
		}
		runPar := spec.runParallelism(len(jobs))
		_ = ForEach(len(jobs), spec.workers(), func(i int) error {
			if ctx.Err() != nil {
				// Abort the pool: no new jobs are taken after an error.
				return ctx.Err()
			}
			out, err := spec.runJob(ctx, jobs[i], runPar)
			if ctx.Err() != nil {
				return ctx.Err() // cancelled mid-job: drop the partial result
			}
			select {
			case ch <- Result{Job: jobs[i], Outcome: out, Err: err}:
			case <-ctx.Done():
				return ctx.Err()
			}
			return nil // keep streaming the remaining jobs after a failure
		})
	}()
	return ch
}

// ForEach executes fn(i) for every i in [0, n) on parallelism goroutines
// (GOMAXPROCS when parallelism <= 0): the campaign's worker pool, for
// harness sweeps and for index-shaped work that is not one (e.g. per-test
// model analysis feeding a Memo). fn must be safe for concurrent
// invocation on distinct indices.
//
// Workers claim indices from one counter in ascending order, so when index
// i fails every lower index has already been claimed: workers stop
// claiming, the jobs in flight finish, and the error returned is always
// the lowest failing index's, whatever the scheduling.
func ForEach(n, parallelism int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, n) // per-job slot: no locking, no ordering races
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}
