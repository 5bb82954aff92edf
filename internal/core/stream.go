package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/pool"
)

// This file is the streaming verdict pipeline: candidate executions flow
// from the axiom producer straight into model evaluation without ever
// materialising the full candidate set. Path derivation happens once per
// judgement, or once per test when the caller shares one prepared
// enumeration across models (ForEachVerdictPreparedCtx); axiom.PrepareCtx
// memoizes it across the value-domain fixpoint iterations. Production then
// proceeds unit by unit.
//
// There is one driver with one contract: visit is called serially, in
// enumeration order, with the true enumeration index, for every
// parallelism. The units of work are the path combinations, or — for a
// single-combination test whose rf cross product splits — that
// combination's rf chunks. The calling goroutine streams a head of the
// units itself with one evaluation scratch; the remaining units are
// produced AND evaluated on the shared worker pool (an axiom.Assembler and
// a scratch per worker) while pool.OrderedStream merges their verdicts
// back in exact enumeration order. The running weighted count, the visit
// index and the MaxExecs bound carry over from the head to the merge, so
// the bound fails at exactly the execution the serial stream would have
// failed at.
//
// Everything a caller aggregates (Judge's counts and witness, the campaign
// memo's fingerprint set) is therefore deterministic regardless of
// parallelism, and counts are weighted by Execution.Weight so symmetry
// pruning never changes what a caller observes (see axiom.Opts.Exhaustive).

// parallelMinExecs is the auto-mode fan-out threshold: the calling
// goroutine checks executions serially until this many have been visited
// (small enumerations — every paper test — never reach it, and worker
// startup would cost more than it saves); the units left after that fan
// out. A single combination splits into rf chunks in auto mode only when
// its estimated completion count reaches the threshold.
const parallelMinExecs = 128

// errVerdictStopped aborts a producer after it delivered an eval error.
var errVerdictStopped = errors.New("core: verdict stream stopped")

// execVerdict is one evaluated candidate on its way back to the ordered
// merge.
type execVerdict struct {
	x       *axiom.Execution
	allowed bool
	err     error
}

// ForEachVerdictCtx enumerates the candidate executions of t (under
// axiom.DefaultOpts) and calls visit(i, x, allowed) for every produced
// candidate, where i is the execution's position in enumeration order and
// allowed is the model's verdict-only evaluation. It returns the weighted
// number of candidates: symmetry pruning may produce one representative
// for a class of equivalent executions (x.Weight() > 1), and the count —
// like any weighted aggregate a caller builds — equals the exhaustive
// enumeration's.
//
// visit is called serially, in enumeration order, whatever the
// parallelism, so callbacks need no locks. parallelism bounds the
// evaluating workers: 1 checks every execution on the calling goroutine;
// n > 1 produces and evaluates every unit of work (path combination or rf
// chunk) on n workers; 0 sizes the pool to GOMAXPROCS but checks
// serially until parallelMinExecs executions have been visited, so small
// enumerations (the common litmus case) never start a worker. Any visit
// error stops the run and is returned.
//
// Cancelling ctx stops the producer promptly (checked per unit and per
// execution) and returns ctx.Err(). Long-lived callers (the gpulitmusd
// service) pass the request-scoped context so an abandoned request stops
// consuming the worker pool mid-stream.
func (m *Model) ForEachVerdictCtx(ctx context.Context, t *litmus.Test, parallelism int, visit func(i int, x *axiom.Execution, allowed bool) error) (int, error) {
	return m.forEachVerdict(ctx, t, nil, parallelism, visit)
}

// ForEachVerdictPreparedCtx is ForEachVerdictCtx over an enumeration the
// caller prepared with axiom.PrepareCtx, from t or from any test with t's
// content: executions and errors name t, and production is traced into
// ctx (see axiom.Enumeration.Bind). Its callers are the campaign memo,
// which prepares a test once for every model, and the pruned-vs-exhaustive
// differential oracle, which prepares with axiom.Opts{Exhaustive: true}.
// i is the execution's position in the *produced* stream (representative
// ordinals under pruning); the returned count is the weighted candidate
// total, identical between pruned and exhaustive runs.
func (m *Model) ForEachVerdictPreparedCtx(ctx context.Context, t *litmus.Test, en *axiom.Enumeration, parallelism int, visit func(i int, x *axiom.Execution, allowed bool) error) (int, error) {
	return m.forEachVerdict(ctx, t, en, parallelism, visit)
}

// forEachVerdict is the one driver behind both entry points; a nil en
// prepares t with axiom.DefaultOpts under the run's trace span.
func (m *Model) forEachVerdict(ctx context.Context, t *litmus.Test, en *axiom.Enumeration, parallelism int, visit func(i int, x *axiom.Execution, allowed bool) error) (int, error) {
	if tr := obs.FromContext(ctx); tr.Enabled() {
		// Traced run: open the pipeline span (PrepareCtx nests "prepare"
		// under it) and time the visit/merge callback into PhaseMerge.
		sp, sctx := tr.StartSpan(ctx, "verdict")
		ctx = sctx
		defer sp.Finish()
		inner := visit
		visit = func(i int, x *axiom.Execution, allowed bool) error {
			t0 := time.Now()
			err := inner(i, x, allowed)
			tr.AddPhase(obs.PhaseMerge, time.Since(t0))
			return err
		}
	}
	if en == nil {
		var err error
		if en, err = axiom.PrepareCtx(ctx, t, axiom.DefaultOpts()); err != nil {
			return 0, err
		}
	}
	en = en.Bind(ctx, t)
	workers := parallelism
	auto := workers <= 0
	if auto {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &verdictRun{m: m, ctx: ctx, enum: en, visit: visit, maxExecs: en.Opts().MaxExecs}
	n := r.units(workers, auto)
	// The calling goroutine streams the head of the units: all of them
	// with one worker or fewer than two units, in auto mode until
	// parallelMinExecs executions have been visited, under explicit
	// parallelism none. The rest fan out.
	serial := func() bool { return workers == 1 || n < 2 || (auto && r.visits < parallelMinExecs) }
	u := 0
	if serial() {
		sc := m.NewScratch()
		sc.SetTracer(obs.FromContext(ctx))
		var a axiom.Assembler
		emit := func(x *axiom.Execution) error {
			allowed, err := m.verdict(x, sc)
			return r.deliver(x, allowed, err)
		}
		for ; u < n && serial(); u++ {
			if err := ctx.Err(); err != nil {
				return r.count, err
			}
			if err := r.stream(&a, u, emit); err != nil {
				return r.count, err
			}
		}
	}
	if u < n {
		return r.count, r.fanOut(u, n, workers)
	}
	return r.count, nil
}

// verdictRun is the ordered state of one forEachVerdict call,
// carried from the serial head into the fan-out merge.
type verdictRun struct {
	m             *Model
	ctx           context.Context
	enum          *axiom.Enumeration
	visit         func(i int, x *axiom.Execution, allowed bool) error
	chunked       bool // the units are combination 0's rf chunks
	maxExecs      int
	count, visits int // weighted candidates and visits delivered so far
}

// units picks the run's units of work and returns their number: the path
// combinations, or — when there is one combination, more than one worker,
// and the combination's rf cross product splits (in auto mode only when
// its estimated completion count reaches parallelMinExecs) — that
// combination's rf chunks. Either way the units back to back reproduce
// the serial enumeration exactly.
func (r *verdictRun) units(workers int, auto bool) int {
	if r.enum.Combos() == 1 && workers > 1 {
		var probe axiom.Assembler
		if chunks, estimate := r.enum.ComboChunks(0, &probe); chunks >= 2 && (!auto || estimate >= parallelMinExecs) {
			r.chunked = true
			return chunks
		}
	}
	return r.enum.Combos()
}

// stream produces unit u's executions in enumeration order.
func (r *verdictRun) stream(a *axiom.Assembler, u int, yield func(*axiom.Execution) error) error {
	if r.chunked {
		return r.enum.StreamComboChunk(0, u, a, yield)
	}
	return r.enum.StreamCombo(u, a, yield)
}

// verdict evaluates one candidate on the verdict-only path, attaching the
// model name to evaluation failures (multi-model sweeps need to know which
// model's program failed).
func (m *Model) verdict(x *axiom.Execution, sc *cat.Scratch) (bool, error) {
	allowed, err := m.prog.RunExecVerdict(x, sc)
	if err != nil {
		return false, fmt.Errorf("core: model %s: %w", m.Name, err)
	}
	return allowed, nil
}

// deliver hands the next execution in enumeration order to visit. The
// context and the MaxExecs bound (by Execution.Weight, with the serial
// stream's error) are checked before evalErr, the model's failure on x:
// the serial stream fails with BoundError before ever evaluating the
// execution past the bound, and a speculatively evaluated one must not
// change that. visit errors pass through verbatim.
func (r *verdictRun) deliver(x *axiom.Execution, allowed bool, evalErr error) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	w := x.Weight()
	if r.count+w > r.maxExecs {
		return r.enum.BoundError()
	}
	if evalErr != nil {
		return evalErr
	}
	idx := r.visits
	r.visits++
	r.count += w
	return r.visit(idx, x, allowed)
}

// fanOut produces and evaluates units [from, n) on the worker pool (a
// per-worker Assembler and scratch each) and merges their verdicts back on
// the calling goroutine in exact enumeration order via
// pool.OrderedStream, continuing the run's count, visit index and bound.
func (r *verdictRun) fanOut(from, n, workers int) error {
	if workers > n-from {
		workers = n - from
	}
	tr := obs.FromContext(r.ctx)
	scratches := make([]*cat.Scratch, workers)
	assemblers := make([]axiom.Assembler, workers)
	for w := range scratches {
		scratches[w] = r.m.NewScratch()
		scratches[w].SetTracer(tr)
	}
	err := pool.OrderedStream(n-from, workers, 4*workers,
		func(w, i int, emit func(execVerdict) error) error {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			sc := scratches[w]
			return r.stream(&assemblers[w], from+i, func(x *axiom.Execution) error {
				allowed, err := r.m.verdict(x, sc)
				if e := emit(execVerdict{x: x, allowed: allowed, err: err}); e != nil {
					return e
				}
				if err != nil {
					// The failure was delivered at this execution's position
					// in the merge, so the error a caller sees is
					// deterministic.
					return errVerdictStopped
				}
				return nil
			})
		},
		func(_ int, v execVerdict) error { return r.deliver(v.x, v.allowed, v.err) })
	if errors.Is(err, errVerdictStopped) {
		err = nil // the positional eval error was already delivered
	}
	return err
}
