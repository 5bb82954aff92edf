package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// This file is the streaming verdict pipeline: candidate executions flow
// from the axiom producer straight into model evaluation without ever
// materialising the full candidate set. Path derivation happens once per
// judgement, or once per test when the caller shares one prepared
// enumeration across models (Opts.Enum); axiom.PrepareCtx memoizes it
// across the value-domain fixpoint iterations.
//
// A verdict is a fold: weighted sums plus the first witness in enumeration
// order, none of which needs the executions in order. The units of work
// are the path combinations, or — for a single-combination test whose rf
// cross product splits — that combination's rf chunks. The calling
// goroutine folds a head of the units itself; the remaining units are
// claimed in ascending order by workers (an axiom.Assembler and a scratch
// each), every worker folding the units it claims into its own tally. The
// tallies then combine with sums and a min: the witness comes from the
// lowest unit that has one, so every count and the witness are identical
// at every parallelism, and counts are weighted by Execution.Weight so
// symmetry pruning never changes them (see axiom.Opts.Exhaustive).
//
// A caller that needs every execution (Opts.Visit) gets the same fold run
// serially by the calling goroutine, with the visit called after each
// evaluation; there is no second per-execution loop.

// parallelMinExecs is the auto-mode fan-out threshold: the calling
// goroutine checks executions serially until this many have been visited
// (small enumerations — every paper test — never reach it, and worker
// startup would cost more than it saves); the units left after that fan
// out. A single combination splits into rf chunks in auto mode only when
// its estimated completion count reaches the threshold.
const parallelMinExecs = 128

// Opts selects how JudgeWith judges. The zero value judges like Judge.
type Opts struct {
	// Parallelism is the evaluation parallelism: 1 judges on the calling
	// goroutine; n > 1 folds every unit of work (path combination or rf
	// chunk) on n workers; 0 sizes the workers to GOMAXPROCS but judges
	// serially until parallelMinExecs executions have been visited, so
	// small enumerations (the common litmus case) never start a worker.
	// The verdict — including the Witness, pinned to the first witnessing
	// execution in enumeration order — is identical for every parallelism.
	Parallelism int

	// Static puts the static prefilter in front: when m.StaticVerdict
	// decides t, that verdict is returned and nothing is prepared or
	// enumerated. The prefilter never consults the context.
	Static bool

	// Enum is an enumeration the caller prepared with axiom.PrepareCtx,
	// from t or from any test with t's content (see axiom.Enumeration.Bind):
	// the verdict, its witness and any error name t. Preparation depends on
	// the test alone, so the campaign memo prepares a test once and judges
	// it under every model from the one enumeration. The other use is the
	// differential oracle: an enumeration prepared with
	// axiom.Opts{Exhaustive: true} disables symmetry pruning, and the
	// resulting verdict must agree with the pruned one on every count, the
	// observable flag, and the witness content. A nil Enum prepares t with
	// axiom.DefaultOpts under the run's trace span.
	Enum *axiom.Enumeration

	// Visit, when set, is called for every produced candidate after its
	// evaluation, serially and in enumeration order on the calling
	// goroutine, whatever Parallelism says: i is the execution's position
	// in the produced stream (representative ordinals under pruning) and
	// allowed is the model's verdict-only evaluation. Any weighted
	// aggregate a caller builds from the visits equals the exhaustive
	// enumeration's. An error from Visit stops the run and is returned; in
	// a traced run the calls are timed into obs.PhaseMerge.
	Visit func(i int, x *axiom.Execution, allowed bool) error
}

// JudgeWith decides whether t's final condition is allowed under m — the
// herd-style simulation of Sec. 5.4 — by folding the candidate executions
// as o selects. The MaxExecs bound fails with the serial stream's error
// (axiom.Enumeration.BoundError) once the summed weight of the checked
// executions passes it, and cancelling ctx stops the judgement (checked
// per unit and per execution) and returns ctx.Err(). Any other failure is
// the lowest failing unit's first error.
func JudgeWith(ctx context.Context, m *Model, t *litmus.Test, o Opts) (*Verdict, error) {
	if o.Static {
		if v := m.StaticVerdict(t); v != nil {
			return v, nil
		}
	}
	tr := obs.FromContext(ctx)
	if tr.Enabled() {
		// Traced run: open the pipeline span (PrepareCtx nests "prepare"
		// under it).
		sp, sctx := tr.StartSpan(ctx, "verdict")
		ctx = sctx
		defer sp.Finish()
	}
	en, err := bind(ctx, t, o.Enum)
	if err != nil {
		return nil, err
	}
	workers, auto := o.Parallelism, o.Parallelism <= 0
	switch {
	case o.Visit != nil:
		workers, auto = 1, false
	case auto:
		workers = runtime.GOMAXPROCS(0)
	}
	r := &judgeRun{m: m, ctx: ctx, en: en, tr: tr, visit: o.Visit}
	n := r.units(workers, auto)
	// The calling goroutine folds the head of the units: all of them with
	// one worker or fewer than two units, in auto mode until
	// parallelMinExecs executions have been visited, under explicit
	// parallelism none. The rest fan out.
	k := &r.head
	serial := workers == 1 || n < 2
	if serial || auto {
		sc := m.NewScratch()
		sc.SetTracer(tr)
		var a axiom.Assembler
		fold := r.fold(k, sc)
		for ; k.unit < n && (serial || k.visited < parallelMinExecs); k.unit++ {
			if err := r.stream(&a, k.unit, fold); err != nil {
				return nil, err
			}
		}
	}
	if k.unit < n {
		if err := r.fanOut(k, n, workers); err != nil {
			return nil, err
		}
	}
	return &Verdict{
		Test: t, Model: m.Name,
		Candidates: k.candidates, Visited: k.visited,
		Allowed: k.allowed, Witnesses: k.witnesses,
		Observable: k.witnesses > 0, Witness: k.witness,
	}, nil
}

// bind returns en bound to t and ctx, preparing t with axiom.DefaultOpts
// when en is nil.
func bind(ctx context.Context, t *litmus.Test, en *axiom.Enumeration) (*axiom.Enumeration, error) {
	if en == nil {
		var err error
		if en, err = axiom.PrepareCtx(ctx, t, axiom.DefaultOpts()); err != nil {
			return nil, err
		}
	}
	return en.Bind(ctx, t), nil
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

// tally is one goroutine's fold of the units it judged. A goroutine claims
// units in ascending order and stops at its first error, so its first
// witness and its error belong to its lowest witnessing and lowest failing
// unit; tallies combine with sums and a min over those units.
type tally struct {
	candidates, visited, allowed, witnesses int
	unit                                    int // the unit being folded
	witness                                 *axiom.Execution
	witnessUnit                             int
	err                                     error
	errUnit                                 int
}

// add combines o into k.
func (k *tally) add(o *tally) {
	k.candidates += o.candidates
	k.visited += o.visited
	k.allowed += o.allowed
	k.witnesses += o.witnesses
	if o.witness != nil && (k.witness == nil || o.witnessUnit < k.witnessUnit) {
		k.witness, k.witnessUnit = o.witness, o.witnessUnit
	}
	if o.err != nil && (k.err == nil || o.errUnit < k.errUnit) {
		k.err, k.errUnit = o.err, o.errUnit
	}
}

// judgeRun is the state one judgement's goroutines share.
type judgeRun struct {
	m       *Model
	ctx     context.Context
	en      *axiom.Enumeration
	tr      *obs.Trace
	chunked bool // the units are combination 0's rf chunks
	// visit is the caller's Opts.Visit; when set, the run is serial.
	visit func(i int, x *axiom.Execution, allowed bool) error
	// head is the calling goroutine's tally, which the workers' tallies
	// are added into.
	head tally
	// count is the weighted number of candidates checked so far, across
	// every goroutine; it enforces MaxExecs before each evaluation.
	count atomic.Int64
}

// units picks the run's units of work and returns their number: the path
// combinations, or — when there is one combination, more than one worker,
// and the combination's rf cross product splits (in auto mode only when
// its estimated completion count reaches parallelMinExecs) — that
// combination's rf chunks. Either way the units back to back reproduce
// the serial enumeration exactly.
func (r *judgeRun) units(workers int, auto bool) int {
	if r.en.Combos() == 1 && workers > 1 {
		var probe axiom.Assembler
		if chunks, estimate := r.en.ComboChunks(0, &probe); chunks >= 2 && (!auto || estimate >= parallelMinExecs) {
			r.chunked = true
			return chunks
		}
	}
	return r.en.Combos()
}

// stream produces unit u's executions in enumeration order, checking ctx
// first.
func (r *judgeRun) stream(a *axiom.Assembler, u int, yield func(*axiom.Execution) error) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.chunked {
		return r.en.StreamComboChunk(0, u, a, yield)
	}
	return r.en.StreamCombo(u, a, yield)
}

// fold returns the yield that judges each execution of k's current unit
// into k and then visits it. The context and the shared MaxExecs bound
// are checked before the evaluation, as the serial stream checks them.
func (r *judgeRun) fold(k *tally, sc *cat.Scratch) func(*axiom.Execution) error {
	limit := int64(r.en.Opts().MaxExecs)
	return func(x *axiom.Execution) error {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		w := x.Weight()
		if r.count.Add(int64(w)) > limit {
			return r.en.BoundError()
		}
		allowed, err := r.m.verdict(x, sc)
		if err != nil {
			return err
		}
		var t0 time.Time
		if r.tr.Enabled() {
			t0 = time.Now()
		}
		k.candidates += w
		k.visited++
		if allowed {
			k.allowed += w
			if r.en.Test().Exists.Eval(x.Final) {
				k.witnesses += w
				if k.witness == nil {
					k.witness, k.witnessUnit = x, k.unit
				}
			}
		}
		if r.visit != nil {
			err = r.visit(k.visited-1, x, allowed)
		}
		if r.tr.Enabled() {
			r.tr.AddPhase(obs.PhaseMerge, time.Since(t0))
		}
		return err
	}
}

// fanOut folds units [k.unit, n) on up to workers goroutines, each with
// its own tally, Assembler and scratch, and adds their tallies into k.
// Units are claimed in ascending order, so once a unit fails every unit
// below it is already claimed: workers stop claiming, the units in flight
// finish, and the error returned is the lowest failing unit's.
func (r *judgeRun) fanOut(k *tally, n, workers int) error {
	var next atomic.Int64
	var stop atomic.Bool
	next.Store(int64(k.unit))
	tallies := make([]tally, min(workers, n-k.unit))
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(wk *tally) {
			defer wg.Done()
			sc := r.m.NewScratch()
			sc.SetTracer(r.tr)
			var a axiom.Assembler
			fold := r.fold(wk, sc)
			for !stop.Load() {
				if wk.unit = int(next.Add(1) - 1); wk.unit >= n {
					return
				}
				if err := r.stream(&a, wk.unit, fold); err != nil {
					wk.err, wk.errUnit = err, wk.unit
					stop.Store(true)
				}
			}
		}(&tallies[w])
	}
	wg.Wait()
	var t0 time.Time
	if r.tr.Enabled() {
		t0 = time.Now()
	}
	for w := range tallies {
		k.add(&tallies[w])
	}
	if r.tr.Enabled() {
		r.tr.AddPhase(obs.PhaseMerge, time.Since(t0))
	}
	return k.err
}
