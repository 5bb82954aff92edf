package core

import (
	"context"
	"errors"
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
// enumeration across judgements (Opts.Enum); axiom.PrepareCtx memoizes it
// across the value-domain fixpoint iterations.
//
// A candidate execution depends on the test alone, not on the model, so
// one run can judge several models (JudgeModels): each produced execution
// is counted, bounded and checked for cancellation once, evaluated under
// every model, and matched against the final condition at most once. The
// skeletons, the executions and the derived relations each execution
// memoizes are built once for all the models.
//
// A verdict is a fold: weighted sums plus the first witness in enumeration
// order, none of which needs the executions in order. The units of work
// are the path combinations, or — for a single-combination test whose rf
// cross product splits — that combination's rf chunks. The calling
// goroutine folds a head of the units itself; the remaining units are
// claimed in ascending order by workers, every worker folding the units it
// claims into its own tally, which holds one count set and one first
// witness per model. Each folding goroutine borrows an axiom.Assembler
// from axiom's pool (axiom.BorrowAssembler) and one evaluation scratch per
// model from that model's program pool (cat.Program.BorrowScratch), and
// returns them when it finishes, so the construction storage — every
// skeleton, rf-choice and completion layer, rebuilt in place — and the
// scratches' storage carry over from judgement to judgement. The
// tallies then combine with sums and a min: each model's witness comes
// from the lowest unit that has one, so every count and the witness are
// identical at every parallelism and for every set of models judged
// together, and counts are weighted by Execution.Weight so symmetry
// pruning never changes them (see axiom.Opts.Exhaustive).
//
// A caller that needs every execution of a one-model run (Opts.Visit)
// gets the same fold run serially by the calling goroutine, with the visit
// called after each evaluation; there is no second per-execution loop.

// parallelMinExecs is the auto-mode fan-out threshold: the calling
// goroutine checks executions serially until this many have been visited
// (small enumerations — every paper test — never reach it, and worker
// startup would cost more than it saves); the units left after that fan
// out. A single combination splits into rf chunks in auto mode only when
// its estimated completion count reaches the threshold.
const parallelMinExecs = 128

// Opts selects how JudgeWith and JudgeModels judge. The zero value judges
// like Judge.
type Opts struct {
	// Parallelism is the evaluation parallelism: 1 judges on the calling
	// goroutine; n > 1 folds every unit of work (path combination or rf
	// chunk) on n workers; 0 sizes the workers to GOMAXPROCS but judges
	// serially until parallelMinExecs executions have been visited, so
	// small enumerations (the common litmus case) never start a worker.
	// The verdict — including the Witness, pinned to the first witnessing
	// execution in enumeration order — is identical for every parallelism.
	Parallelism int

	// Enum is an enumeration the caller prepared with axiom.PrepareCtx,
	// from t or from any test with t's content (see axiom.Enumeration.Bind):
	// the verdicts, their witnesses and any error name t. Preparation
	// depends on the test alone, so the campaign memo prepares a test once
	// and judges it under every model from the one enumeration. The other
	// use is the differential oracle: an enumeration prepared with
	// axiom.Opts{Exhaustive: true} disables symmetry pruning, and the
	// resulting verdict must agree with the pruned one on every count, the
	// observable flag, and the witness content. A nil Enum prepares t with
	// axiom.DefaultOpts under the run's trace.
	Enum *axiom.Enumeration

	// Visit, when set, is called for every produced candidate after its
	// evaluation, serially and in enumeration order on the calling
	// goroutine, whatever Parallelism says: i is the execution's position
	// in the produced stream (representative ordinals under pruning) and
	// allowed is the model's verdict-only evaluation. Any weighted
	// aggregate a caller builds from the visits equals the exhaustive
	// enumeration's. x is the producer's reusable execution and is valid
	// only during the call: a caller that keeps it keeps x.Clone(). An
	// error from Visit stops the run and is returned; in a traced run the
	// calls are timed into obs.PhaseMerge. A run of more than one model
	// takes no Visit.
	Visit func(i int, x *axiom.Execution, allowed bool) error
}

// JudgeWith decides whether t's final condition is allowed under m — the
// herd-style simulation of Sec. 5.4 — by folding the candidate executions
// as o selects. It is JudgeModels with one model.
func JudgeWith(ctx context.Context, m *Model, t *litmus.Test, o Opts) (*Verdict, error) {
	var v [1]*Verdict
	if err := judgeInto(ctx, []*Model{m}, t, o, v[:]); err != nil {
		return nil, err
	}
	return v[0], nil
}

// JudgeModels judges t under every model in ms from one candidate stream
// and returns their verdicts in ms's order; each equals JudgeWith's for
// that model with the same Opts, field for field. The MaxExecs bound fails
// with the serial stream's error (axiom.Enumeration.BoundError) once the
// summed weight of the checked executions passes it, and cancelling ctx
// stops the judgement (checked per unit and per execution) and returns
// ctx.Err(). Any other failure is the lowest failing unit's first error.
func JudgeModels(ctx context.Context, ms []*Model, t *litmus.Test, o Opts) ([]*Verdict, error) {
	vs := make([]*Verdict, len(ms))
	if err := judgeInto(ctx, ms, t, o, vs); err != nil {
		return nil, err
	}
	return vs, nil
}

// judgeInto fills vs[i] with t's verdict under ms[i]. A one-model run
// keeps its per-model state inline in the judgeRun and its tallies, so
// JudgeWith allocates nothing per model.
func judgeInto(ctx context.Context, ms []*Model, t *litmus.Test, o Opts, vs []*Verdict) error {
	if o.Visit != nil && len(ms) > 1 {
		return errors.New("core: Opts.Visit reports one model's verdicts; the run has several models")
	}
	r := &judgeRun{ctx: ctx, tr: obs.FromContext(ctx), visit: o.Visit}
	r.ms = append(r.one[:0], ms...)
	var err error
	if r.en, err = bind(r.ctx, t, o.Enum); err != nil {
		return err
	}
	workers, auto := o.Parallelism, o.Parallelism <= 0
	switch {
	case o.Visit != nil:
		workers, auto = 1, false
	case auto:
		workers = runtime.GOMAXPROCS(0)
	}
	k := &r.head
	k.init(len(r.ms))
	r.scratch(k)
	defer r.release(k)
	n := r.units(k.asm, workers, auto)
	// The calling goroutine folds the head of the units: all of them with
	// one worker or fewer than two units, in auto mode until
	// parallelMinExecs executions have been visited, under explicit
	// parallelism none. The rest fan out.
	serial := workers == 1 || n < 2
	if serial || auto {
		fold := r.fold(k)
		for ; k.unit < n && (serial || k.visited < parallelMinExecs); k.unit++ {
			if err := r.stream(k.asm, k.unit, fold); err != nil {
				return err
			}
		}
	}
	if k.unit < n {
		if err := r.fanOut(k, n, workers); err != nil {
			return err
		}
	}
	for i, m := range ms {
		mt := &k.models[i]
		vs[i] = &Verdict{
			Test: t, Model: m.Name,
			Candidates: k.candidates, Visited: k.visited,
			Allowed: mt.allowed, Witnesses: mt.witnesses,
			Observable: mt.witnesses > 0, Witness: mt.witness,
		}
	}
	return nil
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

// tally is one goroutine's fold of the units it judged. A goroutine claims
// units in ascending order and stops at its first error, so each model's
// first witness and the error belong to the lowest witnessing and lowest
// failing unit; tallies combine with sums and a min over those units.
type tally struct {
	candidates, visited int
	unit                int // the unit being folded
	// models holds one count set per model of the run, in judgeRun.ms's
	// order; a one-model run points it at one.
	models  []modelTally
	one     [1]modelTally
	err     error
	errUnit int
	// asm is the Assembler the goroutine borrowed to produce its units.
	asm *axiom.Assembler
}

// modelTally is one model's share of a tally, with the evaluation scratch
// the goroutine borrowed for that model.
type modelTally struct {
	allowed, witnesses int
	witness            *axiom.Execution
	witnessUnit        int
	sc                 *cat.Scratch
	ok                 bool // the model's verdict on the execution being folded
}

// init sizes k for a run of n models.
func (k *tally) init(n int) {
	if n == 1 {
		k.models = k.one[:]
		return
	}
	k.models = make([]modelTally, n)
}

// add combines o into k.
func (k *tally) add(o *tally) {
	k.candidates += o.candidates
	k.visited += o.visited
	for i := range k.models {
		mk, mo := &k.models[i], &o.models[i]
		mk.allowed += mo.allowed
		mk.witnesses += mo.witnesses
		if mo.witness != nil && (mk.witness == nil || mo.witnessUnit < mk.witnessUnit) {
			mk.witness, mk.witnessUnit = mo.witness, mo.witnessUnit
		}
	}
	if o.err != nil && (k.err == nil || o.errUnit < k.errUnit) {
		k.err, k.errUnit = o.err, o.errUnit
	}
}

// judgeRun is the state one judgement's goroutines share.
type judgeRun struct {
	// ms are the models the run evaluates, in the caller's order; a
	// one-model run points it at one.
	ms      []*Model
	one     [1]*Model
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

// scratch lends k an Assembler from axiom's pool and an evaluation
// scratch per model from the model's program pool, traced with the run.
// The goroutine folding into k hands them back with release when it is
// done, whatever ended its run.
func (r *judgeRun) scratch(k *tally) {
	k.asm = axiom.BorrowAssembler()
	for i := range k.models {
		sc := r.ms[i].prog.BorrowScratch()
		sc.SetTracer(r.tr)
		k.models[i].sc = sc
	}
}

// release returns k's Assembler and scratches to their pools.
func (r *judgeRun) release(k *tally) {
	axiom.ReturnAssembler(k.asm)
	k.asm = nil
	for i := range k.models {
		r.ms[i].prog.ReturnScratch(k.models[i].sc)
		k.models[i].sc = nil
	}
}

// units picks the run's units of work and returns their number: the path
// combinations, or — when there is one combination, more than one worker,
// and the combination's rf cross product splits (in auto mode only when
// its estimated completion count reaches parallelMinExecs) — that
// combination's rf chunks. Either way the units back to back reproduce
// the serial enumeration exactly. The probe runs on a, the head's
// Assembler.
func (r *judgeRun) units(a *axiom.Assembler, workers int, auto bool) int {
	if r.en.Combos() == 1 && workers > 1 {
		if chunks, estimate := r.en.ComboChunks(0, a); chunks >= 2 && (!auto || estimate >= parallelMinExecs) {
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
// under every model into k and then visits it. The context and the shared
// MaxExecs bound are checked once per execution, before the evaluations,
// as the serial stream checks them; the final condition is evaluated at
// most once per execution, when some model allows it. The producer
// rewrites x in place, so a model's first witness is a clone, made once
// per execution and shared by every model that takes it.
func (r *judgeRun) fold(k *tally) func(*axiom.Execution) error {
	limit := int64(r.en.Opts().MaxExecs)
	return func(x *axiom.Execution) error {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		w := x.Weight()
		if r.count.Add(int64(w)) > limit {
			return r.en.BoundError()
		}
		for i := range k.models {
			mt := &k.models[i]
			// The error is always nil: Compile rejects every model that
			// could fail to evaluate.
			mt.ok, _ = r.ms[i].prog.RunExecVerdict(x, mt.sc)
		}
		var t0 time.Time
		if r.tr.Enabled() {
			t0 = time.Now()
		}
		k.candidates += w
		k.visited++
		evaluated, sat := false, false
		var wit *axiom.Execution
		for i := range k.models {
			mt := &k.models[i]
			if !mt.ok {
				continue
			}
			mt.allowed += w
			if !evaluated {
				evaluated, sat = true, r.en.Test().Exists.Eval(x.Final)
			}
			if sat {
				mt.witnesses += w
				if mt.witness == nil {
					if wit == nil {
						wit = x.Clone()
					}
					mt.witness, mt.witnessUnit = wit, k.unit
				}
			}
		}
		var err error
		if r.visit != nil {
			err = r.visit(k.visited-1, x, k.models[0].ok)
		}
		if r.tr.Enabled() {
			r.tr.AddPhase(obs.PhaseMerge, time.Since(t0))
		}
		return err
	}
}

// fanOut folds units [k.unit, n) on up to workers goroutines, each with
// its own tally and borrowed Assembler and scratches, and adds their tallies
// into k.
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
			wk.init(len(r.ms))
			r.scratch(wk)
			defer r.release(wk)
			fold := r.fold(wk)
			for !stop.Load() {
				if wk.unit = int(next.Add(1) - 1); wk.unit >= n {
					return
				}
				if err := r.stream(wk.asm, wk.unit, fold); err != nil {
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
