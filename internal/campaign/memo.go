package campaign

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Memo caches the expensive model-side sub-results shared between campaign
// jobs: candidate-execution enumeration and model verdicts per (model,
// test). A sweep of one test over several chips needs the test's allowed
// final states exactly once; without the memo each job recomputes the
// enumeration (validate.go's old inline loop did this per test serially).
// Memo is safe for concurrent use; each entry is computed exactly once even
// under concurrent first requests (duplicate-suppression via per-entry
// sync.Once).
//
// Entries are content-addressed: the key is the model's source fingerprint
// plus the test's canonical content fingerprint (litmus.Test.Fingerprint),
// not pointer identity. Independently constructed but semantically
// identical tests — litmus.ByName builds a fresh *Test per call, and every
// service request parses its own — therefore share one computation.
//
// The model-independent half of a judgement is shared across models too:
// Verdict, VerdictStaticCtxP's enumerating fallback and Analyse judge from
// one prepared axiom.Enumeration per test content, so a test judged under
// four models runs the value-domain fixpoint once. The memo drops a test's
// enumeration once the test has been judged — by enumeration or by the
// static prefilter, successfully or not — under every distinct model the
// memo has judged anything under so far; a model that comes later
// prepares again, with identical results. A test judged under only some
// of the memo's models keeps its enumeration for the memo's lifetime. A
// failed or cancelled preparation is returned to its requester only and
// never stored, so it cannot poison the test's other models.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	preps   map[string]*testPrep // by litmus.Test.Fingerprint()
	// models holds the fingerprint of every model a judgement has settled
	// under: the set a test's enumeration waits for before its release.
	models map[string]bool
	// staticSkipped counts verdicts the static prefilter decided without
	// enumeration (VerdictStaticCtxP): the skip ledger the service's
	// /v1/stats and /metrics surface.
	staticSkipped atomic.Int64
}

type memoKey struct {
	model string // core.Model.Fingerprint()
	test  string // litmus.Test.Fingerprint()
}

type memoEntry struct {
	key  memoKey
	prep *testPrep
	// settled records (under Memo.mu) that a judgement of this (model,
	// test) pair has finished, successfully or not, and was counted into
	// prep.judged.
	settled bool

	once sync.Once
	info *ModelInfo
	err  error

	vOnce   sync.Once
	verdict *core.Verdict
	vErr    error

	// Static-prefilter verdicts memoize separately from enumerated ones:
	// a static verdict carries no candidate counts, so a caller asking for
	// the full enumeration must not be served a static entry (the reverse
	// is fine and the static path checks vOnce's result first).
	sOnce sync.Once
	sVerd *core.Verdict
	sErr  error

	// Fence-repair syntheses memoize like verdicts: one search per (model,
	// test) content pair however many cells of a campaign share the test.
	rOnce  sync.Once
	repair *analysis.RepairResult
	rErr   error
}

// testPrep is the shared, model-independent preparation of one test
// content. Its fields are guarded by Memo.mu.
type testPrep struct {
	en *axiom.Enumeration // nil before preparation and after release
	// preparing is closed when the in-flight preparation ends; nil when
	// none is running.
	preparing chan struct{}
	judged    int // distinct models with a settled judgement of the test
}

// ModelInfo is the memoized model analysis of one test: which final-state
// fingerprints the model allows, and whether the test's exists-condition is
// among them.
type ModelInfo struct {
	Allowed      map[string]bool // model-allowed final-state fingerprints
	WeakAllowed  bool            // some allowed execution satisfies the condition
	Candidates   int             // enumerated candidate executions
	AllowedCount int             // candidates the model allows
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[memoKey]*memoEntry), preps: make(map[string]*testPrep), models: make(map[string]bool)}
}

// Analyse returns the memoized model analysis of t under m, computing it on
// first request: enumerate the candidate executions, filter through the
// model, and fingerprint the allowed final states with the harness's
// fingerprint function (so histograms compare directly against Allowed).
// The per-test verdict stream is serial: Analyse callers fan out across
// tests on the campaign pool already (validate.go's phase 1), and nesting a
// second worker pool per test would oversubscribe it.
func (mm *Memo) Analyse(m *core.Model, t *litmus.Test) (*ModelInfo, error) {
	e := mm.entry(m, t)
	e.once.Do(func() {
		e.err = mm.judgeShared(context.Background(), e, t, func(en *axiom.Enumeration) (err error) {
			e.info, err = analyse(m, t, en)
			return err
		})
	})
	return e.info, e.err
}

// Verdict returns the memoized herd-style verdict of t under m (exactly
// core.Judge, computed once per (model, test) content pair). Because
// entries are content-addressed, the cached Verdict's Test field is the
// first requester's *Test: a content-identical test under a different name
// receives the original's verdict object (counts and witness are
// necessarily identical; only the label differs).
func (mm *Memo) Verdict(m *core.Model, t *litmus.Test) (*core.Verdict, error) {
	return mm.VerdictCtxP(context.Background(), m, t, 0)
}

// VerdictCtxP is Verdict under a context with an explicit evaluation
// parallelism (see core.JudgeCtx). Verdicts are identical for every
// parallelism; only the first request for an entry computes, so its
// parallelism is the one used, and cancellation and obs tracing reach the
// enumeration only when this call is the one that computes the entry.
// Joiners of an already-computed (or in-flight) entry get the memoized
// verdict; their context's trace records no pipeline phases — the work
// happened under the first requester's context. Likewise, when another
// model's request already prepared the test (see Memo), the computing
// call's trace records the stream and evaluation but no prepare phase.
func (mm *Memo) VerdictCtxP(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int) (*core.Verdict, error) {
	e := mm.entry(m, t)
	e.vOnce.Do(func() {
		e.vErr = mm.judgeShared(ctx, e, t, func(en *axiom.Enumeration) (err error) {
			e.verdict, err = core.JudgePreparedCtx(ctx, m, t, en, parallelism)
			return err
		})
	})
	return e.verdict, e.vErr
}

// VerdictStaticCtxP is VerdictCtxP with the static prefilter in front: when
// the prefilter decides, enumeration is skipped (the returned Verdict has
// StaticSkipped set and zero candidate counts) and the memo's skip counter
// increments. Static and enumerated verdicts memoize separately, so a
// later Verdict call still gets full counts.
func (mm *Memo) VerdictStaticCtxP(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int) (*core.Verdict, error) {
	e := mm.entry(m, t)
	e.sOnce.Do(func() {
		if e.sVerd = m.StaticVerdict(t); e.sVerd != nil {
			mm.staticSkipped.Add(1)
			mm.settle(e)
			return
		}
		e.sErr = mm.judgeShared(ctx, e, t, func(en *axiom.Enumeration) (err error) {
			e.sVerd, err = core.JudgePreparedCtx(ctx, m, t, en, parallelism)
			return err
		})
	})
	return e.sVerd, e.sErr
}

// StaticSkipped returns how many verdicts the static prefilter decided
// without enumeration over this memo's lifetime.
func (mm *Memo) StaticSkipped() int64 { return mm.staticSkipped.Load() }

// RepairCtx returns the memoized fence-repair synthesis of t under m
// (exactly core.RepairCtx, computed once per (model, test) content pair):
// the minimal judge-verified set of membar insertions/strengthenings
// making the exists-condition Never. A campaign sweeping one broken test
// over many chips synthesizes its fix exactly once. The synthesis is
// deterministic for every parallelism; only the first request for an
// entry computes, with the same first-requester semantics as VerdictCtxP.
func (mm *Memo) RepairCtx(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int) (*analysis.RepairResult, error) {
	e := mm.entry(m, t)
	e.rOnce.Do(func() { e.repair, e.rErr = core.RepairCtx(ctx, m, t, parallelism) })
	return e.repair, e.rErr
}

func (mm *Memo) entry(m *core.Model, t *litmus.Test) *memoEntry {
	key := memoKey{model: m.Fingerprint(), test: t.Fingerprint()}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	e, ok := mm.entries[key]
	if !ok {
		p := mm.preps[key.test]
		if p == nil {
			p = &testPrep{}
			mm.preps[key.test] = p
		}
		e = &memoEntry{key: key, prep: p}
		mm.entries[key] = e
	}
	return e
}

// judgeShared runs judge on the test's shared enumeration, preparing it
// under ctx when no enumeration is held, then settles e. A preparation
// error is returned without calling judge.
func (mm *Memo) judgeShared(ctx context.Context, e *memoEntry, t *litmus.Test, judge func(*axiom.Enumeration) error) error {
	defer mm.settle(e)
	en, err := mm.enumeration(ctx, e.prep, t)
	if err != nil {
		return err
	}
	return judge(en)
}

// enumeration returns p's enumeration, preparing it from t when none is
// held. Concurrent requesters wait for one in-flight preparation; if it
// fails, the error stays with its requester and the next waiter prepares.
func (mm *Memo) enumeration(ctx context.Context, p *testPrep, t *litmus.Test) (en *axiom.Enumeration, err error) {
	mm.mu.Lock()
	for p.en == nil && p.preparing != nil {
		wait := p.preparing
		mm.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mm.mu.Lock()
	}
	if en = p.en; en != nil {
		mm.mu.Unlock()
		return en, nil
	}
	done := make(chan struct{})
	p.preparing = done
	mm.mu.Unlock()
	defer func() {
		mm.mu.Lock()
		p.en = en // nil on failure: the next requester prepares again
		p.preparing = nil
		close(done)
		mm.mu.Unlock()
	}()
	return axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
}

// settle counts e's model as having judged e's test, and releases the
// test's enumeration once every model the memo has judged under has
// judged the test.
func (mm *Memo) settle(e *memoEntry) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if !e.settled {
		e.settled = true
		e.prep.judged++
		mm.models[e.key.model] = true
	}
	if e.prep.judged == len(mm.models) {
		e.prep.en = nil
	}
}

// analyse streams the candidate executions of t from en into verdict-only
// model evaluation on this goroutine (nothing materialises the candidate
// set) and collects the allowed final states.
func analyse(m *core.Model, t *litmus.Test, en *axiom.Enumeration) (*ModelInfo, error) {
	info := &ModelInfo{Allowed: make(map[string]bool)}
	n, err := m.ForEachVerdictPreparedCtx(context.Background(), t, en, func(_ int, x *axiom.Execution, allowed bool) error {
		if !allowed {
			return nil
		}
		// Weighted: a symmetry-pruned representative stands for Weight()
		// equivalent executions sharing its final state, so the count — and
		// the fingerprint set, which is orbit-invariant by construction —
		// matches the exhaustive enumeration exactly.
		info.AllowedCount += x.Weight()
		info.Allowed[harness.Fingerprint(t, x.Final)] = true
		if t.Exists.Eval(x.Final) {
			info.WeakAllowed = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	info.Candidates = n
	return info, nil
}
