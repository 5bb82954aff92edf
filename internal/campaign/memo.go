package campaign

import (
	"context"
	"sync"
	"sync/atomic"

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
// Memo is safe for concurrent use; each entry is computed once even under
// concurrent first requests, which wait for the one in flight.
//
// Entries are content-addressed: the key is the model's source fingerprint
// plus the test's canonical content fingerprint (litmus.Test.Fingerprint),
// not pointer identity. Independently constructed but semantically
// identical tests — litmus.ByName builds a fresh *Test per call, and every
// service request parses its own — therefore share one computation.
//
// The model-independent half of a judgement is shared across models too:
// VerdictCtx and Analyse judge from one prepared axiom.Enumeration per
// test content, so a test judged under four models runs the value-domain
// fixpoint once. The candidates are shared as well: a cold VerdictCtx
// judges every model the memo has judged anything under so far, whose
// verdict for the test is neither held nor in flight, in the same pass
// over one candidate stream (core.JudgeModels), and stores each of those
// verdicts; the other models' requests then find them. Within a (model,
// test) pair the candidates are enumerated at most once: a statically
// undecided VerdictCtx, a full-count one and Analyse share one verdict.
// The memo drops a test's enumeration once the test has been judged — by
// enumeration or by the static prefilter, successfully or not — under
// every distinct model the memo has judged anything under so far, which
// after a joint pass is straight away; a model that comes later prepares
// again, with identical results. A test judged under only some of the
// memo's models keeps its enumeration for the memo's lifetime. A failed or
// cancelled preparation, analysis or verdict is returned to its requester
// only and never stored, so it cannot poison the test's other models or
// later requests.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	preps   map[string]*testPrep // by litmus.Test.Fingerprint()
	// models holds every model a judgement has settled under, by
	// fingerprint: the set a test's enumeration waits for before its
	// release, and the set a cold verdict judges in one pass.
	models map[string]*core.Model
}

type memoKey struct {
	model string // core.Model.Fingerprint()
	test  string // litmus.Test.Fingerprint()
}

type memoEntry struct {
	key   memoKey
	model *core.Model // the model the entry was made for
	prep  *testPrep
	// settled records (under Memo.mu) that a judgement of this (model,
	// test) pair has finished, successfully or not, and was counted into
	// prep.judged.
	settled bool

	// info is the pair's model analysis (Analyse).
	info held[*ModelInfo]

	// verdict is the pair's one enumerated verdict, which VerdictCtx and
	// Analyse share.
	verdict held[*core.Verdict]

	// static is the first verdict the static prefilter decided for the
	// pair. It is kept apart from verdict: a static verdict carries no
	// candidate counts, so a caller asking for the full enumeration must
	// not be served it.
	static atomic.Pointer[core.Verdict]
}

// testPrep is the shared, model-independent preparation of one test
// content. Its fields are guarded by Memo.mu.
type testPrep struct {
	en     held[*axiom.Enumeration] // en.val is nil before preparation and after release
	judged int                      // distinct models with a settled judgement of the test
}

// held is a value computed by one requester at a time. A computation that
// fails stores nothing: its error stays with its requester and the next
// requester computes again. Its fields are guarded by Memo.mu.
type held[T comparable] struct {
	val     T    // the zero value until a computation succeeds
	running bool // a computation is in flight
	// done is made by the first requester that waits for the in-flight
	// computation, and closed when that computation ends.
	done chan struct{}
}

// get returns h's value, computing it with compute when none is held.
// Concurrent requesters wait for the one in-flight computation, or until
// their ctx is done.
func (h *held[T]) get(ctx context.Context, mu *sync.Mutex, compute func() (T, error)) (v T, err error) {
	var none T
	mu.Lock()
	for h.val == none && h.running {
		if h.done == nil {
			h.done = make(chan struct{})
		}
		wait := h.done
		mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return none, ctx.Err()
		}
		mu.Lock()
	}
	if v = h.val; v != none {
		mu.Unlock()
		return v, nil
	}
	h.running = true
	mu.Unlock()
	defer func() {
		mu.Lock()
		if err == nil {
			h.val = v
		}
		h.finish()
		mu.Unlock()
	}()
	return compute()
}

// finish ends h's in-flight computation and wakes its waiters; the caller
// holds the memo's mutex.
func (h *held[T]) finish() {
	h.running = false
	if h.done != nil {
		close(h.done)
		h.done = nil
	}
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
	return &Memo{entries: make(map[memoKey]*memoEntry), preps: make(map[string]*testPrep), models: make(map[string]*core.Model)}
}

// Analyse returns the memoized model analysis of t under m, computing it on
// first request: enumerate the candidate executions, filter through the
// model, and fingerprint the allowed final states with the harness's
// fingerprint function (so histograms compare directly against Allowed).
// The per-test verdict stream is serial: Analyse callers fan out across
// tests on the campaign pool already (validate.go's phase 1), and nesting a
// second worker pool per test would oversubscribe it. The verdict the
// analysis computes becomes the pair's memoized verdict unless one was
// already computed, so a later Verdict does not enumerate again.
func (mm *Memo) Analyse(m *core.Model, t *litmus.Test) (*ModelInfo, error) {
	e := mm.entry(m, t)
	ctx := context.Background()
	return e.info.get(ctx, &mm.mu, func() (*ModelInfo, error) {
		return judgeShared(mm, ctx, e, t, func(en *axiom.Enumeration) (*ModelInfo, error) {
			info, v, err := analyse(m, t, en)
			if err == nil {
				mm.mu.Lock()
				if e.verdict.val == nil && !e.verdict.running {
					e.verdict.val = v
				}
				mm.mu.Unlock()
			}
			return info, err
		})
	})
}

// Verdict is VerdictCtx under a background context at auto parallelism,
// without the static prefilter. perfbench/ calls it, which pins it; other
// callers can use VerdictCtx.
func (mm *Memo) Verdict(m *core.Model, t *litmus.Test) (*core.Verdict, error) {
	return mm.VerdictCtx(context.Background(), m, t, 0, false)
}

// VerdictCtx returns the memoized herd-style verdict of t under m (exactly
// core.JudgeWith, computed once per (model, test) content pair). Because
// entries are content-addressed, the cached Verdict's Test field is the
// first requester's *Test: a content-identical test under a different name
// receives the original's verdict object (counts and witness are
// necessarily identical; only the label differs).
//
// With static set, the static prefilter goes in front, on the test's
// shared enumeration: when it decides, nothing is streamed and the pair's
// static verdict is returned (StaticSkipped set, zero candidate counts).
// A pair it has decided returns that verdict again without touching the
// enumeration, so a repeat never prepares the test anew.
// An undecided test, and every call without static, joins the pair's one
// enumerated verdict, so a later full-count request never enumerates again.
//
// Verdicts are identical for every parallelism (see core.Opts); only the
// first request for an entry computes, so its parallelism is the one used,
// and cancellation and obs tracing reach the enumeration only when this
// call is the one that computes the entry. Joiners of an already-computed
// (or in-flight) entry get the memoized verdict; their context's trace
// records no pipeline phases — the work happened under the first
// requester's context. Likewise, when another model's request already
// prepared the test (see Memo), the computing call's trace records the
// stream and evaluation but no prepare phase, and when another model's
// request judged this pair in its pass, this call's trace records nothing:
// the computing call's trace holds the evaluation under every model of
// its pass.
func (mm *Memo) VerdictCtx(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int, static bool) (*core.Verdict, error) {
	e := mm.entry(m, t)
	if static {
		if v := e.static.Load(); v != nil {
			return v, nil
		}
		return judgeShared(mm, ctx, e, t, func(en *axiom.Enumeration) (*core.Verdict, error) {
			if v := m.StaticVerdict(t, en); v != nil {
				e.static.CompareAndSwap(nil, v)
				return e.static.Load(), nil
			}
			return e.verdict.get(ctx, &mm.mu, func() (*core.Verdict, error) {
				return mm.judgeJoint(ctx, m, e, t, core.Opts{Parallelism: parallelism, Enum: en})
			})
		})
	}
	return e.verdict.get(ctx, &mm.mu, func() (*core.Verdict, error) {
		return judgeShared(mm, ctx, e, t, func(en *axiom.Enumeration) (*core.Verdict, error) {
			return mm.judgeJoint(ctx, m, e, t, core.Opts{Parallelism: parallelism, Enum: en})
		})
	})
}

// judgeJoint computes e's verdict under m from o.Enum in one pass with the
// verdicts of the siblings it claims, and stores and settles theirs. When
// the pass fails nothing is stored for any sibling and their claims are
// released: a ctx error is returned as it is, and any other error has m
// judged alone, so the requester sees exactly what a one-model judgement
// gives it.
func (mm *Memo) judgeJoint(ctx context.Context, m *core.Model, e *memoEntry, t *litmus.Test, o core.Opts) (*core.Verdict, error) {
	sibs := mm.claim(e)
	if len(sibs) == 0 {
		return core.JudgeWith(ctx, m, t, o)
	}
	ms := make([]*core.Model, 1, len(sibs)+1)
	ms[0] = m
	for _, s := range sibs {
		ms = append(ms, s.model)
	}
	vs, err := core.JudgeModels(ctx, ms, t, o)
	mm.mu.Lock()
	for i, s := range sibs {
		if err == nil {
			s.verdict.val = vs[i+1]
			mm.settleLocked(s)
		}
		s.verdict.finish()
	}
	mm.mu.Unlock()
	switch {
	case err == nil:
		return vs[0], nil
	case ctx.Err() != nil:
		return nil, err
	}
	return core.JudgeWith(ctx, m, t, o)
}

// claim marks as in flight, and returns, the verdict of e's test under
// every other model the memo has judged under whose pair holds no
// verdict and has none in flight. The order of the siblings does not
// reach any verdict.
func (mm *Memo) claim(e *memoEntry) []*memoEntry {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var sibs []*memoEntry
	for fp, m := range mm.models {
		if fp == e.key.model {
			continue
		}
		s := mm.entryLocked(memoKey{model: fp, test: e.key.test}, m)
		if s.verdict.val == nil && !s.verdict.running {
			s.verdict.running = true
			sibs = append(sibs, s)
		}
	}
	return sibs
}

func (mm *Memo) entry(m *core.Model, t *litmus.Test) *memoEntry {
	key := memoKey{model: m.Fingerprint(), test: t.Fingerprint()}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.entryLocked(key, m)
}

// entryLocked returns key's entry, making it for m when there is none; the
// caller holds mm.mu.
func (mm *Memo) entryLocked(key memoKey, m *core.Model) *memoEntry {
	e, ok := mm.entries[key]
	if !ok {
		p := mm.preps[key.test]
		if p == nil {
			p = &testPrep{}
			mm.preps[key.test] = p
		}
		e = &memoEntry{key: key, model: m, prep: p}
		mm.entries[key] = e
	}
	return e
}

// judgeShared runs judge on the test's shared enumeration, preparing it
// under ctx when no enumeration is held, then settles e. A preparation
// error is returned without calling judge.
func judgeShared[T any](mm *Memo, ctx context.Context, e *memoEntry, t *litmus.Test, judge func(*axiom.Enumeration) (T, error)) (T, error) {
	defer mm.settle(e)
	en, err := e.prep.en.get(ctx, &mm.mu, func() (*axiom.Enumeration, error) {
		return axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
	})
	if err != nil {
		var none T
		return none, err
	}
	return judge(en)
}

// settle counts e's model as having judged e's test, and releases the
// test's enumeration once every model the memo has judged under has
// judged the test.
func (mm *Memo) settle(e *memoEntry) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.settleLocked(e)
}

// settleLocked is settle with mm.mu held.
func (mm *Memo) settleLocked(e *memoEntry) {
	if !e.settled {
		e.settled = true
		e.prep.judged++
		mm.models[e.key.model] = e.model
	}
	if e.prep.judged == len(mm.models) {
		e.prep.en.val = nil
	}
}

// analyse judges t from en on this goroutine (nothing materialises the
// candidate set), collecting the fingerprints of the allowed final states.
// Symmetry pruning keeps the set exact: a representative stands for
// Weight() equivalent executions sharing its final state, and the counts
// come from the verdict, which weighs them.
func analyse(m *core.Model, t *litmus.Test, en *axiom.Enumeration) (*ModelInfo, *core.Verdict, error) {
	allowed := make(map[string]bool)
	l := harness.NewLayout(t)
	var fp []byte
	v, err := core.JudgeWith(context.Background(), m, t, core.Opts{Parallelism: 1, Enum: en, Visit: func(_ int, x *axiom.Execution, ok bool) error {
		if ok {
			if fp = l.AppendFingerprint(fp[:0], x.Final); !allowed[string(fp)] {
				allowed[string(fp)] = true
			}
		}
		return nil
	}})
	if err != nil {
		return nil, nil, err
	}
	return &ModelInfo{Allowed: allowed, WeakAllowed: v.Observable, Candidates: v.Candidates, AllowedCount: v.Allowed}, v, nil
}
