package campaign

import (
	"context"
	"slices"
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
// Memo is safe for concurrent use; each result is computed once even under
// concurrent first requests, which wait for the one in flight.
//
// The memo keeps one record per test content, keyed by the test's
// canonical content fingerprint (litmus.Test.Fingerprint), not by pointer
// identity. Independently constructed but semantically identical tests —
// litmus.ByName builds a fresh *Test per call, every service request
// parses its own, and a renamed copy differs only in its label — therefore
// share one record. A *Test is fingerprinted once per memo: the memo
// remembers the record of every *Test handed to it, so a later request by
// the same pointer, under any model, finds the record without
// fingerprinting. A *Test must therefore not be mutated after it is handed
// in (the litmus mutators return clones). The memo holds a strong
// reference to every *Test it remembers, so no freed test's address can be
// reused for other content while the memo lives.
//
// Models are numbered in order of first sight, by source fingerprint
// (core.Model.Fingerprint); a record keeps one slot per model number,
// holding the pair's verdict, static verdict and analysis.
//
// The model-independent half of a judgement is shared across models too:
// VerdictCtx and Analyse judge from one prepared axiom.Enumeration per
// record, so a test judged under four models runs the value-domain
// fixpoint once. The candidates are shared as well: a cold VerdictCtx
// judges every model that has settled a judgement in this memo, whose
// verdict for the test is neither held nor in flight, in the same pass
// over one candidate stream (core.JudgeModels), in model-number order (so
// the pass is the same on every run; no verdict depends on the order), and
// stores each of those verdicts; the other models' requests then find
// them. Within a (model, test) pair the candidates are enumerated at most
// once: a statically undecided VerdictCtx, a full-count one and Analyse
// share one verdict. The memo drops a test's enumeration once the test
// has been judged — by enumeration or by the static prefilter,
// successfully or not — under every model that has settled a judgement in
// this memo, which after a joint pass is straight away; a model that comes
// later prepares again, with identical results. A test judged under only
// some of those models keeps its enumeration for the memo's lifetime. A
// failed or cancelled preparation, analysis or verdict is returned to its
// requester only and never stored, so it cannot poison the test's other
// models or later requests.
type Memo struct {
	mu    sync.Mutex
	tests map[string]*testRecord       // by litmus.Test.Fingerprint()
	seen  map[*litmus.Test]*testRecord // the record of every *Test handed in
	// models holds every model the memo has been asked about (the first
	// seen with each fingerprint), numbered in order of first sight: a
	// model's number indexes its slot in every record. settled holds, in
	// increasing order, the numbers of the models a judgement has settled
	// under: the set a test's enumeration waits for before its release,
	// and the set a cold verdict judges in one pass.
	models  []*core.Model
	settled []int
}

// testRecord is what the memo holds for one test content. Its fields are
// guarded by Memo.mu.
type testRecord struct {
	en     held[*axiom.Enumeration] // en.val is nil before preparation and after release
	judged int                      // slots with a settled judgement of the test
	// slots holds one slot per model number. A slot never moves: a held
	// computation keeps a pointer to it across Memo.mu.Unlock.
	slots []*modelSlot
}

// modelSlot is what the memo holds for one (model, test) pair.
type modelSlot struct {
	// settled records (under Memo.mu) that a judgement of the pair has
	// finished, successfully or not, and was counted into the record's
	// judged.
	settled bool

	// info is the pair's model analysis (Analyse).
	info held[*ModelInfo]

	// verdict is the pair's one enumerated verdict, which VerdictCtx and
	// Analyse share.
	verdict held[*core.Verdict]

	// static is the first verdict the static prefilter decided for the
	// pair. It is kept apart from verdict: a static verdict carries no
	// candidate counts, so a caller asking for the full enumeration must
	// not be served it. undecided records that the prefilter could not
	// decide the pair, whose static requests then join verdict.
	static    atomic.Pointer[core.Verdict]
	undecided atomic.Bool
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
	Allowed     map[string]bool // model-allowed final-state fingerprints
	WeakAllowed bool            // some allowed execution satisfies the condition
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{tests: make(map[string]*testRecord), seen: make(map[*litmus.Test]*testRecord)}
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
	r, i, s := mm.slot(m, t)
	ctx := context.Background()
	return s.info.get(ctx, &mm.mu, func() (*ModelInfo, error) {
		return judgeShared(mm, ctx, r, i, t, func(en *axiom.Enumeration) (*ModelInfo, error) {
			info, v, err := analyse(m, t, en)
			if err == nil {
				mm.mu.Lock()
				if s.verdict.val == nil && !s.verdict.running {
					s.verdict.val = v
				}
				mm.mu.Unlock()
			}
			return info, err
		})
	})
}

// Verdict is VerdictCtx under a background context at auto parallelism,
// without the static prefilter. perfbench/ is its only non-test caller,
// which pins it; other callers use VerdictCtx.
func (mm *Memo) Verdict(m *core.Model, t *litmus.Test) (*core.Verdict, error) {
	return mm.VerdictCtx(context.Background(), m, t, 0, false)
}

// VerdictCtx returns the memoized herd-style verdict of t under m (exactly
// core.JudgeWith, computed once per (model, test) content pair). Because
// records are content-addressed, the cached Verdict's Test field is the
// first requester's *Test: a content-identical test under a different name
// receives the original's verdict object (counts and witness are
// necessarily identical; only the label differs). A repeat by the same
// *Test, under any model, does not fingerprint the test again (see Memo).
//
// With static set, the static prefilter goes in front, on the test's
// shared enumeration: when it decides, nothing is streamed and the pair's
// static verdict is returned (StaticSkipped set, zero candidate counts).
// A pair it has decided returns that verdict again, and a pair it could
// not decide joins the pair's enumerated verdict, both without touching
// the enumeration, so a repeat never prepares the test anew.
// An undecided test, and every call without static, joins the pair's one
// enumerated verdict, so a later full-count request never enumerates again.
//
// Verdicts are identical for every parallelism (see core.Opts); only the
// first request for a pair computes, so its parallelism is the one used,
// and cancellation and obs tracing reach the enumeration only when this
// call is the one that computes the pair. Joiners of an already-computed
// (or in-flight) verdict get the memoized one; their context's trace
// records no pipeline phases — the work happened under the first
// requester's context. Likewise, when another model's request already
// prepared the test (see Memo), the computing call's trace records the
// stream and evaluation but no prepare phase, and when another model's
// request judged this pair in its pass, this call's trace records nothing:
// the computing call's trace holds the evaluation under every model of
// its pass, which judges the models in the order the memo first saw them.
func (mm *Memo) VerdictCtx(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int, static bool) (*core.Verdict, error) {
	r, i, s := mm.slot(m, t)
	if static && !s.undecided.Load() {
		if v := s.static.Load(); v != nil {
			return v, nil
		}
		return judgeShared(mm, ctx, r, i, t, func(en *axiom.Enumeration) (*core.Verdict, error) {
			if v := m.StaticVerdict(t, en); v != nil {
				s.static.CompareAndSwap(nil, v)
				return s.static.Load(), nil
			}
			s.undecided.Store(true)
			return s.verdict.get(ctx, &mm.mu, func() (*core.Verdict, error) {
				return mm.judgeJoint(ctx, m, r, t, core.Opts{Parallelism: parallelism, Enum: en})
			})
		})
	}
	return s.verdict.get(ctx, &mm.mu, func() (*core.Verdict, error) {
		return judgeShared(mm, ctx, r, i, t, func(en *axiom.Enumeration) (*core.Verdict, error) {
			return mm.judgeJoint(ctx, m, r, t, core.Opts{Parallelism: parallelism, Enum: en})
		})
	})
}

// judgeJoint computes the verdict of r's test under m from o.Enum in one
// pass with the verdicts of the models it claims, and stores and settles
// theirs. When the pass fails nothing is stored for any claimed model and
// their claims are released: a ctx error is returned as it is, and any
// other error has m judged alone, so the requester sees exactly what a
// one-model judgement gives it.
func (mm *Memo) judgeJoint(ctx context.Context, m *core.Model, r *testRecord, t *litmus.Test, o core.Opts) (*core.Verdict, error) {
	ms := mm.claim(r, m)
	if ms == nil {
		return core.JudgeWith(ctx, m, t, o)
	}
	vs, err := core.JudgeModels(ctx, ms, t, o)
	mm.mu.Lock()
	for k, sm := range ms[1:] {
		j, s := mm.slotLocked(r, sm)
		if err == nil {
			s.verdict.val = vs[k+1]
			mm.settleLocked(r, j)
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

// claim returns m followed by every settled model whose slot in r holds
// no verdict and has none in flight, in model-number order, and marks
// those verdicts as in flight; it returns nil when there is no such model.
// m's own verdict is in flight while its requester judges, so the scan
// passes over m.
func (mm *Memo) claim(r *testRecord, m *core.Model) (ms []*core.Model) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, j := range mm.settled {
		if _, s := mm.slotLocked(r, mm.models[j]); s.verdict.val == nil && !s.verdict.running {
			if ms == nil {
				ms = append(make([]*core.Model, 0, len(mm.settled)+1), m)
			}
			s.verdict.running = true
			ms = append(ms, mm.models[j])
		}
	}
	return ms
}

// slot returns t's record, m's model number and m's slot in the record,
// making what is missing. A *Test the memo has not seen is fingerprinted
// outside mm.mu.
func (mm *Memo) slot(m *core.Model, t *litmus.Test) (*testRecord, int, *modelSlot) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	r := mm.seen[t]
	if r == nil {
		mm.mu.Unlock()
		fp := t.Fingerprint()
		mm.mu.Lock()
		if r = mm.tests[fp]; r == nil {
			r = &testRecord{}
			mm.tests[fp] = r
		}
		mm.seen[t] = r
	}
	i, s := mm.slotLocked(r, m)
	return r, i, s
}

// slotLocked returns m's model number and m's slot in r. It numbers m on
// first sight, and grows r's slots to every numbered model from one slab;
// the caller holds mm.mu.
func (mm *Memo) slotLocked(r *testRecord, m *core.Model) (int, *modelSlot) {
	i := slices.IndexFunc(mm.models, func(k *core.Model) bool { return k.Fingerprint() == m.Fingerprint() })
	if i < 0 {
		i = len(mm.models)
		mm.models = append(mm.models, m)
	}
	if i >= len(r.slots) {
		slab := make([]modelSlot, len(mm.models)-len(r.slots))
		r.slots = slices.Grow(r.slots, len(slab))
		for j := range slab {
			r.slots = append(r.slots, &slab[j])
		}
	}
	return i, r.slots[i]
}

// judgeShared runs judge on r's shared enumeration, preparing it under ctx
// when none is held, then settles model number i's judgement of the test.
// A preparation error is returned without calling judge.
func judgeShared[T any](mm *Memo, ctx context.Context, r *testRecord, i int, t *litmus.Test, judge func(*axiom.Enumeration) (T, error)) (v T, err error) {
	en, err := r.en.get(ctx, &mm.mu, func() (*axiom.Enumeration, error) {
		return axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
	})
	if err == nil {
		v, err = judge(en)
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.settleLocked(r, i)
	return v, err
}

// settleLocked counts model number i as having judged r's test, and
// releases the test's enumeration once every settled model has judged it;
// the caller holds mm.mu.
func (mm *Memo) settleLocked(r *testRecord, i int) {
	if s := r.slots[i]; !s.settled {
		s.settled = true
		r.judged++
		if k, ok := slices.BinarySearch(mm.settled, i); !ok {
			mm.settled = slices.Insert(mm.settled, k, i)
		}
	}
	if r.judged == len(mm.settled) {
		r.en.val = nil
	}
}

// analyse judges t from en on this goroutine (nothing materialises the
// candidate set), collecting the fingerprints of the allowed final states.
// Symmetry pruning keeps the set exact: a representative stands for
// Weight() equivalent executions sharing its final state, and the counts
// come from the verdict, which weighs them.
func analyse(m *core.Model, t *litmus.Test, en *axiom.Enumeration) (*ModelInfo, *core.Verdict, error) {
	allowed := make(map[string]bool)
	l := harness.NewLayout(t, en.Slots())
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
	return &ModelInfo{Allowed: allowed, WeakAllowed: v.Observable}, v, nil
}
