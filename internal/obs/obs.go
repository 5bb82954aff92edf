// Package obs is the pipeline's observability layer: a dependency-free,
// zero-overhead-when-disabled trace collector threaded through parse →
// prepare → enumerate → eval → merge → lookup.
//
// The design centre is the nil *Trace. Every method on Trace and Span is
// nil-safe and a no-op on nil, and FromContext returns nil on a context
// that never saw WithTrace — so instrumented hot paths cost one pointer
// test when tracing is off, and allocate nothing (pinned by no-alloc
// tests in this package and internal/core). Callers opt in per request:
//
//	tr := obs.New(obs.NewID())
//	ctx = obs.NewContext(ctx, tr)
//	v, err := core.JudgeCtx(ctx, model, test, par)
//	fmt.Print(tr.Snapshot().PhaseTable())
//
// A Trace aggregates monotonic per-phase timers and producer counters
// (atomics: the verdict fold's workers enumerate and evaluate
// concurrently), plus a span tree recording the request's structural
// decomposition. Phase timers are attributed exclusively — enumerate
// excludes time spent inside the yield, eval is the compiled-program run,
// merge is folding each verdict into its worker's tally plus combining
// the per-worker tallies (the visit callback, for the serial visitor) —
// so on a serial judge the phase sum is bounded by the wall time. Once
// units fan out, enumerate, eval and merge sum worker time and may exceed
// wall; counters are exact at every parallelism.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one exclusive stage of the judge pipeline. The service
// exports one latency histogram per phase; Snapshot carries one duration
// per phase.
type Phase int

const (
	PhaseParse     Phase = iota // litmus source → *Test
	PhasePrepare                // value-domain fixpoint + path derivation
	PhaseEnumerate              // skeleton assembly + rf/co completion
	PhaseEval                   // compiled .cat program per execution
	PhaseMerge                  // per-worker verdict tallies and their combination
	PhaseLookup                 // cache-tier resolution (service only)
	NumPhases
)

var phaseNames = [NumPhases]string{"parse", "prepare", "enumerate", "eval", "merge", "lookup"}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Counter names one producer-side tally. CtrCandidates/CtrPrunedWeight
// mirror the verdict ledger: candidates counts weighted executions
// (representatives × orbit weight), pruned the weight the symmetry
// reduction skipped, so candidates - pruned = representatives evaluated.
type Counter int

const (
	CtrCombos       Counter = iota // path combinations streamed
	CtrRFChoices                   // candidate rf sources across streamed skeletons
	CtrPrunedWeight                // executions skipped as orbit-equivalent
	CtrMemoHits                    // per-thread path derivations reused by the fixpoint
	CtrCandidates                  // weighted candidate executions produced
	CtrVisited                     // representatives actually yielded
	NumCounters
)

var counterNames = [NumCounters]string{"combos", "rf_choices", "pruned_weight", "memo_hits", "candidates", "visited"}

func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// Trace is one request's collector. The zero value is not useful; use
// New. A nil *Trace is the disabled tracer: every method no-ops.
// All methods are safe for concurrent use.
type Trace struct {
	id       string
	start    time.Time
	phases   [NumPhases]atomic.Int64 // nanoseconds
	counters [NumCounters]atomic.Int64

	mu    sync.Mutex
	roots []*Span
}

// New returns an enabled trace stamped with id (see NewID) and an
// anchored wall clock.
func New(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// Enabled reports whether the trace collects anything. It is the guard
// instrumented code uses before calling time.Now.
func (t *Trace) Enabled() bool { return t != nil }

// ID returns the trace identifier ("" when disabled).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// AddPhase accumulates d into phase p's timer.
func (t *Trace) AddPhase(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t.phases[p].Add(int64(d))
}

// Add accumulates n into counter c.
func (t *Trace) Add(c Counter, n int64) {
	if t == nil {
		return
	}
	t.counters[c].Add(n)
}

// PhaseTime returns phase p's accumulated duration.
func (t *Trace) PhaseTime(p Phase) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.phases[p].Load())
}

// Count returns counter c's value.
func (t *Trace) Count(c Counter) int64 {
	if t == nil {
		return 0
	}
	return t.counters[c].Load()
}

// Roots returns the root spans recorded so far, in start order.
func (t *Trace) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Span is one timed node of a trace's structural tree (request → verdict
// → prepare, …). Spans are created by Trace.StartSpan and closed by
// Finish; children attach via the context returned by StartSpan. A nil
// *Span no-ops.
type Span struct {
	trace  *Trace
	parent *Span
	name   string
	start  time.Time
	durNS  atomic.Int64 // -1 while open

	mu       sync.Mutex
	children []*Span
}

// StartSpan opens a named span under the span carried by ctx (a root
// span when ctx carries none) and returns it with a derived context that
// parents future spans to it. On a nil trace it returns (nil, ctx)
// without allocating.
func (t *Trace) StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	sp := &Span{trace: t, name: name, start: time.Now()}
	sp.durNS.Store(-1)
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil && parent.trace == t {
		sp.parent = parent
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
	} else {
		t.mu.Lock()
		t.roots = append(t.roots, sp)
		t.mu.Unlock()
	}
	return sp, context.WithValue(ctx, spanKey{}, sp)
}

// Finish closes the span; the first call wins, later calls no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.durNS.CompareAndSwap(-1, int64(time.Since(s.start)))
}

// Name returns the span's label ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Trace returns the trace the span belongs to.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// Parent returns the enclosing span (nil for roots).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Finished reports whether Finish has run.
func (s *Span) Finished() bool { return s != nil && s.durNS.Load() >= 0 }

// Duration returns the closed span's duration (0 while open or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if d := s.durNS.Load(); d >= 0 {
		return time.Duration(d)
	}
	return 0
}

// Children returns the span's child spans, in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

type traceKey struct{}
type spanKey struct{}

// NewContext returns ctx carrying tr. A nil tr returns ctx unchanged —
// the disabled path stays allocation-free end to end.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil (the disabled
// tracer) when there is none.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// SpanFromContext returns the innermost span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Snapshot is a point-in-time copy of a trace's timers and counters,
// safe to read after the request keeps mutating (or finishes).
type Snapshot struct {
	ID       string
	Wall     time.Duration // since New
	Phases   [NumPhases]time.Duration
	Counters [NumCounters]int64
}

// Snapshot captures the trace's current state. On a nil trace it
// returns the zero Snapshot.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{ID: t.id, Wall: time.Since(t.start)}
	for p := Phase(0); p < NumPhases; p++ {
		s.Phases[p] = time.Duration(t.phases[p].Load())
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c] = t.counters[c].Load()
	}
	return s
}

// PhaseTable renders the snapshot as the fixed-width table gpuherd
// -trace prints: one row per pipeline phase, a wall row, and a counter
// summary line. The lookup row is elided when zero (it only accrues
// inside gpulitmusd's cache ladder).
func (s Snapshot) PhaseTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", s.ID)
	for p := Phase(0); p < NumPhases; p++ {
		if p == PhaseLookup && s.Phases[p] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %12.3fms\n", p, float64(s.Phases[p])/1e6)
	}
	fmt.Fprintf(&b, "  %-9s %12.3fms\n", "wall", float64(s.Wall)/1e6)
	fmt.Fprintf(&b, "  combos=%d rf_choices=%d candidates=%d visited=%d pruned_weight=%d memo_hits=%d\n",
		s.Counters[CtrCombos], s.Counters[CtrRFChoices], s.Counters[CtrCandidates],
		s.Counters[CtrVisited], s.Counters[CtrPrunedWeight], s.Counters[CtrMemoHits])
	return b.String()
}

var idSeq atomic.Int64

// NewID returns a 16-hex-digit random trace ID (a process-unique
// sequence fallback if the system entropy source fails).
func NewID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("seq-%012x", idSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Campaign progress events (Spec.Sink). Kind values:
const (
	CellStart  = "start"  // emitted before the cell's job runs
	CellFinish = "finish" // after a successful run (Elapsed/Runs/Matches set)
	CellError  = "error"  // after a failed run (Elapsed/Err set)
)

// CellEvent is one campaign cell lifecycle event, delivered to
// campaign.Spec.Sink from the worker that ran the cell (concurrently
// under parallel campaigns).
type CellEvent struct {
	Kind    string        // CellStart, CellFinish or CellError
	Index   int           // cell index into the expanded matrix
	Seed    int64         // the cell's derived seed
	Elapsed time.Duration // job duration (finish/error only)
	Runs    int           // harness iterations (finish only)
	Matches int           // condition matches (finish only)
	Err     string        // error text (error only)
}
