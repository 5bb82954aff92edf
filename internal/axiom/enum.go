package axiom

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Opts bounds the enumeration of candidate executions. A zero field selects
// the corresponding DefaultOpts bound, so callers may set only the bounds
// they care about (e.g. Opts{MaxExecs: 100} defaults the other three).
type Opts struct {
	MaxSteps  int // instruction steps per thread path (loop unrolling bound)
	MaxPaths  int // per-thread symbolic paths
	MaxValues int // values in a location's read domain
	MaxExecs  int // candidate executions

	// Exhaustive disables symmetry pruning: every rf/co completion is
	// produced individually with Weight 1, exactly the pre-pruning producer.
	// The default (false) collapses each orbit of completions — same-value
	// solo writes permuted through rf sources and coherence orders, and
	// unread, non-coherence-last solo writes of any value permuted through
	// coherence orders — into one canonical representative carrying the
	// orbit size as its Execution.Weight. The exhaustive path is retained as the
	// differential oracle: for every test the two modes agree on verdicts,
	// witness content and weighted outcome histograms (pinned by the
	// pruned-vs-exhaustive differential tests).
	Exhaustive bool
}

// DefaultOpts are generous enough for every test in the paper and the
// generated validation corpus.
func DefaultOpts() Opts {
	return Opts{MaxSteps: 256, MaxPaths: 4096, MaxValues: 32, MaxExecs: 1 << 20}
}

// withDefaults fills each zero field from DefaultOpts, preserving the
// fields the caller set. (Replacing the whole struct when MaxSteps was zero
// used to silently discard caller-set MaxPaths/MaxValues/MaxExecs.)
func (o Opts) withDefaults() Opts {
	d := DefaultOpts()
	if o.MaxSteps == 0 {
		o.MaxSteps = d.MaxSteps
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = d.MaxPaths
	}
	if o.MaxValues == 0 {
		o.MaxValues = d.MaxValues
	}
	if o.MaxExecs == 0 {
		o.MaxExecs = d.MaxExecs
	}
	return o
}

// Enumerate builds every candidate execution of the test (Sec. 5.1.2):
// thread bodies are unwound with loads ranging over the per-location value
// domains, then all read-from and coherence choices consistent with the
// chosen values are enumerated. Structural atomicity of RMWs is enforced
// for locations written only by atomics (PTX annuls atomic guarantees when
// plain stores access the same location, Sec. 3.2.3).
//
// Enumerate collects PrepareCtx + StreamCtx into a slice of clones (the
// stream rewrites one execution in place); callers that do not need the
// whole candidate set at once should stream instead. The opts.MaxExecs
// bound is enforced exactly and by Weight (see StreamCtx).
func Enumerate(t *litmus.Test, opts Opts) ([]*Execution, error) {
	ctx := context.Background()
	en, err := PrepareCtx(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	var execs []*Execution
	if err := en.StreamCtx(ctx, func(x *Execution) error {
		execs = append(execs, x.Clone())
		return nil
	}); err != nil {
		return nil, err
	}
	return execs, nil
}

// Enumeration is the prepared producer state for one test: the per-thread
// symbolic paths (derived once, with the value-domain fixpoint memoizing
// unchanged threads across iterations) plus the per-test constants every
// path combination shares. It splits candidate production into independent
// path combinations so callers can stream them serially (StreamCtx, the
// order-exact path) or fan combinations out across workers (StreamCombo
// with one Assembler per worker).
//
// An Enumeration is immutable after Prepare and safe for concurrent
// StreamCombo calls with distinct Assemblers. Nothing in it depends on a
// memory model, so one preparation serves every model a test is judged
// under; Bind gives each request its own view of it.
type Enumeration struct {
	test   *litmus.Test
	opts   Opts
	slots  *litmus.Slots // the test's final-state slots
	init   []int64       // per location slot: the initial value
	paths  [][]ThreadPath
	combos int
	dom    [][]int64 // per location slot: the read domain, ascending
	// tracer is the streaming request's obs collector: captured at
	// PrepareCtx from the context, or rebound by Bind (nil — every method
	// a no-op — when untraced). StreamCombo has no context parameter, so
	// production-side timers and counters flow through here.
	tracer *obs.Trace
}

// Prepare derives the per-thread symbolic paths of the test — the
// value-domain fixpoint of Sec. 5.1.2 — once, and returns the reusable
// producer state. Equivalent to PrepareCtx with the background context.
func Prepare(t *litmus.Test, opts Opts) (*Enumeration, error) {
	return PrepareCtx(context.Background(), t, opts)
}

// PrepareCtx is Prepare under a context: cancellation is checked between
// fixpoint iterations, so an abandoned caller stops paying for path
// derivation promptly. When ctx carries an obs trace, the fixpoint's
// time accrues to PhasePrepare and memoized path reuses count into
// CtrMemoHits; the trace rides on the returned Enumeration for the
// production phase until Bind rebinds it.
func PrepareCtx(ctx context.Context, t *litmus.Test, opts Opts) (*Enumeration, error) {
	tr := obs.FromContext(ctx)
	e := &enumerator{test: t, opts: opts.withDefaults(), ctx: ctx, tracer: tr}
	if !tr.Enabled() {
		return e.prepare()
	}
	t0 := time.Now()
	en, err := e.prepare()
	tr.AddPhase(obs.PhasePrepare, time.Since(t0))
	if en != nil {
		en.tracer = tr
	}
	return en, err
}

// Bind returns the enumeration as streamed for t under ctx. t must have
// the content of the prepared test (an equal Fingerprint), but may carry
// another name: executions point at t and errors name it. Production
// counters and phases go to ctx's obs trace, not to the preparer's. The
// receiver is unchanged, so one preparation can serve concurrent requests
// each through its own binding; when en is already bound to t and ctx's
// trace, Bind returns en itself.
func (en *Enumeration) Bind(ctx context.Context, t *litmus.Test) *Enumeration {
	tr := obs.FromContext(ctx)
	if en.test == t && en.tracer == tr {
		return en
	}
	b := *en
	b.test, b.tracer = t, tr
	return &b
}

// Combos returns the number of path combinations: the size of the cartesian
// product of the per-thread path sets. Combination indices [0, Combos())
// stream in exactly Enumerate's order (thread 0's path choice is the most
// significant digit).
func (en *Enumeration) Combos() int { return en.combos }

// Paths returns thread tid's symbolic paths at the end of the fixpoint:
// every way the thread runs with each load ranging over its read domain.
// Each candidate execution runs one path per thread; a path whose reads
// no write justifies runs in none. The slices are the enumeration's own:
// callers must not modify them.
func (en *Enumeration) Paths(tid int) []ThreadPath { return en.paths[tid] }

// Opts returns the (defaulted) bounds the enumeration was prepared with.
func (en *Enumeration) Opts() Opts { return en.opts }

// Slots returns the resolution every Execution.Final is laid out over.
func (en *Enumeration) Slots() *litmus.Slots { return en.slots }

// Test returns the test the enumeration was prepared for.
func (en *Enumeration) Test() *litmus.Test { return en.test }

// BoundError returns the exact error the enumeration reports when more than
// MaxExecs candidate executions are produced. Callers that drive
// StreamCombo themselves (the parallel fold in internal/core) enforce the
// bound on the summed weight of the executions they check and must fail
// with the same error the serial stream would have produced.
func (en *Enumeration) BoundError() error {
	return fmt.Errorf("axiom: more than %d candidate executions for %s", en.opts.MaxExecs, en.test.Name)
}

// StreamCtx streams every candidate execution in enumeration order: path
// combinations ascending, rf/co completions within each combination in
// their canonical order. The MaxExecs bound is enforced exactly — by
// Execution.Weight, so pruned and exhaustive enumerations fail on the same
// totals — and ctx is checked per combination and per yielded execution.
// As with StreamCombo, the yielded execution is valid only during the
// call: keep its Clone. The stream borrows its Assembler from the pool
// (BorrowAssembler) and returns it when done.
func (en *Enumeration) StreamCtx(ctx context.Context, yield func(*Execution) error) error {
	a := BorrowAssembler()
	defer ReturnAssembler(a)
	count := 0
	emit := func(x *Execution) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := x.Weight()
		if count+w > en.opts.MaxExecs {
			return en.BoundError()
		}
		count += w
		return yield(x)
	}
	for c := 0; c < en.combos; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := en.StreamCombo(c, a, emit); err != nil {
			return err
		}
	}
	return nil
}

// PathEvent is an event of one thread path before global assembly. Its
// dependency lists and RMWRead index into the same path's Events.
type PathEvent struct {
	Kind     Kind
	Loc      ptx.Sym
	Val      int64
	CacheOp  ptx.CacheOp
	Volatile bool
	Atomic   bool
	Slot     int32     // Loc's index in Enumeration.Slots().Locs(); -1 for fences
	Scope    ptx.Scope // fences only
	Instr    int       // index of the originating instruction
	AddrDeps []int     // indices of the loads the address derives from
	DataDeps []int
	CtrlDeps []int
	RMWRead  int // for atomic writes: index of the paired read, else -1
}

// ThreadPath is one complete symbolic execution of a thread: its events in
// program order and its final registers in Slots.Regs order (address-valued
// registers are absent, as they are from every final state).
type ThreadPath struct {
	Events []PathEvent
	Regs   []litmus.SlotValue
}

// regVal is a register's value during path execution: a number, or the
// address of a location (base is 1 + the location's slot), with the loads
// that tainted it. present marks a register declared or assigned on the
// path; only those reach the final state.
type regVal struct {
	n       int64
	base    int32
	present bool
	taints  taintSet
}

// taintSet is a set of event indices of one path: event i < 64 is bit i
// of w, event 64(k+1)+i is bit i of the scratch's spill word off+k, for
// k < n. Spill words are never changed once written, so copies of a set
// share them.
type taintSet struct {
	w      uint64
	off, n int32
}

// stepEvent is a PathEvent under construction, its location a slot. On
// the trail its dependency lists are taint sets; once its path completes,
// they are nAddr, nData and nCtrl entries of the scratch's deps.
type stepEvent struct {
	kind                Kind
	loc                 int32 // -1 for fences
	val                 int64
	cacheOp             ptx.CacheOp
	volatile, atomic    bool
	scope               ptx.Scope
	instr, rmwRead      int
	addr, data, ctrl    taintSet
	nAddr, nData, nCtrl int32
}

// frame is the running path's position, or a branch not yet taken: the
// access at pc reading choice, taken with the trail and the spill words
// cut back to their lengths at the branch and the registers restored from
// the frame's snapshot.
type frame struct {
	pc, steps    int
	ctrl         taintSet // the taints of the guarded branches so far
	trail, spill int
	loc          int32
	choice       int64
	addr, cdep   taintSet // the access's address and control taints
}

// prepScratch is the fixpoint's working storage, reused across threads
// and iterations and, through a pool, across preparations. Nothing it
// stores holds a pointer, so a pooled scratch keeps nothing of a test
// alive.
type prepScratch struct {
	regs   []regVal // the running path's registers, one per Slots.Regs slot
	saved  []regVal // a register snapshot per frame
	frames []frame
	trail  []stepEvent // the running path's events
	spill  []uint64
	// The completed paths: their events, dependency lists and final
	// registers, concatenated; ends[i] is path i's end in out.
	out    []stepEvent
	deps   []int
	finals []litmus.SlotValue
	ends   []int
	// vers holds each location slot's domain version, then per thread the
	// versions its last derivation read (-1: not read); derived marks the
	// threads derived so far.
	vers    []int
	derived []bool
}

var scratches = sync.Pool{New: func() any { return new(prepScratch) }}

// union returns a ∪ b, reusing a or b when one holds the other.
func (s *prepScratch) union(a, b taintSet) taintSet {
	switch {
	case b.n == 0 && b.w&^a.w == 0:
		return a
	case a.n == 0 && a.w&^b.w == 0:
		return b
	case a.n == 0 && b.n == 0:
		return taintSet{w: a.w | b.w}
	}
	if a.n < b.n {
		a, b = b, a
	}
	off := int32(len(s.spill))
	s.spill = append(s.spill, s.spill[a.off:a.off+a.n]...)
	for k, w := range s.spill[b.off : b.off+b.n] {
		s.spill[off+int32(k)] |= w
	}
	return taintSet{w: a.w | b.w, off: off, n: a.n}
}

// single returns {i}.
func (s *prepScratch) single(i int) taintSet {
	if i < 64 {
		return taintSet{w: 1 << i}
	}
	n := i / 64
	off := len(s.spill)
	s.spill = append(s.spill, make([]uint64, n)...)
	s.spill[off+n-1] = 1 << (i % 64)
	return taintSet{off: int32(off), n: int32(n)}
}

// appendTaints appends t's members to deps in ascending order and returns
// how many it appended.
func (s *prepScratch) appendTaints(t taintSet) int32 {
	n := len(s.deps)
	s.deps = appendBits(s.deps, t.w, 0)
	for k, w := range s.spill[t.off : t.off+t.n] {
		s.deps = appendBits(s.deps, w, 64*(k+1))
	}
	return int32(len(s.deps) - n)
}

// appendBits appends base+i for every set bit i of w, ascending.
func appendBits(dst []int, w uint64, base int) []int {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, base+bits.TrailingZeros64(w))
	}
	return dst
}

// push records a branch not yet taken, with a snapshot of the registers.
func (s *prepScratch) push(f frame) {
	s.frames = append(s.frames, f)
	s.saved = append(s.saved, s.regs...)
}

// finish records the running path as complete.
func (s *prepScratch) finish() {
	for _, ev := range s.trail {
		ev.nAddr = s.appendTaints(ev.addr)
		ev.nData = s.appendTaints(ev.data)
		ev.nCtrl = s.appendTaints(ev.ctrl)
		s.out = append(s.out, ev)
	}
	for _, rv := range s.regs {
		var v litmus.SlotValue
		if rv.present && rv.base == 0 {
			v = litmus.SlotValue{Val: rv.n, Present: true}
		}
		s.finals = append(s.finals, v)
	}
	s.ends = append(s.ends, len(s.out))
}

// paths copies the completed paths out: one slab each for their events,
// final registers and dependency lists, each path's share capped so that
// an append to it cannot reach a neighbour's.
func (s *prepScratch) paths(locs []ptx.Sym) []ThreadPath {
	evs := make([]PathEvent, len(s.out))
	regs := make([]litmus.SlotValue, len(s.finals))
	copy(regs, s.finals)
	var deps []int
	if len(s.deps) > 0 {
		deps = make([]int, len(s.deps))
		copy(deps, s.deps)
	}
	take := func(n int32) []int {
		if n == 0 {
			return nil
		}
		d := deps[:n:n]
		deps = deps[n:]
		return d
	}
	ps := make([]ThreadPath, len(s.ends))
	nr := len(s.regs)
	start := 0
	for i, end := range s.ends {
		for j, ev := range s.out[start:end] {
			pe := PathEvent{
				Kind: ev.kind, Val: ev.val, CacheOp: ev.cacheOp, Volatile: ev.volatile, Atomic: ev.atomic,
				Slot: ev.loc, Scope: ev.scope, Instr: ev.instr, RMWRead: ev.rmwRead,
			}
			if ev.loc >= 0 {
				pe.Loc = locs[ev.loc]
			}
			pe.AddrDeps, pe.DataDeps, pe.CtrlDeps = take(ev.nAddr), take(ev.nData), take(ev.nCtrl)
			evs[start+j] = pe
		}
		if end > start {
			ps[i].Events = evs[start:end:end]
		}
		ps[i].Regs = regs[i*nr : (i+1)*nr : (i+1)*nr]
		start = end
	}
	return ps
}

type enumerator struct {
	test  *litmus.Test
	opts  Opts
	ctx   context.Context
	slots *litmus.Slots
	// dom holds each location slot's read domain, ascending. Domains grow
	// only between derivations, so a derivation reads them in place.
	dom [][]int64
	s   *prepScratch
	// names and read belong to the thread being derived: its registers in
	// slot order, and the domain version each location's read observed.
	names []ptx.Reg
	read  []int
	// noMemo disables the cross-iteration path memo; the differential test
	// pins memoized derivation against the always-re-derive fixpoint.
	noMemo bool
	// tracer counts memo hits (nil when untraced).
	tracer *obs.Trace
}

// domainRoom is how many values each read domain holds before it needs
// storage of its own.
const domainRoom = 4

// unchanged reports whether every location thread tid's last derivation
// read still has the domain version it observed: while they do,
// re-deriving the thread would replay the exact same symbolic execution,
// so its paths are reused as-is.
func (e *enumerator) unchanged(tid int) bool {
	nl := len(e.dom)
	ver, read := e.s.vers[:nl], e.s.vers[nl*(tid+1):nl*(tid+2)]
	for l, v := range read {
		if v >= 0 && ver[l] != v {
			return false
		}
	}
	return true
}

// prepare runs the value-domain fixpoint with per-thread path memoization:
// seed the read domains with initial values, then iterate — derive paths
// for every thread whose observed domains grew (reusing the previous
// derivation otherwise), add every stored value to the domain of its
// location — until stable. Memoization cannot change the result: a thread's
// paths are a pure function of the domains of the locations it reads, so a
// thread is re-derived exactly when a re-derivation could differ.
func (e *enumerator) prepare() (*Enumeration, error) {
	e.slots = litmus.NewSlots(e.test)
	locs := e.slots.Locs()
	nl, nt := len(locs), len(e.test.Threads)
	e.s = scratches.Get().(*prepScratch)
	defer scratches.Put(e.s)
	e.s.vers = resize(e.s.vers, nl*(nt+1))
	clear(e.s.vers[:nl])
	e.s.derived = resize(e.s.derived, nt)
	clear(e.s.derived)
	// The initial values and the domains share one slab: each domain
	// starts as its location's initial value, with room to grow in place.
	slab := make([]int64, nl*(1+domainRoom))
	init := slab[:nl:nl]
	e.dom = make([][]int64, nl)
	for i, loc := range locs {
		init[i] = e.test.InitOf(loc)
		d := slab[nl+i*domainRoom:]
		e.dom[i] = append(d[:0:domainRoom], init[i])
	}
	// A value read in a real execution is grounded in a chain of writes of
	// that execution, so chains are no longer than the static write count:
	// iterating that many times discovers every realizable value. Tests
	// whose stores compute on loaded values (e.g. dlb-mp's tail increment)
	// would otherwise grow domains forever; reads of unjustifiable values
	// are discarded during rf enumeration.
	maxIters := 2
	for _, th := range e.test.Threads {
		for _, inst := range th.Prog {
			if _, ok := inst.(ptx.St); ok {
				maxIters++
			}
			if ptx.IsAtomic(inst) {
				maxIters++
			}
		}
	}
	paths := make([][]ThreadPath, nt)
	for iter := 0; ; iter++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		grew := false
		for tid := range e.test.Threads {
			if !e.noMemo && e.s.derived[tid] && e.unchanged(tid) {
				// The thread's paths are still valid, and its write values
				// are already in the domains (added when it was derived).
				e.tracer.Add(obs.CtrMemoHits, 1)
				continue
			}
			ps, err := e.threadPaths(tid)
			if err != nil {
				return nil, err
			}
			paths[tid] = ps
			e.s.derived[tid] = true
			for _, ev := range e.s.out { // every path's events, in order
				if ev.kind != KWrite {
					continue
				}
				added, err := e.addValue(ev.loc, ev.val)
				if err != nil {
					return nil, err
				}
				grew = grew || added
			}
		}
		if !grew || iter >= maxIters {
			break
		}
	}
	combos := 1
	for _, ps := range paths {
		switch {
		case len(ps) == 0:
			combos = 0
		case combos > math.MaxInt/len(ps):
			combos = math.MaxInt // saturate: such a product could never be streamed anyway
		default:
			combos *= len(ps)
		}
	}
	return &Enumeration{test: e.test, opts: e.opts, slots: e.slots, init: init, dom: e.dom, paths: paths, combos: combos}, nil
}

// addValue adds v to location slot loc's read domain, reporting whether
// it was new.
func (e *enumerator) addValue(loc int32, v int64) (bool, error) {
	d := e.dom[loc]
	i, found := slices.BinarySearch(d, v)
	if found {
		return false, nil
	}
	if len(d) >= e.opts.MaxValues {
		return false, fmt.Errorf("axiom: value domain for %s exceeds %d", e.slots.Locs()[loc], e.opts.MaxValues)
	}
	e.dom[loc] = slices.Insert(d, i, v)
	e.s.vers[loc]++
	return true, nil
}

// threadPaths symbolically executes thread tid depth first, branching at
// each load over the location's read domain. The running path's events
// are the scratch's trail. A branch not yet taken is a frame; taking it
// cuts the trail back to the branch, so the events before it are shared,
// not copied.
func (e *enumerator) threadPaths(tid int) ([]ThreadPath, error) {
	s := e.s
	prog := e.test.Threads[tid].Prog
	e.names = e.slots.Regs(tid)
	nl := len(e.dom)
	e.read = s.vers[nl*(tid+1) : nl*(tid+2)]
	for i := range e.read {
		e.read[i] = -1
	}
	s.regs = resize(s.regs, len(e.names))
	clear(s.regs)
	s.saved, s.frames, s.trail, s.spill = s.saved[:0], s.frames[:0], s.trail[:0], s.spill[:0]
	s.out, s.deps, s.finals, s.ends = s.out[:0], s.deps[:0], s.finals[:0], s.ends[:0]
	for _, d := range e.test.Decls {
		if d.Thread != tid {
			continue
		}
		rv := regVal{present: true}
		if d.Loc != "" {
			rv.base = e.base(d.Loc)
		}
		s.regs[e.reg(d.Reg)] = rv
	}

	var f frame
	for {
		if f.steps > e.opts.MaxSteps {
			return nil, fmt.Errorf("axiom: thread %d of %s exceeds %d steps (unbounded loop?)", tid, e.test.Name, e.opts.MaxSteps)
		}
		if f.pc >= len(prog) {
			s.finish()
			if len(s.ends) > e.opts.MaxPaths {
				return nil, fmt.Errorf("axiom: thread %d of %s exceeds %d paths", tid, e.test.Name, e.opts.MaxPaths)
			}
			if len(s.frames) == 0 {
				break
			}
			b := s.frames[len(s.frames)-1]
			s.frames = s.frames[:len(s.frames)-1]
			n := len(s.saved) - len(s.regs)
			copy(s.regs, s.saved[n:])
			s.saved = s.saved[:n]
			s.trail, s.spill = s.trail[:b.trail], s.spill[:b.spill]
			f = frame{pc: b.pc, steps: b.steps, ctrl: b.ctrl}
			if err := e.access(prog[f.pc], &f, b.loc, b.choice, b.addr, b.cdep); err != nil {
				return nil, err
			}
			continue
		}
		inst := prog[f.pc]
		f.steps++

		// Guard evaluation.
		var guard taintSet
		if g := inst.Pred(); g != nil {
			gv := s.regs[e.reg(g.Reg)]
			guard = gv.taints
			if hold := (gv.n != 0) != g.Neg; !hold {
				// An untaken guarded branch still seeds control
				// dependencies for later events.
				if _, isBra := inst.(ptx.Bra); isBra {
					f.ctrl = s.union(f.ctrl, guard)
				}
				f.pc++
				continue
			}
		}

		switch v := inst.(type) {
		case ptx.LabelDef: // no effect

		case ptx.Bra:
			target, ok := label(prog, v.Target)
			if !ok {
				return nil, fmt.Errorf("axiom: undefined label %q", v.Target)
			}
			f.ctrl = s.union(f.ctrl, guard)
			f.pc = target
			continue

		case ptx.Membar:
			s.trail = append(s.trail, stepEvent{kind: KFence, loc: -1, scope: v.Scope, instr: f.pc, rmwRead: -1, ctrl: s.union(f.ctrl, guard)})

		case ptx.Mov:
			sv, err := e.eval(v.Src)
			if err != nil {
				return nil, err
			}
			e.set(v.Dst, sv)

		case ptx.Cvt:
			sv, err := e.eval(v.Src)
			if err != nil {
				return nil, err
			}
			e.set(v.Dst, sv)

		case ptx.Add:
			a, b, err := e.eval2(v.A, v.B)
			if err != nil {
				return nil, err
			}
			res := regVal{n: a.n + b.n, base: a.base, taints: s.union(a.taints, b.taints)}
			if res.base == 0 {
				res.base = b.base
			}
			e.set(v.Dst, res)

		case ptx.And:
			a, b, err := e.eval2(v.A, v.B)
			if err != nil {
				return nil, err
			}
			e.set(v.Dst, regVal{n: a.n & b.n, taints: s.union(a.taints, b.taints)})

		case ptx.Xor:
			a, b, err := e.eval2(v.A, v.B)
			if err != nil {
				return nil, err
			}
			e.set(v.Dst, regVal{n: a.n ^ b.n, taints: s.union(a.taints, b.taints)})

		case ptx.SetpEq:
			a, b, err := e.eval2(v.A, v.B)
			if err != nil {
				return nil, err
			}
			res := regVal{taints: s.union(a.taints, b.taints)}
			if a.n == b.n && a.base == b.base {
				res.n = 1
			}
			e.set(v.P, res)

		case ptx.Ld, ptx.AtomCAS, ptx.AtomExch, ptx.AtomAdd, ptx.AtomInc:
			loc, addr, err := e.resolveAddr(tid, ptx.AddrOf(inst))
			if err != nil {
				return nil, err
			}
			// Branch over the read domain: run the first choice, and leave
			// a frame for each other one.
			vals := e.domainValues(loc)
			cdep := s.union(f.ctrl, guard)
			for _, choice := range vals[1:] {
				s.push(frame{pc: f.pc, steps: f.steps, ctrl: f.ctrl, trail: len(s.trail), spill: len(s.spill), loc: loc, choice: choice, addr: addr, cdep: cdep})
			}
			if err := e.access(inst, &f, loc, vals[0], addr, cdep); err != nil {
				return nil, err
			}
			continue

		case ptx.St:
			loc, addr, err := e.resolveAddr(tid, v.Addr)
			if err != nil {
				return nil, err
			}
			sv, err := e.eval(v.Src)
			if err != nil {
				return nil, err
			}
			s.trail = append(s.trail, stepEvent{
				kind: KWrite, loc: loc, val: sv.n, cacheOp: v.CacheOp, volatile: v.Volatile, instr: f.pc, rmwRead: -1,
				addr: addr, data: sv.taints, ctrl: s.union(f.ctrl, guard),
			})

		default:
			return nil, fmt.Errorf("axiom: unsupported instruction %v", inst)
		}
		f.pc++
	}
	return s.paths(e.slots.Locs()), nil
}

// access runs the memory access inst at f.pc, a load or an RMW, reading
// old from location slot loc, and moves f past it.
func (e *enumerator) access(inst ptx.Instr, f *frame, loc int32, old int64, addr, cdep taintSet) error {
	s := e.s
	ri := len(s.trail)
	read := s.single(ri)
	ev := stepEvent{kind: KRead, loc: loc, val: old, instr: f.pc, rmwRead: -1, addr: addr, ctrl: cdep}
	if v, ok := inst.(ptx.Ld); ok {
		ev.cacheOp, ev.volatile = v.CacheOp, v.Volatile
		s.trail = append(s.trail, ev)
		e.set(v.Dst, regVal{n: old, taints: read})
		f.pc++
		return nil
	}
	ev.atomic = true
	s.trail = append(s.trail, ev)
	var dst ptx.Reg
	write := true
	var val int64
	var data taintSet
	switch v := inst.(type) {
	case ptx.AtomCAS:
		dst = v.Dst
		cmp, nw, err := e.eval2(v.Cmp, v.New)
		if err != nil {
			return err
		}
		write, val, data = old == cmp.n, nw.n, s.union(nw.taints, cmp.taints)
	case ptx.AtomExch:
		dst = v.Dst
		sv, err := e.eval(v.Src)
		if err != nil {
			return err
		}
		val, data = sv.n, sv.taints
	case ptx.AtomAdd:
		dst = v.Dst
		sv, err := e.eval(v.Src)
		if err != nil {
			return err
		}
		val, data = old+sv.n, s.union(sv.taints, read)
	case ptx.AtomInc:
		dst = v.Dst
		bound, err := e.eval(v.Bound)
		if err != nil {
			return err
		}
		val, data = old+1, read
		if old >= bound.n {
			val = 0
		}
	default:
		return fmt.Errorf("axiom: not an RMW: %v", inst)
	}
	if write {
		s.trail = append(s.trail, stepEvent{
			kind: KWrite, loc: loc, val: val, atomic: true, instr: f.pc, rmwRead: ri,
			addr: addr, data: data, ctrl: cdep,
		})
	}
	e.set(dst, regVal{n: old, taints: read})
	f.pc++
	return nil
}

// reg returns register r's index in the thread's register file; Slots
// gives a slot to every register a thread names.
func (e *enumerator) reg(r ptx.Reg) int { return slices.Index(e.names, r) }

// base returns the register base of an address of loc.
func (e *enumerator) base(loc ptx.Sym) int32 { return int32(e.slots.Loc(loc)) + 1 }

// set assigns v to register r.
func (e *enumerator) set(r ptx.Reg, v regVal) {
	v.present = true
	e.s.regs[e.reg(r)] = v
}

func (e *enumerator) eval(o ptx.Operand) (regVal, error) {
	switch v := o.(type) {
	case ptx.Imm:
		return regVal{n: int64(v)}, nil
	case ptx.Reg:
		return e.s.regs[e.reg(v)], nil
	case ptx.Sym:
		return regVal{base: e.base(v)}, nil
	}
	return regVal{}, fmt.Errorf("axiom: bad operand %v", o)
}

// eval2 evaluates two operands, a first.
func (e *enumerator) eval2(a, b ptx.Operand) (regVal, regVal, error) {
	av, err := e.eval(a)
	if err != nil {
		return regVal{}, regVal{}, err
	}
	bv, err := e.eval(b)
	return av, bv, err
}

// resolveAddr returns the location slot an address operand names and the
// taints of the address.
func (e *enumerator) resolveAddr(tid int, o ptx.Operand) (int32, taintSet, error) {
	switch v := o.(type) {
	case ptx.Sym:
		return e.base(v) - 1, taintSet{}, nil
	case ptx.Reg:
		rv := e.s.regs[e.reg(v)]
		if rv.base == 0 {
			return 0, taintSet{}, fmt.Errorf("axiom: thread %d: register %s used as address but not location-valued", tid, v)
		}
		if rv.n != 0 {
			return 0, taintSet{}, fmt.Errorf("axiom: thread %d: address %s+%d out of the modelled cell", tid, e.slots.Locs()[rv.base-1], rv.n)
		}
		return rv.base - 1, rv.taints, nil
	}
	return 0, taintSet{}, fmt.Errorf("axiom: bad address %v", o)
}

// domainValues returns the read domain of location slot loc, logging the
// observed domain version for the path memo.
func (e *enumerator) domainValues(loc int32) []int64 {
	e.read[loc] = e.s.vers[loc]
	return e.dom[loc]
}

// label returns the index of prog's last definition of name, the one
// Program.Labels maps it to.
func label(prog ptx.Program, name string) (int, bool) {
	for i := len(prog) - 1; i >= 0; i-- {
		if l, ok := prog[i].(ptx.LabelDef); ok && l.Name == name {
			return i, true
		}
	}
	return 0, false
}
