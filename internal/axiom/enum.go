package axiom

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
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
	// orbit size in Execution.Mult. The exhaustive path is retained as the
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
	// domain holds the read domains Domain returns.
	domain map[ptx.Sym]map[int64]bool
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
// time accrues to PhasePrepare (under a "prepare" span) and memoized
// path reuses count into CtrMemoHits; the trace rides on the returned
// Enumeration for the production phase until Bind rebinds it.
func PrepareCtx(ctx context.Context, t *litmus.Test, opts Opts) (*Enumeration, error) {
	tr := obs.FromContext(ctx)
	e := &enumerator{test: t, opts: opts.withDefaults(), ctx: ctx, tracer: tr}
	if !tr.Enabled() {
		return e.prepare()
	}
	sp, _ := tr.StartSpan(ctx, "prepare")
	t0 := time.Now()
	en, err := e.prepare()
	tr.AddPhase(obs.PhasePrepare, time.Since(t0))
	sp.Finish()
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

// Domain returns loc's read domain at the end of the value-domain
// fixpoint, in ascending order: it holds every value a candidate execution
// reads from loc or writes to it.
func (en *Enumeration) Domain(loc ptx.Sym) []int64 { return sortedValues(en.domain[loc]) }

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

// val is a register value during path execution: either a number or the
// address of a location (base != ""), with the set of loads that tainted
// it.
type regVal struct {
	n      int64
	base   ptx.Sym
	taints map[int]bool
}

func mergeTaints(a, b map[int]bool) map[int]bool {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	m := make(map[int]bool, len(a)+len(b))
	for t := range a {
		m[t] = true
	}
	for t := range b {
		m[t] = true
	}
	return m
}

func taintList(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

type enumerator struct {
	test   *litmus.Test
	opts   Opts
	ctx    context.Context
	slots  *litmus.Slots
	domain map[ptx.Sym]map[int64]bool
	// domVer counts the growth of each location's domain; the path memo
	// compares observed versions against it to decide whether a thread's
	// paths can be reused across fixpoint iterations.
	domVer map[ptx.Sym]int
	// reads logs the domain versions the current threadPaths derivation
	// observed (per location read); nil outside a derivation.
	reads map[ptx.Sym]int
	// noMemo disables the cross-iteration path memo; the differential test
	// pins memoized derivation against the always-re-derive fixpoint.
	noMemo bool
	// tracer counts memo hits (nil when untraced).
	tracer *obs.Trace
}

// pathDeps records what one thread's memoized paths depend on: the domain
// version of every location the derivation read. While those versions are
// unchanged, re-deriving the thread would replay the exact same symbolic
// execution, so the paths are reused as-is.
type pathDeps struct {
	derived bool
	reads   map[ptx.Sym]int
}

// unchanged reports whether every location the derivation read still has
// the domain version it observed.
func (e *enumerator) unchanged(reads map[ptx.Sym]int) bool {
	for loc, v := range reads {
		if e.domVer[loc] != v {
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
	init := make([]int64, len(locs))
	e.domain = make(map[ptx.Sym]map[int64]bool, len(locs))
	e.domVer = make(map[ptx.Sym]int, len(locs))
	for i, loc := range locs {
		init[i] = e.test.InitOf(loc)
		e.domain[loc] = map[int64]bool{init[i]: true}
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
	nt := len(e.test.Threads)
	paths := make([][]ThreadPath, nt)
	memo := make([]pathDeps, nt)
	for iter := 0; ; iter++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		grew := false
		for tid := range e.test.Threads {
			if !e.noMemo && memo[tid].derived && e.unchanged(memo[tid].reads) {
				// The thread's paths are still valid, and its write values
				// are already in the domains (added when it was derived).
				e.tracer.Add(obs.CtrMemoHits, 1)
				continue
			}
			e.reads = make(map[ptx.Sym]int)
			ps, err := e.threadPaths(tid)
			if err != nil {
				return nil, err
			}
			paths[tid] = ps
			memo[tid] = pathDeps{derived: true, reads: e.reads}
			e.reads = nil
			for _, p := range ps {
				for _, ev := range p.Events {
					if ev.Kind != KWrite {
						continue
					}
					d := e.domain[ev.Loc]
					if !d[ev.Val] {
						if len(d) >= e.opts.MaxValues {
							return nil, fmt.Errorf("axiom: value domain for %s exceeds %d", ev.Loc, e.opts.MaxValues)
						}
						d[ev.Val] = true
						e.domVer[ev.Loc]++
						grew = true
					}
				}
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
	return &Enumeration{test: e.test, opts: e.opts, slots: e.slots, init: init, domain: e.domain, paths: paths, combos: combos}, nil
}

// threadPaths symbolically executes thread tid, branching at each load over
// the location's read domain.
func (e *enumerator) threadPaths(tid int) ([]ThreadPath, error) {
	prog := e.test.Threads[tid].Prog
	labels := prog.Labels()
	names := e.slots.Regs(tid)
	var out []ThreadPath

	initRegs := func() map[ptx.Reg]regVal {
		regs := make(map[ptx.Reg]regVal)
		for _, d := range e.test.Decls {
			if d.Thread != tid {
				continue
			}
			if d.Loc != "" {
				regs[d.Reg] = regVal{base: d.Loc}
			} else {
				regs[d.Reg] = regVal{}
			}
		}
		return regs
	}

	cloneRegs := func(regs map[ptx.Reg]regVal) map[ptx.Reg]regVal {
		c := make(map[ptx.Reg]regVal, len(regs))
		for k, v := range regs {
			c[k] = v
		}
		return c
	}
	cloneEvents := func(evs []PathEvent) []PathEvent {
		c := make([]PathEvent, len(evs))
		copy(c, evs)
		return c
	}

	stack := []enumFrame{{pc: 0, regs: initRegs(), ctrl: nil}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

	step:
		for {
			if f.steps > e.opts.MaxSteps {
				return nil, fmt.Errorf("axiom: thread %d of %s exceeds %d steps (unbounded loop?)", tid, e.test.Name, e.opts.MaxSteps)
			}
			if f.pc >= len(prog) {
				finals := make([]litmus.SlotValue, len(names))
				for k, r := range names {
					if v, ok := f.regs[r]; ok && v.base == "" {
						finals[k] = litmus.SlotValue{Val: v.n, Present: true}
					}
				}
				out = append(out, ThreadPath{Events: f.events, Regs: finals})
				if len(out) > e.opts.MaxPaths {
					return nil, fmt.Errorf("axiom: thread %d of %s exceeds %d paths", tid, e.test.Name, e.opts.MaxPaths)
				}
				break step
			}
			inst := prog[f.pc]
			f.steps++

			// Guard evaluation.
			guardTaints := map[int]bool(nil)
			if g := inst.Pred(); g != nil {
				gv := f.regs[g.Reg]
				guardTaints = gv.taints
				hold := gv.n != 0
				if g.Neg {
					hold = !hold
				}
				if !hold {
					// An untaken guarded branch still seeds control
					// dependencies for later events.
					if _, isBra := inst.(ptx.Bra); isBra {
						f.ctrl = mergeTaints(f.ctrl, guardTaints)
					}
					f.pc++
					continue
				}
			}

			eval := func(o ptx.Operand) (regVal, error) {
				switch v := o.(type) {
				case ptx.Imm:
					return regVal{n: int64(v)}, nil
				case ptx.Reg:
					return f.regs[v], nil
				case ptx.Sym:
					return regVal{base: v}, nil
				}
				return regVal{}, fmt.Errorf("axiom: bad operand %v", o)
			}
			resolveAddr := func(o ptx.Operand) (ptx.Sym, map[int]bool, error) {
				switch v := o.(type) {
				case ptx.Sym:
					return v, nil, nil
				case ptx.Reg:
					rv := f.regs[v]
					if rv.base == "" {
						return "", nil, fmt.Errorf("axiom: thread %d: register %s used as address but not location-valued", tid, v)
					}
					if rv.n != 0 {
						return "", nil, fmt.Errorf("axiom: thread %d: address %s+%d out of the modelled cell", tid, rv.base, rv.n)
					}
					return rv.base, rv.taints, nil
				}
				return "", nil, fmt.Errorf("axiom: bad address %v", o)
			}
			ctrlDeps := func() []int { return taintList(mergeTaints(f.ctrl, guardTaints)) }

			switch v := inst.(type) {
			case ptx.LabelDef:
				f.pc++
				continue

			case ptx.Bra:
				target, ok := labels[v.Target]
				if !ok {
					return nil, fmt.Errorf("axiom: undefined label %q", v.Target)
				}
				f.ctrl = mergeTaints(f.ctrl, guardTaints)
				f.pc = target
				continue

			case ptx.Membar:
				f.events = append(f.events, PathEvent{Kind: KFence, Scope: v.Scope, Instr: f.pc, RMWRead: -1, CtrlDeps: ctrlDeps()})
				f.pc++
				continue

			case ptx.Mov:
				sv, err := eval(v.Src)
				if err != nil {
					return nil, err
				}
				f.regs = cloneRegs(f.regs)
				f.regs[v.Dst] = sv
				f.pc++
				continue

			case ptx.Add:
				a, err := eval(v.A)
				if err != nil {
					return nil, err
				}
				b, err := eval(v.B)
				if err != nil {
					return nil, err
				}
				res := regVal{n: a.n + b.n, taints: mergeTaints(a.taints, b.taints)}
				if a.base != "" {
					res.base = a.base
				} else if b.base != "" {
					res.base = b.base
				}
				f.regs = cloneRegs(f.regs)
				f.regs[v.Dst] = res
				f.pc++
				continue

			case ptx.And:
				a, err := eval(v.A)
				if err != nil {
					return nil, err
				}
				b, err := eval(v.B)
				if err != nil {
					return nil, err
				}
				f.regs = cloneRegs(f.regs)
				f.regs[v.Dst] = regVal{n: a.n & b.n, taints: mergeTaints(a.taints, b.taints)}
				f.pc++
				continue

			case ptx.Xor:
				a, err := eval(v.A)
				if err != nil {
					return nil, err
				}
				b, err := eval(v.B)
				if err != nil {
					return nil, err
				}
				f.regs = cloneRegs(f.regs)
				f.regs[v.Dst] = regVal{n: a.n ^ b.n, taints: mergeTaints(a.taints, b.taints)}
				f.pc++
				continue

			case ptx.Cvt:
				sv, err := eval(v.Src)
				if err != nil {
					return nil, err
				}
				f.regs = cloneRegs(f.regs)
				f.regs[v.Dst] = sv
				f.pc++
				continue

			case ptx.SetpEq:
				a, err := eval(v.A)
				if err != nil {
					return nil, err
				}
				b, err := eval(v.B)
				if err != nil {
					return nil, err
				}
				res := int64(0)
				if a.n == b.n && a.base == b.base {
					res = 1
				}
				f.regs = cloneRegs(f.regs)
				f.regs[v.P] = regVal{n: res, taints: mergeTaints(a.taints, b.taints)}
				f.pc++
				continue

			case ptx.Ld:
				loc, addrTaints, err := resolveAddr(v.Addr)
				if err != nil {
					return nil, err
				}
				// Branch over the read domain; push all but the first
				// choice as new frames.
				vals := e.domainValues(loc)
				for _, choice := range vals[1:] {
					nf := enumFrame{pc: f.pc, steps: f.steps, regs: cloneRegs(f.regs), events: cloneEvents(f.events), ctrl: f.ctrl}
					nf.applyLoad(v, loc, choice, addrTaints, ctrlDeps())
					stack = append(stack, nf)
				}
				f.regs = cloneRegs(f.regs)
				f.applyLoad(v, loc, vals[0], addrTaints, ctrlDeps())
				continue

			case ptx.St:
				loc, addrTaints, err := resolveAddr(v.Addr)
				if err != nil {
					return nil, err
				}
				sv, err := eval(v.Src)
				if err != nil {
					return nil, err
				}
				f.events = append(f.events, PathEvent{
					Kind: KWrite, Loc: loc, Val: sv.n,
					CacheOp: v.CacheOp, Volatile: v.Volatile, Instr: f.pc, RMWRead: -1,
					AddrDeps: taintList(addrTaints), DataDeps: taintList(sv.taints), CtrlDeps: ctrlDeps(),
				})
				f.pc++
				continue

			case ptx.AtomCAS, ptx.AtomExch, ptx.AtomAdd, ptx.AtomInc:
				a := ptx.AddrOf(inst)
				loc, addrTaints, err := resolveAddr(a)
				if err != nil {
					return nil, err
				}
				vals := e.domainValues(loc)
				for _, choice := range vals[1:] {
					nf := enumFrame{pc: f.pc, steps: f.steps, regs: cloneRegs(f.regs), events: cloneEvents(f.events), ctrl: f.ctrl}
					if err := nf.applyRMW(inst, loc, choice, addrTaints, ctrlDeps(), eval); err != nil {
						return nil, err
					}
					stack = append(stack, nf)
				}
				f.regs = cloneRegs(f.regs)
				if err := f.applyRMW(inst, loc, vals[0], addrTaints, ctrlDeps(), eval); err != nil {
					return nil, err
				}
				continue

			default:
				return nil, fmt.Errorf("axiom: unsupported instruction %v", inst)
			}
		}
	}
	return out, nil
}

// domainValues returns the sorted read domain of loc, logging the observed
// domain version for the path memo.
func (e *enumerator) domainValues(loc ptx.Sym) []int64 {
	if e.reads != nil {
		e.reads[loc] = e.domVer[loc]
	}
	return sortedValues(e.domain[loc])
}

// sortedValues returns the members of d in ascending order.
func sortedValues(d map[int64]bool) []int64 {
	vals := make([]int64, 0, len(d))
	for v := range d {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals
}

// enumFrame is one branch of the depth-first symbolic execution of a
// thread: a program counter, register file, events so far, and accumulated
// control taints from guarded branches.
type enumFrame struct {
	pc     int
	steps  int
	regs   map[ptx.Reg]regVal
	events []PathEvent
	ctrl   map[int]bool
}

func (f *enumFrame) applyLoad(v ptx.Ld, loc ptx.Sym, choice int64, addrTaints map[int]bool, ctrlDeps []int) {
	idx := len(f.events)
	f.events = append(f.events, PathEvent{
		Kind: KRead, Loc: loc, Val: choice,
		CacheOp: v.CacheOp, Volatile: v.Volatile, Instr: f.pc, RMWRead: -1,
		AddrDeps: taintList(addrTaints), CtrlDeps: ctrlDeps,
	})
	f.regs[v.Dst] = regVal{n: choice, taints: map[int]bool{idx: true}}
	f.pc++
}

func (f *enumFrame) applyRMW(inst ptx.Instr, loc ptx.Sym, old int64, addrTaints map[int]bool, ctrlDeps []int, eval func(ptx.Operand) (regVal, error)) error {
	readIdx := len(f.events)
	f.events = append(f.events, PathEvent{
		Kind: KRead, Loc: loc, Val: old, Atomic: true, Instr: f.pc, RMWRead: -1,
		AddrDeps: taintList(addrTaints), CtrlDeps: ctrlDeps,
	})
	write := func(val int64, dataTaints map[int]bool) {
		f.events = append(f.events, PathEvent{
			Kind: KWrite, Loc: loc, Val: val, Atomic: true, Instr: f.pc, RMWRead: readIdx,
			AddrDeps: taintList(addrTaints), DataDeps: taintList(dataTaints), CtrlDeps: ctrlDeps,
		})
	}
	var dst ptx.Reg
	switch v := inst.(type) {
	case ptx.AtomCAS:
		dst = v.Dst
		cmp, err := eval(v.Cmp)
		if err != nil {
			return err
		}
		nw, err := eval(v.New)
		if err != nil {
			return err
		}
		if old == cmp.n {
			write(nw.n, mergeTaints(nw.taints, cmp.taints))
		}
	case ptx.AtomExch:
		dst = v.Dst
		sv, err := eval(v.Src)
		if err != nil {
			return err
		}
		write(sv.n, sv.taints)
	case ptx.AtomAdd:
		dst = v.Dst
		sv, err := eval(v.Src)
		if err != nil {
			return err
		}
		write(old+sv.n, mergeTaints(sv.taints, map[int]bool{readIdx: true}))
	case ptx.AtomInc:
		dst = v.Dst
		bound, err := eval(v.Bound)
		if err != nil {
			return err
		}
		next := old + 1
		if old >= bound.n {
			next = 0
		}
		write(next, map[int]bool{readIdx: true})
	default:
		return fmt.Errorf("axiom: not an RMW: %v", inst)
	}
	f.regs[dst] = regVal{n: old, taints: map[int]bool{readIdx: true}}
	f.pc++
	return nil
}
