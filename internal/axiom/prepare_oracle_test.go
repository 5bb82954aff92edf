package axiom

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// FuzzPrepareMatchesOracle pins the slot-indexed fixpoint to the map-based
// one it replaced: for every source Parse accepts, under the default
// bounds and under bounds tight enough that the step, path and value
// limits fire, both give the same error text or the same combos, read
// domains and paths: events, dependency lists (nil when empty) and final
// registers. The oracle resolves each event's Slot by name through
// Slots.Loc, so the comparison pins the slot preparation sets. The seeds
// are litmustest.All, which holds Random(120), and litmustest.LongPath,
// whose paths run past one 64-bit taint word.
func FuzzPrepareMatchesOracle(f *testing.F) {
	for _, t := range append(litmustest.All(), litmustest.LongPath()) {
		f.Add(t.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		test, err := litmus.Parse(src)
		if err != nil {
			return
		}
		for _, opts := range []Opts{DefaultOpts(), {MaxSteps: 24, MaxPaths: 6, MaxValues: 3}} {
			checkPrepareMatchesOracle(t, test, opts)
		}
	})
}

func checkPrepareMatchesOracle(t *testing.T, test *litmus.Test, opts Opts) {
	t.Helper()
	got, gerr := Prepare(test, opts)
	want, werr := prepareOracle(test, opts)
	if gerr != nil || werr != nil {
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s %+v: Prepare fails with %v, the oracle with %v", test.Name, opts, gerr, werr)
		}
		return
	}
	if got.Combos() != want.Combos() {
		t.Fatalf("%s %+v: %d combos, the oracle %d", test.Name, opts, got.Combos(), want.Combos())
	}
	for i, loc := range got.Slots().Locs() {
		if g, w := got.dom[i], want.dom[i]; !slices.Equal(g, w) {
			t.Fatalf("%s %+v: domain of %s is %v, the oracle's %v", test.Name, opts, loc, g, w)
		}
	}
	if !slices.Equal(got.init, want.init) {
		t.Fatalf("%s %+v: initial values %v, the oracle's %v", test.Name, opts, got.init, want.init)
	}
	for tid := range test.Threads {
		g, w := got.Paths(tid), want.Paths(tid)
		if len(g) != len(w) {
			t.Fatalf("%s %+v: thread %d has %d paths, the oracle %d", test.Name, opts, tid, len(g), len(w))
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("%s %+v: thread %d path %d is\n%+v\nthe oracle's\n%+v", test.Name, opts, tid, i, g[i], w[i])
			}
		}
	}
}

// prepareOracle is the map-based value-domain fixpoint the slot-indexed
// one replaced, kept as its differential oracle: registers in a
// name-keyed map cloned at every branch, taints as sets of event
// indices, read domains as value sets sorted on every read, and the
// path memo keyed by location name. FuzzPrepareMatchesOracle pins the
// production fixpoint's paths, domains, combos and errors to it.
func prepareOracle(t *litmus.Test, opts Opts) (*Enumeration, error) {
	e := &oracleEnumerator{test: t, opts: opts.withDefaults(), ctx: context.Background()}
	return e.prepare()
}

// oracleRegVal is a register value during path execution: either a
// number or the address of a location (base != ""), with the set of loads
// that tainted it.
type oracleRegVal struct {
	n      int64
	base   ptx.Sym
	taints map[int]bool
}

func oracleMergeTaints(a, b map[int]bool) map[int]bool {
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

func oracleTaintList(m map[int]bool) []int {
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

type oracleEnumerator struct {
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
}

// oraclePathDeps records what one thread's memoized paths depend on: the
// domain version of every location the derivation read. While those
// versions are unchanged, re-deriving the thread would replay the exact
// same symbolic execution, so the paths are reused as-is.
type oraclePathDeps struct {
	derived bool
	reads   map[ptx.Sym]int
}

// unchanged reports whether every location the derivation read still has
// the domain version it observed.
func (e *oracleEnumerator) unchanged(reads map[ptx.Sym]int) bool {
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
func (e *oracleEnumerator) prepare() (*Enumeration, error) {
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
	memo := make([]oraclePathDeps, nt)
	for iter := 0; ; iter++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		grew := false
		for tid := range e.test.Threads {
			if memo[tid].derived && e.unchanged(memo[tid].reads) {
				// The thread's paths are still valid, and its write values
				// are already in the domains (added when it was derived).
				continue
			}
			e.reads = make(map[ptx.Sym]int)
			ps, err := e.threadPaths(tid)
			if err != nil {
				return nil, err
			}
			paths[tid] = ps
			memo[tid] = oraclePathDeps{derived: true, reads: e.reads}
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
	dom := make([][]int64, len(locs))
	for i, loc := range locs {
		dom[i] = oracleSortedValues(e.domain[loc])
	}
	return &Enumeration{test: e.test, opts: e.opts, slots: e.slots, init: init, dom: dom, paths: paths, combos: combos}, nil
}

// threadPaths symbolically executes thread tid, branching at each load over
// the location's read domain.
func (e *oracleEnumerator) threadPaths(tid int) ([]ThreadPath, error) {
	prog := e.test.Threads[tid].Prog
	labels := prog.Labels()
	names := e.slots.Regs(tid)
	var out []ThreadPath

	initRegs := func() map[ptx.Reg]oracleRegVal {
		regs := make(map[ptx.Reg]oracleRegVal)
		for _, d := range e.test.Decls {
			if d.Thread != tid {
				continue
			}
			if d.Loc != "" {
				regs[d.Reg] = oracleRegVal{base: d.Loc}
			} else {
				regs[d.Reg] = oracleRegVal{}
			}
		}
		return regs
	}

	cloneRegs := func(regs map[ptx.Reg]oracleRegVal) map[ptx.Reg]oracleRegVal {
		c := make(map[ptx.Reg]oracleRegVal, len(regs))
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

	stack := []oracleFrame{{pc: 0, regs: initRegs(), ctrl: nil}}
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
				for k := range f.events {
					f.events[k].Slot = int32(e.slots.Loc(f.events[k].Loc))
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
						f.ctrl = oracleMergeTaints(f.ctrl, guardTaints)
					}
					f.pc++
					continue
				}
			}

			eval := func(o ptx.Operand) (oracleRegVal, error) {
				switch v := o.(type) {
				case ptx.Imm:
					return oracleRegVal{n: int64(v)}, nil
				case ptx.Reg:
					return f.regs[v], nil
				case ptx.Sym:
					return oracleRegVal{base: v}, nil
				}
				return oracleRegVal{}, fmt.Errorf("axiom: bad operand %v", o)
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
			ctrlDeps := func() []int { return oracleTaintList(oracleMergeTaints(f.ctrl, guardTaints)) }

			switch v := inst.(type) {
			case ptx.LabelDef:
				f.pc++
				continue

			case ptx.Bra:
				target, ok := labels[v.Target]
				if !ok {
					return nil, fmt.Errorf("axiom: undefined label %q", v.Target)
				}
				f.ctrl = oracleMergeTaints(f.ctrl, guardTaints)
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
				res := oracleRegVal{n: a.n + b.n, taints: oracleMergeTaints(a.taints, b.taints)}
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
				f.regs[v.Dst] = oracleRegVal{n: a.n & b.n, taints: oracleMergeTaints(a.taints, b.taints)}
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
				f.regs[v.Dst] = oracleRegVal{n: a.n ^ b.n, taints: oracleMergeTaints(a.taints, b.taints)}
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
				f.regs[v.P] = oracleRegVal{n: res, taints: oracleMergeTaints(a.taints, b.taints)}
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
					nf := oracleFrame{pc: f.pc, steps: f.steps, regs: cloneRegs(f.regs), events: cloneEvents(f.events), ctrl: f.ctrl}
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
					AddrDeps: oracleTaintList(addrTaints), DataDeps: oracleTaintList(sv.taints), CtrlDeps: ctrlDeps(),
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
					nf := oracleFrame{pc: f.pc, steps: f.steps, regs: cloneRegs(f.regs), events: cloneEvents(f.events), ctrl: f.ctrl}
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
func (e *oracleEnumerator) domainValues(loc ptx.Sym) []int64 {
	if e.reads != nil {
		e.reads[loc] = e.domVer[loc]
	}
	return oracleSortedValues(e.domain[loc])
}

// oracleSortedValues returns the members of d in ascending order.
func oracleSortedValues(d map[int64]bool) []int64 {
	vals := make([]int64, 0, len(d))
	for v := range d {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals
}

// oracleFrame is one branch of the depth-first symbolic execution of a
// thread: a program counter, register file, events so far, and accumulated
// control taints from guarded branches.
type oracleFrame struct {
	pc     int
	steps  int
	regs   map[ptx.Reg]oracleRegVal
	events []PathEvent
	ctrl   map[int]bool
}

func (f *oracleFrame) applyLoad(v ptx.Ld, loc ptx.Sym, choice int64, addrTaints map[int]bool, ctrlDeps []int) {
	idx := len(f.events)
	f.events = append(f.events, PathEvent{
		Kind: KRead, Loc: loc, Val: choice,
		CacheOp: v.CacheOp, Volatile: v.Volatile, Instr: f.pc, RMWRead: -1,
		AddrDeps: oracleTaintList(addrTaints), CtrlDeps: ctrlDeps,
	})
	f.regs[v.Dst] = oracleRegVal{n: choice, taints: map[int]bool{idx: true}}
	f.pc++
}

func (f *oracleFrame) applyRMW(inst ptx.Instr, loc ptx.Sym, old int64, addrTaints map[int]bool, ctrlDeps []int, eval func(ptx.Operand) (oracleRegVal, error)) error {
	readIdx := len(f.events)
	f.events = append(f.events, PathEvent{
		Kind: KRead, Loc: loc, Val: old, Atomic: true, Instr: f.pc, RMWRead: -1,
		AddrDeps: oracleTaintList(addrTaints), CtrlDeps: ctrlDeps,
	})
	write := func(val int64, dataTaints map[int]bool) {
		f.events = append(f.events, PathEvent{
			Kind: KWrite, Loc: loc, Val: val, Atomic: true, Instr: f.pc, RMWRead: readIdx,
			AddrDeps: oracleTaintList(addrTaints), DataDeps: oracleTaintList(dataTaints), CtrlDeps: ctrlDeps,
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
			write(nw.n, oracleMergeTaints(nw.taints, cmp.taints))
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
		write(old+sv.n, oracleMergeTaints(sv.taints, map[int]bool{readIdx: true}))
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
	f.regs[dst] = oracleRegVal{n: old, taints: map[int]bool{readIdx: true}}
	f.pc++
	return nil
}
