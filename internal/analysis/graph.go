package analysis

import (
	"sort"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// maxAbsValues caps every abstract value set. A set that would grow past
// the cap collapses to top ("any value"), which degrades conclusions to
// Unknown instead of ever under-approximating. It is the enumerator's own
// bound on a read domain.
var maxAbsValues = axiom.DefaultOpts().MaxValues

// evKind classifies a static event.
type evKind int

const (
	kRead evKind = iota
	kWrite
	kFence
)

// event is one node of the static event graph: a memory access or fence
// instruction of one thread. Atomic read-modify-writes contribute a read
// event and (when the write can happen) a write event sharing an Instr.
type event struct {
	thread int
	index  int // position in the thread's event list (po order)
	instr  int // pc in the thread program
	kind   evKind
	loc    ptx.Sym
	scope  ptx.Scope // fences only
	atomic bool
	// cond marks events that may not occur in every execution: predicated
	// instructions whose guard is not statically decided, and the write
	// half of a compare-and-swap that can fail.
	cond bool
	// vals over-approximates the written value set (writes only).
	vals absVal
	// Must-hold dependencies: indices (into the same thread's event list)
	// of read events the address/data/guard is certainly derived from.
	addrDeps, dataDeps, ctrlDeps []int
	rmwRead                      int // write half of an RMW: index of the paired read; else -1
}

// graph is the static event graph plus the value-analysis results it was
// built with.
type graph struct {
	test    *litmus.Test
	threads [][]*event
	// loopy: some thread contains a branch. Events are still built (with
	// branches treated as fall-through) so lint passes have something to
	// look at, but every value and forced-cycle claim is disabled.
	loopy bool
	// unresolved: some access's address could not be pinned to one
	// location; claims are disabled.
	unresolved bool
	// domains holds each location's read domain from the test's
	// enumeration; nil (claims disabled) when it could not be prepared.
	domains map[ptx.Sym]absVal
	// finals is the abstract register state at each thread's exit.
	finals []map[ptx.Reg]*absReg
	// mustWrite marks locations some thread writes unconditionally.
	mustWrite map[ptx.Sym]bool
}

// absVal is an abstract value: a set of possible numeric values and/or
// location addresses, or top (any value) once the cap is exceeded.
type absVal struct {
	top   bool
	nums  map[int64]bool
	addrs map[ptx.Sym]bool
}

func numVal(n int64) absVal    { return absVal{nums: map[int64]bool{n: true}} }
func addrVal(s ptx.Sym) absVal { return absVal{addrs: map[ptx.Sym]bool{s: true}} }
func topVal() absVal           { return absVal{top: true} }

func (v absVal) clone() absVal {
	c := absVal{top: v.top}
	if v.nums != nil {
		c.nums = make(map[int64]bool, len(v.nums))
		for n := range v.nums {
			c.nums[n] = true
		}
	}
	if v.addrs != nil {
		c.addrs = make(map[ptx.Sym]bool, len(v.addrs))
		for a := range v.addrs {
			c.addrs[a] = true
		}
	}
	return c
}

// unionIn merges o into v, reporting whether v grew. Exceeding the value
// cap collapses to top (which counts as growth exactly once).
func (v *absVal) unionIn(o absVal) bool {
	if v.top {
		return false
	}
	if o.top {
		v.top, v.nums, v.addrs = true, nil, nil
		return true
	}
	grew := false
	for n := range o.nums {
		if !v.nums[n] {
			if v.nums == nil {
				v.nums = make(map[int64]bool)
			}
			v.nums[n] = true
			grew = true
		}
	}
	for a := range o.addrs {
		if !v.addrs[a] {
			if v.addrs == nil {
				v.addrs = make(map[ptx.Sym]bool)
			}
			v.addrs[a] = true
			grew = true
		}
	}
	if len(v.nums)+len(v.addrs) > maxAbsValues {
		v.top, v.nums, v.addrs = true, nil, nil
		return true
	}
	return grew
}

// canBeNum reports whether the abstract value admits the concrete number.
func (v absVal) canBeNum(n int64) bool { return v.top || v.nums[n] }

// onlyNum reports whether the value is exactly the singleton number n.
func (v absVal) onlyNum(n int64) bool {
	return !v.top && len(v.addrs) == 0 && len(v.nums) == 1 && v.nums[n]
}

// provNone marks a register whose final value is not the verbatim result
// of one specific read event.
const provNone = -1

// absReg is the abstract state of one register: its value set, the single
// read event whose value it certainly carries verbatim (provenance, for
// forced-communication reasoning), the read events its value must be
// derived from (must-taints, for dependency edges), and whether some path
// leaves it unassigned.
type absReg struct {
	val absVal
	// prov is the event index (same thread) of the read whose value the
	// register holds verbatim on every path, or provNone.
	prov int
	// musts are event indices of reads the value is derived from on every
	// path (intersection semantics at joins).
	musts map[int]bool
	// maybeAbsent: on some path the register is never assigned and so
	// missing from the final state.
	maybeAbsent bool
}

func (r *absReg) clone() *absReg {
	c := &absReg{val: r.val.clone(), prov: r.prov, maybeAbsent: r.maybeAbsent}
	if r.musts != nil {
		c.musts = make(map[int]bool, len(r.musts))
		for m := range r.musts {
			c.musts[m] = true
		}
	}
	return c
}

func intersectMusts(a, b map[int]bool) map[int]bool {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(map[int]bool)
	for m := range a {
		if b[m] {
			out[m] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func unionMusts(a, b map[int]bool) map[int]bool {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[int]bool, len(a)+len(b))
	for m := range a {
		out[m] = true
	}
	for m := range b {
		out[m] = true
	}
	return out
}

func sortedMusts(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// regState is a thread's abstract register file.
type regState map[ptx.Reg]*absReg

func (s regState) clone() regState {
	c := make(regState, len(s))
	for r, v := range s {
		c[r] = v.clone()
	}
	return c
}

// joinInto merges other (the state after a conditionally executed
// instruction) into s (the state where it did not execute).
func (s regState) joinInto(other regState) {
	for r, ov := range other {
		sv, ok := s[r]
		if !ok {
			nv := ov.clone()
			nv.maybeAbsent = true
			nv.prov = provNone
			nv.musts = nil
			s[r] = nv
			continue
		}
		sv.val.unionIn(ov.val)
		if sv.prov != ov.prov {
			sv.prov = provNone
		}
		sv.musts = intersectMusts(sv.musts, ov.musts)
		sv.maybeAbsent = sv.maybeAbsent || ov.maybeAbsent
	}
	for r, sv := range s {
		if _, ok := other[r]; !ok {
			sv.maybeAbsent = true
			sv.prov = provNone
			sv.musts = nil
		}
	}
}

// buildGraph interprets each thread of the test once, every load ranging
// over its location's read domain in en (the enumerator's §5.1.2
// fixpoint), which yields the static events with their must-dependencies
// and the final abstract register states. en is t's prepared enumeration,
// or that of a test differing from t only in fences, which change no
// domain. A nil en, for a test the enumerator cannot prepare, reads every
// load as any value: lint still runs, but no claim is made.
func buildGraph(t *litmus.Test, en *axiom.Enumeration) *graph {
	g := &graph{
		test:      t,
		threads:   make([][]*event, len(t.Threads)),
		finals:    make([]map[ptx.Reg]*absReg, len(t.Threads)),
		mustWrite: make(map[ptx.Sym]bool),
	}
	if en != nil {
		locs := t.Locations()
		g.domains = make(map[ptx.Sym]absVal, len(locs))
		for _, loc := range locs {
			vals := en.Domain(loc)
			d := absVal{nums: make(map[int64]bool, len(vals))}
			for _, v := range vals {
				d.nums[v] = true
			}
			g.domains[loc] = d
		}
	}
	for tid := range t.Threads {
		g.threads[tid], g.finals[tid] = g.interpThread(tid)
	}
	return g
}

// sound reports whether value and forced-cycle claims may be made at all.
func (g *graph) sound() bool { return g.domains != nil && !g.loopy && !g.unresolved }

// interpThread abstractly interprets one thread straight through its
// program (branches fall through; loopy graphs disable the analyses that
// would care), emitting static events and returning the exit register
// state. Guarded instructions whose predicate is not statically decided
// execute on a cloned state that is then joined back.
func (g *graph) interpThread(tid int) ([]*event, map[ptx.Reg]*absReg) {
	t := g.test
	regs := make(regState)
	for _, d := range t.Decls {
		if d.Thread != tid {
			continue
		}
		if d.Loc != "" {
			regs[d.Reg] = &absReg{val: addrVal(d.Loc), prov: provNone}
		} else {
			regs[d.Reg] = &absReg{val: numVal(0), prov: provNone}
		}
	}

	var evs []*event
	for pc, inst := range t.Threads[tid].Prog {
		switch inst.(type) {
		case ptx.Bra:
			g.loopy = true
			continue
		case ptx.LabelDef:
			continue
		}

		// Guard triage: always, never, or maybe executed.
		condCtx := false
		var ctrl map[int]bool
		if gd := inst.Pred(); gd != nil {
			gv := regs[gd.Reg]
			var canHold, canSkip bool
			if gv == nil {
				// Unassigned guard register reads as zero.
				canHold, canSkip = gd.Neg, !gd.Neg
			} else {
				nonzero := gv.val.top
				for n := range gv.val.nums {
					if n != 0 {
						nonzero = true
					}
				}
				zero := gv.val.top || gv.val.nums[0] || len(gv.val.addrs) > 0 || gv.maybeAbsent
				if gd.Neg {
					canHold, canSkip = zero, nonzero
				} else {
					canHold, canSkip = nonzero, zero
				}
				ctrl = gv.musts
			}
			if !canHold {
				continue // statically dead instruction
			}
			condCtx = canSkip // executes only sometimes
		}

		if condCtx {
			branch := regs.clone()
			evs = g.applyInstr(tid, pc, inst, branch, &evs, true, ctrl)
			regs.joinInto(branch)
		} else {
			evs = g.applyInstr(tid, pc, inst, regs, &evs, false, ctrl)
		}
	}
	return evs, regs
}

// applyInstr interprets one instruction against regs, appending any
// events to *evs (which it also returns). condCtx marks events as
// conditional; ctrl is the guard's must-taint set.
func (g *graph) applyInstr(tid, pc int, inst ptx.Instr, regs regState, evs *[]*event, condCtx bool, ctrl map[int]bool) []*event {
	eval := func(o ptx.Operand) *absReg {
		switch v := o.(type) {
		case ptx.Imm:
			return &absReg{val: numVal(int64(v)), prov: provNone}
		case ptx.Reg:
			if r, ok := regs[v]; ok {
				return r
			}
			// Reading a never-assigned register yields zero (the
			// enumerator's zero regVal).
			return &absReg{val: numVal(0), prov: provNone}
		case ptx.Sym:
			return &absReg{val: addrVal(v), prov: provNone}
		}
		return &absReg{val: topVal(), prov: provNone}
	}
	// resolveAddr returns the unique location an address operand names, or
	// "" when it cannot be pinned (the enumerator errors on such tests, so
	// in practice addresses always resolve).
	resolveAddr := func(o ptx.Operand) (ptx.Sym, map[int]bool) {
		av := eval(o)
		if !av.val.top && len(av.val.addrs) == 1 && len(av.val.nums) == 0 {
			for a := range av.val.addrs {
				return a, av.musts
			}
		}
		if s, ok := o.(ptx.Sym); ok {
			return s, nil
		}
		g.unresolved = true
		return "", av.musts
	}
	emit := func(ev *event) *event {
		ev.thread = tid
		ev.index = len(*evs)
		ev.instr = pc
		ev.rmwRead = -1
		*evs = append(*evs, ev)
		return ev
	}
	setReg := func(r ptx.Reg, v *absReg) { regs[r] = v }

	switch v := inst.(type) {
	case ptx.Membar:
		emit(&event{kind: kFence, scope: v.Scope, cond: condCtx, ctrlDeps: sortedMusts(ctrl)})

	case ptx.Mov:
		sv := eval(v.Src)
		setReg(v.Dst, sv.clone())

	case ptx.Cvt:
		sv := eval(v.Src)
		setReg(v.Dst, sv.clone())

	case ptx.Add:
		a, b := eval(v.A), eval(v.B)
		setReg(v.Dst, &absReg{val: addAbs(a.val, b.val), prov: provNone, musts: unionMusts(a.musts, b.musts)})

	case ptx.And:
		a, b := eval(v.A), eval(v.B)
		setReg(v.Dst, &absReg{val: binAbs(a.val, b.val, func(x, y int64) int64 { return x & y }), prov: provNone, musts: unionMusts(a.musts, b.musts)})

	case ptx.Xor:
		a, b := eval(v.A), eval(v.B)
		setReg(v.Dst, &absReg{val: binAbs(a.val, b.val, func(x, y int64) int64 { return x ^ y }), prov: provNone, musts: unionMusts(a.musts, b.musts)})

	case ptx.SetpEq:
		a, b := eval(v.A), eval(v.B)
		setReg(v.P, &absReg{val: setpAbs(a.val, b.val), prov: provNone, musts: unionMusts(a.musts, b.musts)})

	case ptx.Ld:
		loc, addrMusts := resolveAddr(v.Addr)
		ev := emit(&event{kind: kRead, loc: loc, cond: condCtx, addrDeps: sortedMusts(addrMusts), ctrlDeps: sortedMusts(ctrl)})
		val := topVal()
		if d, ok := g.domains[loc]; ok {
			val = d.clone()
		}
		setReg(v.Dst, &absReg{val: val, prov: ev.index, musts: map[int]bool{ev.index: true}})

	case ptx.St:
		loc, addrMusts := resolveAddr(v.Addr)
		sv := eval(v.Src)
		emit(&event{
			kind: kWrite, loc: loc, cond: condCtx, vals: stored(sv.val),
			addrDeps: sortedMusts(addrMusts), dataDeps: sortedMusts(sv.musts), ctrlDeps: sortedMusts(ctrl),
		})
		if !condCtx {
			g.mustWrite[loc] = true
		}

	case ptx.AtomCAS, ptx.AtomExch, ptx.AtomAdd, ptx.AtomInc:
		loc, addrMusts := resolveAddr(ptx.AddrOf(inst))
		read := emit(&event{kind: kRead, loc: loc, atomic: true, cond: condCtx, addrDeps: sortedMusts(addrMusts), ctrlDeps: sortedMusts(ctrl)})
		old := topVal()
		if d, ok := g.domains[loc]; ok {
			old = d.clone()
		}
		readMusts := map[int]bool{read.index: true}
		var dst ptx.Reg
		switch a := inst.(type) {
		case ptx.AtomCAS:
			dst = a.Dst
			cmp, nw := eval(a.Cmp), eval(a.New)
			canMatch, canMiss := overlap(old, stored(cmp.val))
			if canMatch {
				emit(&event{
					kind: kWrite, loc: loc, atomic: true, cond: condCtx || canMiss, vals: stored(nw.val),
					addrDeps: sortedMusts(addrMusts), dataDeps: sortedMusts(unionMusts(nw.musts, cmp.musts)), ctrlDeps: sortedMusts(ctrl),
					rmwRead: -1,
				})
				(*evs)[len(*evs)-1].rmwRead = read.index
			}
		case ptx.AtomExch:
			dst = a.Dst
			sv := eval(a.Src)
			w := emit(&event{
				kind: kWrite, loc: loc, atomic: true, cond: condCtx, vals: stored(sv.val),
				addrDeps: sortedMusts(addrMusts), dataDeps: sortedMusts(sv.musts), ctrlDeps: sortedMusts(ctrl),
			})
			w.rmwRead = read.index
			if !condCtx {
				g.mustWrite[loc] = true
			}
		case ptx.AtomAdd:
			dst = a.Dst
			sv := eval(a.Src)
			w := emit(&event{
				kind: kWrite, loc: loc, atomic: true, cond: condCtx, vals: addAbs(old, sv.val),
				addrDeps: sortedMusts(addrMusts), dataDeps: sortedMusts(unionMusts(sv.musts, readMusts)), ctrlDeps: sortedMusts(ctrl),
			})
			w.rmwRead = read.index
			if !condCtx {
				g.mustWrite[loc] = true
			}
		case ptx.AtomInc:
			dst = a.Dst
			w := emit(&event{
				kind: kWrite, loc: loc, atomic: true, cond: condCtx, vals: topVal(),
				addrDeps: sortedMusts(addrMusts), dataDeps: sortedMusts(readMusts), ctrlDeps: sortedMusts(ctrl),
			})
			w.rmwRead = read.index
			if !condCtx {
				g.mustWrite[loc] = true
			}
		}
		setReg(dst, &absReg{val: old, prov: read.index, musts: readMusts})
	}
	return *evs
}

// stored is v as a store writes it, or a compare-and-swap compares it: the
// enumerator takes an address as its offset, 0 for every address an
// abstract value keeps (address arithmetic collapses to top).
func stored(v absVal) absVal {
	c := v.clone()
	if len(c.addrs) > 0 {
		c.addrs = nil
		c.unionIn(numVal(0))
	}
	return c
}

// addAbs is the abstract + : the pairwise sums of the operands' numeric
// members. An address operand collapses the sum to top (see binAbs).
func addAbs(a, b absVal) absVal {
	return binAbs(a, b, func(x, y int64) int64 { return x + y })
}

// binAbs applies a binary numeric operator pointwise over two abstract
// sets, collapsing to top past the cap or when either side is top or
// address-valued (addresses read as zero through arithmetic, so mixing
// them in loses precision rather than soundness).
func binAbs(a, b absVal, op func(x, y int64) int64) absVal {
	if a.top || b.top || len(a.addrs) > 0 || len(b.addrs) > 0 {
		return topVal()
	}
	out := absVal{nums: make(map[int64]bool, len(a.nums)*len(b.nums))}
	for x := range a.nums {
		for y := range b.nums {
			out.nums[op(x, y)] = true
			if len(out.nums) > maxAbsValues {
				return topVal()
			}
		}
	}
	return out
}

// setpAbs is the abstract setp.eq: the subset of {0,1} the comparison can
// produce.
func setpAbs(a, b absVal) absVal {
	canEq, canNe := overlap(a, b)
	out := absVal{nums: make(map[int64]bool, 2)}
	if canEq {
		out.nums[1] = true
	}
	if canNe {
		out.nums[0] = true
	}
	if len(out.nums) == 0 {
		out.nums[0] = true // unreachable comparison still yields a value
	}
	return out
}

// overlap reports whether two abstract values can compare equal and
// whether they can compare unequal.
func overlap(a, b absVal) (canEq, canNe bool) {
	if a.top || b.top {
		return true, true
	}
	for n := range a.nums {
		if b.nums[n] {
			canEq = true
		}
	}
	for s := range a.addrs {
		if b.addrs[s] {
			canEq = true
		}
	}
	// Some pair differs unless both sides are the same singleton.
	sa, sb := len(a.nums)+len(a.addrs), len(b.nums)+len(b.addrs)
	canNe = sa > 0 && sb > 0 && !(sa == 1 && sb == 1 && canEq)
	return canEq, canNe
}
