package analysis

import (
	"cmp"
	"slices"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// event is one node of the static event graph: a memory access or fence
// as the enumerator's thread paths run it. A static event is a (thread,
// instruction, kind, location slot) that some path executes, so an atomic
// read-modify-write contributes a read event and, when some path writes,
// a write event sharing an instr.
type event struct {
	thread int
	index  int // position in the thread's event list (po order)
	instr  int // pc in the thread program
	kind   axiom.Kind
	slot   int32     // location's index in en.Slots().Locs(); -1 for fences
	scope  ptx.Scope // fences only
	atomic bool
	// cond marks events some path of the thread skips: guarded
	// instructions whose guard can fail, and the write half of a
	// compare-and-swap that can fail.
	cond bool
	// vals holds every value the write stores on some path (writes only).
	vals []int64
	// Must-hold dependencies: indices (into the same thread's event list)
	// of the reads the address/data/guard derives from on every path that
	// runs both events.
	addrDeps, dataDeps, ctrlDeps []int
	rmwRead                      int // write half of an RMW: index of the paired read; else -1
}

// is reports whether the path event is an occurrence of e.
func (e *event) is(pe *axiom.PathEvent) bool {
	return pe.Instr == e.instr && pe.Kind == e.kind && pe.Slot == e.slot
}

// on returns e's occurrence on the path, or nil when the path skips e.
func (e *event) on(p *axiom.ThreadPath) *axiom.PathEvent {
	for i := range p.Events {
		if e.is(&p.Events[i]) {
			return &p.Events[i]
		}
	}
	return nil
}

// graph is the static event graph of a test and the enumeration its
// events were derived from.
type graph struct {
	test    *litmus.Test
	threads [][]*event
	// en holds the paths the events come from; nil, with no events, when
	// no view of the test can be prepared.
	en *axiom.Enumeration
	// sound: en is the test's own enumeration, so value and forced-cycle
	// claims may be made. A test with a branch is read through its
	// fall-through view, whose paths are not the test's: lint only.
	sound bool
	// deps and poLoc hold each thread's order closure (see closure),
	// built by ordered on first use.
	deps, poLoc [][]bool
}

// graphOf builds t's static graph under the judge's bounds. A test with a
// branch is read through its fall-through view, in which every bra is a
// label, so each instruction runs at most once per path; its spin loops
// would exceed MaxSteps as written. A test no view of which can be
// prepared gets a graph without events.
func graphOf(t *litmus.Test) *graph {
	view, branchy := t, branches(t)
	if branchy {
		view = fallThrough(t)
	}
	en, err := axiom.Prepare(view, axiom.DefaultOpts())
	if err != nil {
		return &graph{test: t}
	}
	return buildGraph(t, en, !branchy)
}

// branches reports whether some thread of t has a bra.
func branches(t *litmus.Test) bool {
	for _, th := range t.Threads {
		for _, inst := range th.Prog {
			if _, ok := inst.(ptx.Bra); ok {
				return true
			}
		}
	}
	return false
}

// fallThrough returns a copy of t in which every bra is a label.
func fallThrough(t *litmus.Test) *litmus.Test {
	view := *t
	view.Threads = make([]litmus.Thread, len(t.Threads))
	for i, th := range t.Threads {
		prog := slices.Clone(th.Prog)
		for pc, inst := range prog {
			if _, ok := inst.(ptx.Bra); ok {
				prog[pc] = ptx.LabelDef{}
			}
		}
		view.Threads[i] = litmus.Thread{ID: th.ID, Prog: prog}
	}
	return &view
}

// buildGraph derives t's static events from en's thread paths: en is the
// enumeration of t (sound) or of its fall-through view.
func buildGraph(t *litmus.Test, en *axiom.Enumeration, sound bool) *graph {
	g := &graph{test: t, threads: make([][]*event, len(t.Threads)), en: en, sound: sound}
	for tid := range t.Threads {
		g.threads[tid] = threadEvents(tid, en.Paths(tid))
	}
	return g
}

// threadEvents derives one thread's static events, in program order, from
// its paths: an event is cond when some path skips it, a dependency is
// must-hold when every path running both events has it, and a write's
// values are the union over the paths.
func threadEvents(tid int, paths []axiom.ThreadPath) []*event {
	var evs []*event
	for _, p := range paths {
		for i := range p.Events {
			if pe := &p.Events[i]; indexOf(evs, pe) < 0 {
				evs = append(evs, &event{thread: tid, instr: pe.Instr, kind: pe.Kind, slot: pe.Slot, scope: pe.Scope, atomic: pe.Atomic, rmwRead: -1})
			}
		}
	}
	slices.SortFunc(evs, func(a, b *event) int {
		return cmp.Or(cmp.Compare(a.instr, b.instr), cmp.Compare(a.kind, b.kind), cmp.Compare(a.slot, b.slot))
	})
	for i, e := range evs {
		e.index = i
	}

	// counts[0][i*n+j] counts the paths running events i and j; counts[k]
	// for k = 1, 2, 3 those on which i carries an address, data or control
	// dependency on j.
	n := len(evs)
	slab := make([]int, 4*n*n)
	counts := [4][]int{slab[:n*n], slab[n*n : 2*n*n], slab[2*n*n : 3*n*n], slab[3*n*n:]}
	var ids []int // path-local event index -> static index
	for _, p := range paths {
		ids = ids[:0]
		for i := range p.Events {
			ids = append(ids, indexOf(evs, &p.Events[i]))
		}
		for i := range p.Events {
			pe, e := &p.Events[i], evs[ids[i]]
			for _, j := range ids {
				counts[0][e.index*n+j]++
			}
			for k, deps := range [3][]int{pe.AddrDeps, pe.DataDeps, pe.CtrlDeps} {
				for _, d := range deps {
					counts[k+1][e.index*n+ids[d]]++
				}
			}
			if pe.RMWRead >= 0 {
				e.rmwRead = ids[pe.RMWRead]
			}
			if pe.Kind == axiom.KWrite && !slices.Contains(e.vals, pe.Val) {
				e.vals = append(e.vals, pe.Val)
			}
		}
	}
	for i, e := range evs {
		e.cond = counts[0][i*n+i] < len(paths)
		for k, deps := range [3]*[]int{&e.addrDeps, &e.dataDeps, &e.ctrlDeps} {
			for j := 0; j < n; j++ {
				if c := counts[k+1][i*n+j]; c > 0 && c == counts[0][i*n+j] {
					*deps = append(*deps, j)
				}
			}
		}
	}
	return evs
}

// indexOf returns the index of the static event pe is an occurrence of,
// or -1.
func indexOf(evs []*event, pe *axiom.PathEvent) int {
	for i, e := range evs {
		if e.is(pe) {
			return i
		}
	}
	return -1
}

// loc names the location of slot s.
func (g *graph) loc(s int32) ptx.Sym { return g.en.Slots().Locs()[s] }

// ordered reports whether a's thread orders a before b through one of its
// order closures: same-location chains when poLoc, must-dependency chains
// otherwise. Each closure is built once per graph, on first use.
func (g *graph) ordered(a, b *event, poLoc bool) bool {
	cl := &g.deps
	if poLoc {
		cl = &g.poLoc
	}
	if *cl == nil {
		*cl = make([][]bool, len(g.threads))
		for tid, evs := range g.threads {
			(*cl)[tid] = closure(evs, poLoc)
		}
	}
	return (*cl)[a.thread][a.index*len(g.threads[a.thread])+b.index]
}

// closure computes one thread's order closure, row-major over its events:
// which events reach which through must-dependency edges (or, when poLoc,
// through program-ordered same-location links that are not read-read),
// closed transitively through certainly executed intermediates only.
func closure(evs []*event, poLoc bool) []bool {
	n := len(evs)
	reach := make([]bool, n*n)
	for j, e := range evs {
		if poLoc {
			for i, a := range evs[:j] {
				reach[i*n+j] = a.slot >= 0 && a.slot == e.slot && (a.kind != axiom.KRead || e.kind != axiom.KRead)
			}
			continue
		}
		for _, deps := range [3][]int{e.addrDeps, e.dataDeps, e.ctrlDeps} {
			for _, d := range deps {
				reach[d*n+j] = true
			}
		}
	}
	for k, ek := range evs {
		if ek.cond {
			continue
		}
		for i := range n {
			if reach[i*n+k] {
				for j := range n {
					reach[i*n+j] = reach[i*n+j] || reach[k*n+j]
				}
			}
		}
	}
	return reach
}

// source returns the source read of thread tid's register reg: the unique
// read that runs on every path and reads the register's final value on
// every path, or nil. A condition pinning the register to a value pins
// that read to it in every witnessing execution.
func (g *graph) source(tid int, reg ptx.Reg) *event {
	var src *event
	for _, e := range g.threads[tid] {
		if e.kind != axiom.KRead || !g.readsFinal(e, reg) {
			continue
		}
		if src != nil {
			return nil
		}
		src = e
	}
	return src
}

// readsFinal reports whether the read e runs on every path of its thread
// and reads reg's final value on each.
func (g *graph) readsFinal(e *event, reg ptx.Reg) bool {
	paths := g.en.Paths(e.thread)
	k := slices.Index(g.en.Slots().Regs(e.thread), reg)
	for i := range paths {
		if pe := e.on(&paths[i]); k < 0 || pe == nil || paths[i].Regs[k] != (litmus.SlotValue{Val: pe.Val, Present: true}) {
			return false
		}
	}
	return true
}
