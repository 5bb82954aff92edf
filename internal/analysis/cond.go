package analysis

import (
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// tri is a Kleene three-valued truth value for condition atoms evaluated
// against the abstract final states: yes means the atom holds in every
// candidate execution, no means it holds in none, maybe is everything
// else.
type tri int

const (
	no    tri = -1
	maybe tri = 0
	yes   tri = 1
)

func triAnd(a, b tri) tri {
	if a == no || b == no {
		return no
	}
	if a == yes && b == yes {
		return yes
	}
	return maybe
}

func triOr(a, b tri) tri {
	if a == yes || b == yes {
		return yes
	}
	if a == no && b == no {
		return no
	}
	return maybe
}

func triNot(a tri) tri { return -a }

// evalCond evaluates the condition over the abstract final states. The
// contract both directions rely on: yes ⇒ the condition holds in every
// candidate execution's final state; no ⇒ it holds in none.
func (g *graph) evalCond(c litmus.Cond) tri {
	if !g.sound() {
		return maybe
	}
	return g.evalCondRec(c)
}

func (g *graph) evalCondRec(c litmus.Cond) tri {
	switch v := c.(type) {
	case litmus.CondAnd:
		return triAnd(g.evalCondRec(v.L), g.evalCondRec(v.R))
	case litmus.CondOr:
		return triOr(g.evalCondRec(v.L), g.evalCondRec(v.R))
	case litmus.CondNot:
		return triNot(g.evalCondRec(v.C))
	case litmus.RegEq:
		return g.evalRegEq(v)
	case litmus.MemEq:
		return g.evalMemEq(v)
	default:
		return maybe
	}
}

// evalRegEq judges tid:reg=val against the thread's abstract exit state.
// Registers that are address-valued or unassigned on a path are missing
// from that path's final state, making the atom false there.
func (g *graph) evalRegEq(a litmus.RegEq) tri {
	if a.Thread < 0 || a.Thread >= len(g.finals) {
		return no
	}
	r, ok := g.finals[a.Thread][a.Reg]
	if !ok {
		return no // never declared nor assigned: absent from every final state
	}
	if !r.maybeAbsent && len(r.val.addrs) == 0 && r.val.onlyNum(a.Val) {
		return yes
	}
	if !r.val.canBeNum(a.Val) {
		return no
	}
	return maybe
}

// evalMemEq judges loc=val against the location's possible final values:
// the written value sets, plus the initial value unless some thread
// certainly overwrites it.
func (g *graph) evalMemEq(a litmus.MemEq) tri {
	if _, ok := g.domains[a.Loc]; !ok {
		return no
	}
	var finals absVal
	if !g.mustWrite[a.Loc] {
		finals.unionIn(numVal(g.test.InitOf(a.Loc)))
	}
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind == kWrite && ev.loc == a.Loc {
				finals.unionIn(ev.vals)
			}
		}
	}
	if finals.onlyNum(a.Val) {
		return yes
	}
	if !finals.canBeNum(a.Val) {
		return no
	}
	return maybe
}
