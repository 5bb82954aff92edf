package analysis

import (
	"slices"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// tri is a Kleene three-valued truth value for condition atoms evaluated
// against the paths' final states: yes means the atom holds in every
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

// evalCond evaluates the condition over the final states of the test's
// paths. The contract both directions rely on: yes ⇒ the condition holds
// in every candidate execution's final state; no ⇒ it holds in none. Every
// candidate execution runs one path per thread, so both hold whenever
// they hold over the paths.
func (g *graph) evalCond(c litmus.Cond) tri {
	if !g.sound {
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

// evalRegEq judges tid:reg=val against the thread's paths. A register that
// is address-valued or unassigned on a path is missing from that path's
// final state, making the atom false there.
func (g *graph) evalRegEq(a litmus.RegEq) tri {
	if a.Thread < 0 || a.Thread >= len(g.threads) {
		return no
	}
	var t tally
	k := slices.Index(g.en.Slots().Regs(a.Thread), a.Reg)
	for _, p := range g.en.Paths(a.Thread) {
		t.note(k >= 0 && p.Regs[k] == litmus.SlotValue{Val: a.Val, Present: true})
	}
	return t.tri()
}

// evalMemEq judges loc=val against the location's possible final values:
// the values its writes store, plus the initial value unless some write to
// it runs on every path of its thread.
func (g *graph) evalMemEq(a litmus.MemEq) tri {
	slot := int32(g.en.Slots().Loc(a.Loc))
	if slot < 0 {
		return no // not a location of the test: absent from every final state
	}
	var t tally
	if len(g.uncondWrites(slot)) == 0 {
		t.note(g.test.InitOf(a.Loc) == a.Val)
	}
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind == axiom.KWrite && ev.slot == slot {
				for _, v := range ev.vals {
					t.note(v == a.Val)
				}
			}
		}
	}
	return t.tri()
}

// tally folds an atom's truth over the possible final states.
type tally struct{ some, miss bool }

func (t *tally) note(holds bool) {
	if holds {
		t.some = true
	} else {
		t.miss = true
	}
}

// tri is yes when the atom held in every state noted, no when in none.
func (t tally) tri() tri {
	switch {
	case !t.some:
		return no
	case !t.miss:
		return yes
	}
	return maybe
}
