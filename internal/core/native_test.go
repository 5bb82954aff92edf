package core

import (
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// nativePTX is the hand-written Go twin of the PTX .cat model (design
// decision D5): it mirrors Figs. 15 and 16 directly against the axiom API
// so that a transcription mistake in either implementation is caught by
// their disagreement (see crossCheckPTX).
func nativePTX(x *axiom.Execution) cat.Results {
	union := func(rs ...axiom.Rel) axiom.Rel {
		var out axiom.Rel
		for _, r := range rs {
			out.SetUnion(out, r)
		}
		return out
	}
	filter := func(r axiom.Rel, first, second axiom.Kind) axiom.Rel {
		var out axiom.Rel
		x.SetKindFilter(&out, r, first, second)
		return out
	}
	var co, fr, rfe, poLoc axiom.Rel
	x.SetCoRel(&co)
	x.SetFR(&fr)
	x.SetRFE(&rfe)
	x.SetPoLoc(&poLoc)
	com := union(x.RF, co, fr) // Fig. 15 line 1

	// Fig. 15 line 2-4: SC per location with load-load hazard.
	poLocLLH := union(filter(poLoc, axiom.KWrite, axiom.KWrite),
		filter(poLoc, axiom.KWrite, axiom.KRead),
		filter(poLoc, axiom.KRead, axiom.KWrite))
	scPerLoc := union(poLocLLH, com).Acyclic()

	// Fig. 15 lines 5-6: no thin air.
	dp := union(x.Addr, x.Data, x.Ctrl)
	noThinAir := union(dp, x.RF).Acyclic()

	// Fig. 15 line 7 instantiated per scope (Fig. 16): rmo(fence) =
	// dp | fence | rfe | co | fr, intersected with the scope relation. A
	// fence of scope s' orders at scope s when s' includes s (Fig. 16
	// lines 8-10), so fence(s) unions the membars from s up.
	rmo := func(s ptx.Scope) bool {
		var scope, r axiom.Rel
		x.SetScopeRel(&scope, s)
		r.SetInter(union(dp, union(x.Membar[s:]...), rfe, co, fr), scope)
		return r.Acyclic()
	}

	return cat.Results{
		{Name: "sc-per-loc-llh", Kind: cat.Acyclic, OK: scPerLoc},
		{Name: "no-thin-air", Kind: cat.Acyclic, OK: noThinAir},
		{Name: "cta-constraint", Kind: cat.Acyclic, OK: rmo(ptx.ScopeCTA)},
		{Name: "gl-constraint", Kind: cat.Acyclic, OK: rmo(ptx.ScopeGL)},
		{Name: "sys-constraint", Kind: cat.Acyclic, OK: rmo(ptx.ScopeSys)},
	}
}

// crossCheckPTX evaluates both the compiled .cat PTX model m and the native
// twin on x and reports an error if they disagree.
func crossCheckPTX(m *Model, x *axiom.Execution) error {
	catRes := m.prog.RunExec(x, nil)
	natRes := nativePTX(x)
	if catRes.Allowed() != natRes.Allowed() {
		return fmt.Errorf("core: model %s: cat verdict %v disagrees with native verdict %v\ncat: %s\nnative: %s",
			m.Name, catRes.Allowed(), natRes.Allowed(), catRes, natRes)
	}
	return nil
}
