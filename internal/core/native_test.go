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
	com := x.Com()

	// Fig. 15 line 2-4: SC per location with load-load hazard.
	poLoc := x.PoLoc()
	poLocLLH := x.KindFilter(poLoc, axiom.KWrite, axiom.KWrite).
		Union(x.KindFilter(poLoc, axiom.KWrite, axiom.KRead)).
		Union(x.KindFilter(poLoc, axiom.KRead, axiom.KWrite))
	scPerLoc := poLocLLH.Union(com).Acyclic()

	// Fig. 15 lines 5-6: no thin air.
	dp := x.Dp()
	noThinAir := dp.Union(x.RF).Acyclic()

	// Fig. 15 line 7 instantiated per scope (Fig. 16): rmo(fence) =
	// dp | fence | rfe | co | fr, intersected with the scope relation.
	rmo := func(fence axiom.Rel) axiom.Rel {
		return dp.Union(fence).Union(x.RFE()).Union(x.CoRel()).Union(x.FR())
	}
	rmoCTA := rmo(x.FenceRel(ptx.ScopeCTA)).Inter(x.ScopeRel(ptx.ScopeCTA)).Acyclic()
	rmoGL := rmo(x.FenceRel(ptx.ScopeGL)).Inter(x.ScopeRel(ptx.ScopeGL)).Acyclic()
	rmoSys := rmo(x.FenceRel(ptx.ScopeSys)).Inter(x.ScopeRel(ptx.ScopeSys)).Acyclic()

	return cat.Results{
		{Name: "sc-per-loc-llh", Kind: cat.Acyclic, OK: scPerLoc},
		{Name: "no-thin-air", Kind: cat.Acyclic, OK: noThinAir},
		{Name: "cta-constraint", Kind: cat.Acyclic, OK: rmoCTA},
		{Name: "gl-constraint", Kind: cat.Acyclic, OK: rmoGL},
		{Name: "sys-constraint", Kind: cat.Acyclic, OK: rmoSys},
	}
}

// crossCheckPTX evaluates both the compiled .cat PTX model m and the native
// twin on x and reports an error if they disagree.
func crossCheckPTX(m *Model, x *axiom.Execution) error {
	catRes := m.Allows(x)
	natRes := nativePTX(x)
	if catRes.Allowed() != natRes.Allowed() {
		return fmt.Errorf("core: model %s: cat verdict %v disagrees with native verdict %v\ncat: %s\nnative: %s",
			m.Name, catRes.Allowed(), natRes.Allowed(), catRes, natRes)
	}
	return nil
}
