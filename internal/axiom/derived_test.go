package axiom

import (
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// holds reports whether r relates a to b, by a bit test.
func holds(r Rel, a, b EventID) bool {
	return int(a) < r.n && int(b) < r.univ() && r.row(int(a))[int(b)/wordBits]&(1<<(uint(b)%wordBits)) != 0
}

// defined returns the pairs (a, b) of events of x, in ascending order,
// that satisfy keep: a relation read straight off its definition.
func defined(x *Execution, keep func(a, b *Event) bool) [][2]EventID {
	var ps [][2]EventID
	for _, a := range x.Events {
		for _, b := range x.Events {
			if keep(a, b) {
				ps = append(ps, [2]EventID{a.ID, b.ID})
			}
		}
	}
	return ps
}

// TestDerivedRelationsMatchDefinitions pins the Set* builders against
// their definitions on every execution of the paper tests, the shapes and
// litmustest.LongPath (up to 136 events, three words wide). Each builder
// writes into one destination for the whole corpus, so storage a wider or
// denser execution left behind must never show through.
func TestDerivedRelationsMatchDefinitions(t *testing.T) {
	tests := append(litmus.PaperTests(), litmustest.LongPath())
	tests = append(tests, litmustest.Shapes()...)
	var poLoc, rfe, scope, filtered Rel
	kinds := []Kind{KRead, KWrite, KFence}
	for _, test := range tests {
		execs, err := Enumerate(test, DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for i, x := range execs {
			check := func(what string, got Rel, want [][2]EventID) {
				t.Helper()
				if g := got.Pairs(); !slices.Equal(g, want) {
					t.Fatalf("%s execution %d: %s %v, want %v", test.Name, i, what, g, want)
				}
			}
			x.SetPoLoc(&poLoc)
			check("po-loc", poLoc, defined(x, func(a, b *Event) bool {
				return holds(x.PO, a.ID, b.ID) && a.IsMem() && b.IsMem() && a.Slot == b.Slot
			}))
			x.SetRFE(&rfe)
			check("rfe", rfe, defined(x, func(a, b *Event) bool {
				return holds(x.RF, a.ID, b.ID) && a.Thread != b.Thread
			}))
			for s := ptx.ScopeNone; s <= ptx.ScopeSys; s++ {
				x.SetScopeRel(&scope, s)
				check(s.String(), scope, defined(x, func(a, b *Event) bool {
					switch {
					case a == b:
						return false
					case s == ptx.ScopeCTA:
						return a.Thread == b.Thread || test.Scope.SameCTA(a.Thread, b.Thread)
					}
					return s == ptx.ScopeGL || s == ptx.ScopeSys
				}))
			}
			for _, r := range []Rel{x.PO, poLoc, x.RF} {
				for _, first := range kinds {
					for _, second := range kinds {
						x.SetKindFilter(&filtered, r, first, second)
						check("kind filter", filtered, defined(x, func(a, b *Event) bool {
							return holds(r, a.ID, b.ID) && a.Kind == first && b.Kind == second
						}))
					}
				}
			}
		}
	}
}

// TestSetKindFilterNoAlloc: with a warm destination, the kind filter
// builds its column mask without allocating, on the stack for a litmus
// execution and in pooled scratch past 256 events.
func TestSetKindFilterNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	for _, writers := range []int{2, 150} {
		x := wideExec(writers)
		var dst Rel
		x.SetKindFilter(&dst, x.PO, KWrite, KRead) // warm destination storage and pool
		if allocs := testing.AllocsPerRun(100, func() { x.SetKindFilter(&dst, x.PO, KWrite, KRead) }); allocs != 0 {
			t.Errorf("%d events: SetKindFilter allocates %.1f objects per call, want 0", len(x.Events), allocs)
		}
		if got := dst.Size(); got != writers {
			t.Errorf("%d events: WR(po) has %d pairs, want %d", len(x.Events), got, writers)
		}
	}
}
