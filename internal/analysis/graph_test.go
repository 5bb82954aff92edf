package analysis

import (
	"errors"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// FuzzGraphCoversExecutions holds the static graph to the judge's
// candidate executions on arbitrary litmus sources, seeded from
// litmustest.All and a test of guarded instructions. For every
// branch-free source the parser accepts and the enumerator can prepare
// with at most 4096 path combinations, over the candidates of the
// exhaustive stream (every combination, and up to 4096 candidates):
//   - each event is an occurrence of a static event, and a written value
//     is in that event's value set;
//   - each static event that is not cond occurs;
//   - each must-dependency between two occurring events is present;
//   - a yes or no from evalCond, for the condition and for each of its
//     atoms, agrees with the final state.
//
// Plain go test runs the seeds; CI runs a 15 s burst next to FuzzPrefilter.
func FuzzGraphCoversExecutions(f *testing.F) {
	for _, t := range litmustest.All() {
		f.Add(t.String())
	}
	// Guarded instructions: the store's data dependency on the load of y
	// holds on the paths where r1 is set, and only there; r4 is 0 where r1
	// is set and an address, missing from the final state, where it is not.
	f.Add(`GPU_PTX guarded
{0:.reg .s32 r1; 0:.reg .s32 r2; 0:.reg .s32 r3; 0:.reg .b64 r4 = w;}
 T0            | T1          ;
 ld.cg r1,[x]  | st.cg [x],1 ;
 ld.cg r2,[y]  | st.cg [y],1 ;
 @r1 mov r3,r2 |             ;
 st.cg [z],r3  |             ;
 @r1 mov r4,0  |             ;
ScopeTree(grid(cta(warp T0)) (cta(warp T1)))
w: global, x: global, y: global, z: global
exists (z=1 \/ 0:r4=0)
`)
	f.Fuzz(func(t *testing.T, src string) {
		test, err := litmus.Parse(src)
		if err != nil || branches(test) {
			return
		}
		en, err := axiom.Prepare(test, axiom.Opts{Exhaustive: true})
		if err != nil || en.Combos() > 4096 {
			return
		}
		g := buildGraph(test, en, true)
		conds := append([]litmus.Cond{test.Exists}, litmus.CondAtoms(test.Exists)...)
		claims := make([]tri, len(conds))
		for i, c := range conds {
			claims[i] = g.evalCond(c)
		}
		// Events and dependencies are fixed per path combination, so the
		// first candidate of each is checked against the graph; every
		// candidate's final state is checked against evalCond, up to 4096.
		var a axiom.Assembler
		n := 0
		for combo := 0; combo < en.Combos() && n < 4096; combo++ {
			first := true
			_ = en.StreamCombo(combo, &a, func(x *axiom.Execution) error {
				if first {
					checkCovers(t, g, x)
					first = false
				}
				for i, c := range conds {
					if holds := c.Eval(x.Final); claims[i] == yes && !holds || claims[i] == no && holds {
						t.Fatalf("evalCond(%v) = %d, but an execution's final state gives %v\n%s", c, claims[i], holds, src)
					}
				}
				if n++; n == 4096 {
					return errEnough
				}
				return nil
			})
		}
	})
}

// errEnough stops a candidate stream once enough has been checked.
var errEnough = errors.New("enough candidates checked")

// checkCovers fails t unless the execution's events and dependencies are
// covered by g's static events as FuzzGraphCoversExecutions states.
func checkCovers(t *testing.T, g *graph, x *axiom.Execution) {
	t.Helper()
	// at maps each static event to its occurrence in x, if any.
	at := make(map[*event]axiom.EventID)
	for _, ev := range x.Events {
		pe := axiom.PathEvent{Instr: ev.Instr, Kind: ev.Kind, Slot: ev.Slot}
		i := indexOf(g.threads[ev.Thread], &pe)
		if i < 0 {
			t.Fatalf("%s: execution event %s (T%d#%d) has no static event", x.Test.Name, ev, ev.Thread, ev.Instr)
		}
		e := g.threads[ev.Thread][i]
		if e.kind == axiom.KWrite && !slices.Contains(e.vals, ev.Val) {
			t.Fatalf("%s: T%d#%d writes %d, outside its static values %v", x.Test.Name, ev.Thread, ev.Instr, ev.Val, e.vals)
		}
		at[e] = ev.ID
	}
	for _, evs := range g.threads {
		for _, e := range evs {
			id, ok := at[e]
			if !ok {
				if !e.cond {
					t.Fatalf("%s: T%d#%d is not cond, but an execution skips it", x.Test.Name, e.thread, e.instr)
				}
				continue
			}
			for _, dep := range []struct {
				name string
				rel  axiom.Rel
				from []int
			}{{"addr", x.Addr, e.addrDeps}, {"data", x.Data, e.dataDeps}, {"ctrl", x.Ctrl, e.ctrlDeps}} {
				for _, d := range dep.from {
					if src, ok := at[evs[d]]; ok && !slices.Contains(dep.rel.Pairs(), [2]axiom.EventID{src, id}) {
						t.Fatalf("%s: must %s dependency T%d#%d -> T%d#%d missing from an execution", x.Test.Name, dep.name, e.thread, evs[d].instr, e.thread, e.instr)
					}
				}
			}
		}
	}
}
