package analysis

import (
	"fmt"
	"slices"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// commKind labels a forced communication edge.
type commKind int

const (
	ckRF commKind = iota // write → read
	ckCO                 // write → write (coherence predecessor → successor)
	ckFR                 // read → write (from-read)
)

func (k commKind) String() string {
	switch k {
	case ckRF:
		return "rf"
	case ckCO:
		return "co"
	default:
		return "fr"
	}
}

// commEdge is a communication edge that must appear in every execution
// whose final state satisfies the condition.
type commEdge struct {
	from, to *event
	kind     commKind
}

// forcedCycle looks for a communication cycle forced by the condition
// whose program-order segments are all covered under the policy's
// ordering constraints. A found cycle means no witnessing execution is
// allowed by the model: the verdict is Forbidden.
func (g *graph) forcedCycle(p Policy) (string, bool) {
	if !g.sound {
		return "", false
	}
	atoms, ok := conjAtoms(g.test.Exists)
	if !ok {
		return "", false
	}
	edges, direct := g.forcedEdges(atoms)
	if direct != "" {
		return direct, true
	}
	for _, v := range variantsFor(p) {
		if reason, found := g.findCycle(edges, v); found {
			return reason, true
		}
	}
	return "", false
}

// conjAtoms flattens a pure conjunction into its atoms; any negation or
// disjunction makes the forced-edge reading unsound, so it aborts.
func conjAtoms(c litmus.Cond) ([]litmus.Cond, bool) {
	switch v := c.(type) {
	case litmus.CondAnd:
		l, okL := conjAtoms(v.L)
		r, okR := conjAtoms(v.R)
		return append(l, r...), okL && okR
	case litmus.RegEq, litmus.MemEq:
		return []litmus.Cond{c}, true
	default:
		return nil, false
	}
}

// forcedEdges derives the communication edges every witnessing execution
// must contain, plus (as direct) a Forbidden reason when an atom forces a
// read with no admissible source at all.
func (g *graph) forcedEdges(atoms []litmus.Cond) (edges []commEdge, direct string) {
	for _, a := range atoms {
		switch at := a.(type) {
		case litmus.RegEq:
			if at.Thread < 0 || at.Thread >= len(g.threads) {
				continue
			}
			read := g.source(at.Thread, at.Reg)
			if read == nil {
				continue
			}
			loc, v := g.loc(read.slot), at.Val
			writers := g.writersOf(read.slot, v, read)
			if v != g.test.InitOf(loc) {
				if len(writers) == 0 {
					return nil, fmt.Sprintf("%s forces T%d#%d to read %d from %s, which no admissible write produces",
						at, read.thread, read.instr, v, loc)
				}
				if len(writers) == 1 {
					edges = append(edges, commEdge{from: writers[0], to: read, kind: ckRF})
				}
			} else if len(writers) == 0 {
				// The read is pinned to the initial value, so it is
				// from-read-before every write to the location that
				// certainly executes.
				for _, w := range g.uncondWrites(read.slot) {
					edges = append(edges, commEdge{from: read, to: w, kind: ckFR})
				}
			}
		case litmus.MemEq:
			v, slot := at.Val, int32(g.en.Slots().Loc(at.Loc))
			if slot < 0 || v == g.test.InitOf(at.Loc) {
				continue
			}
			writers := g.writersOf(slot, v, nil)
			if len(writers) != 1 {
				continue
			}
			// The unique producer of the final value is coherence-last:
			// every certainly executed other write precedes it in co.
			last := writers[0]
			for _, w := range g.uncondWrites(slot) {
				if w != last {
					edges = append(edges, commEdge{from: w, to: last, kind: ckCO})
				}
			}
		}
	}
	return edges, ""
}

// writersOf returns the write events to slot that can produce value v and
// could source a read by forRead in some model-allowed execution: a
// same-thread write program-ordered after the read (including its own RMW
// write) would close a po-loc ∪ com cycle every builtin model forbids, so
// it is excluded. A nil forRead applies no exclusion.
func (g *graph) writersOf(slot int32, v int64, forRead *event) []*event {
	var out []*event
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind != axiom.KWrite || ev.slot != slot || !slices.Contains(ev.vals, v) {
				continue
			}
			if forRead != nil && ev.thread == forRead.thread && ev.index > forRead.index {
				continue
			}
			out = append(out, ev)
		}
	}
	return out
}

// uncondWrites returns the writes to slot that occur in every execution.
func (g *graph) uncondWrites(slot int32) []*event {
	var out []*event
	for _, evs := range g.threads {
		for _, ev := range evs {
			if ev.kind == axiom.KWrite && ev.slot == slot && !ev.cond {
				out = append(out, ev)
			}
		}
	}
	return out
}

// covVariant is one acyclicity constraint of a model family, described by
// how a program-order segment between two events counts as ordered and
// which communication edges participate.
type covVariant struct {
	desc string
	// poCovers: any program-order segment is ordered (SC's po | com).
	poCovers bool
	// poLoc: only same-location chains without read-read links are
	// ordered (sc-per-loc-llh); internal rf participates.
	poLoc bool
	// Otherwise: must-dependencies and fences of scope >= minFence order;
	// rf must be external, and sameCTAOnly restricts every communication
	// edge to same-CTA thread pairs (the & cta of rmo-cta).
	minFence    ptx.Scope
	sameCTAOnly bool
	extRF       bool
}

// variantsFor maps a policy to the acyclicity constraints the prefilter
// may exploit.
func variantsFor(p Policy) []covVariant {
	switch p {
	case PolicySC:
		return []covVariant{{desc: "sc (po|com)", poCovers: true}}
	case PolicyFence:
		return []covVariant{
			{desc: "rmo with global fences", minFence: ptx.ScopeCTA, extRF: true},
			{desc: "sc-per-loc-llh", poLoc: true},
		}
	case PolicyScoped:
		return []covVariant{
			{desc: "rmo-gl", minFence: ptx.ScopeGL, extRF: true},
			{desc: "rmo-cta", minFence: ptx.ScopeCTA, sameCTAOnly: true, extRF: true},
			{desc: "sc-per-loc-llh", poLoc: true},
		}
	}
	return nil
}

// admits reports whether a communication edge may participate in the
// variant's constraint relation.
func (g *graph) admits(e commEdge, v covVariant) bool {
	if v.poCovers || v.poLoc {
		return true
	}
	if v.extRF && e.kind == ckRF && e.from.thread == e.to.thread {
		return false
	}
	if v.sameCTAOnly && !g.test.Scope.SameCTA(e.from.thread, e.to.thread) {
		return false
	}
	return true
}

// covered reports whether the program-order segment a..b (same thread,
// a.index <= b.index) is ordered under the variant: by a chain of the
// thread's order closure the variant reads, or by a certainly executed
// fence of scope at least minFence strictly between a and b.
func (g *graph) covered(a, b *event, v covVariant) bool {
	if a.thread != b.thread || a.index > b.index {
		return false
	}
	if a.index == b.index || v.poCovers || g.ordered(a, b, v.poLoc) {
		return true
	}
	if v.poLoc {
		return false
	}
	for _, f := range g.threads[a.thread][a.index+1 : b.index] {
		if f.kind == axiom.KFence && !f.cond && f.scope >= v.minFence {
			return true
		}
	}
	return false
}

// findCycle searches for a cycle alternating forced communication edges
// with covered program-order segments: a cycle in the variant's acyclic
// relation that every witnessing execution must contain.
func (g *graph) findCycle(edges []commEdge, v covVariant) (string, bool) {
	var use []commEdge
	for _, e := range edges {
		if g.admits(e, v) {
			use = append(use, e)
		}
	}
	n := len(use)
	if n == 0 {
		return "", false
	}
	adj := make([][]int, n)
	for i, ei := range use {
		for j, ej := range use {
			if g.covered(ei.to, ej.from, v) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	// DFS for the first back edge; the grey stack recovers the cycle.
	color := make([]int, n) // 0 white, 1 grey, 2 black
	var stack []int
	var cycle []int
	var dfs func(i int) bool
	dfs = func(i int) bool {
		color[i] = 1
		stack = append(stack, i)
		for _, j := range adj[i] {
			if color[j] == 1 {
				for k, s := range stack {
					if s == j {
						cycle = append(cycle, stack[k:]...)
						return true
					}
				}
			}
			if color[j] == 0 && dfs(j) {
				return true
			}
		}
		color[i] = 2
		stack = stack[:len(stack)-1]
		return false
	}
	for i := 0; i < n; i++ {
		if color[i] == 0 && dfs(i) {
			parts := make([]string, len(cycle))
			for k, idx := range cycle {
				e := use[idx]
				parts[k] = fmt.Sprintf("%s %s T%d#%d->T%d#%d", e.kind, g.loc(e.from.slot), e.from.thread, e.from.instr, e.to.thread, e.to.instr)
			}
			return fmt.Sprintf("forced cycle [%s] closed under %s", strings.Join(parts, "; "), v.desc), true
		}
	}
	return "", false
}
