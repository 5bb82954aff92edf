package diy

import (
	"fmt"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// locNames are the location symbols handed out to cycle locations.
var locNames = []string{"x", "y", "z", "w", "u", "v"}

// event is a node of the cycle during synthesis.
type event struct {
	kind   EvKind
	thread int
	loc    int
	val    int64 // write value, or the value a read must observe
}

// Cycle synthesises a litmus test from a cycle of edges (the core of diy's
// generation): each edge constrains the kinds, threads and locations of the
// adjacent events, writes are numbered per location in cycle order (their
// coherence order), reads observe the value their communication edge
// dictates, and the final condition conjoins those observations.
func Cycle(name string, edges []Edge) (*litmus.Test, error) {
	n := len(edges)
	if n < 2 {
		return nil, fmt.Errorf("diy: cycle needs at least 2 edges")
	}

	// Kind chaining: edge i's destination is edge (i+1)'s source, and the
	// node between them is one event.
	for i, e := range edges {
		next := edges[(i+1)%n]
		if e.Dst != next.Src {
			return nil, fmt.Errorf("diy: edge %s ends at %s but %s starts at %s", e, e.Dst, next, next.Src)
		}
	}

	// Rotate so the cycle starts just after an external edge: thread
	// boundaries then align with the walk.
	start := -1
	for i, e := range edges {
		if e.External {
			start = (i + 1) % n
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("diy: cycle has no external edge")
	}
	rot := make([]Edge, 0, n)
	rot = append(rot, edges[start:]...)
	rot = append(rot, edges[:start]...)
	edges = rot

	// Location arithmetic: every location-changing edge steps to the next
	// location modulo the number of changes around the cycle, so the walk
	// closes (diy's location assignment). A single changing edge cannot
	// close the cycle with genuinely distinct locations.
	changes := 0
	for _, e := range edges {
		if !e.External && !e.SameLoc {
			changes++
		}
	}
	if changes == 1 {
		return nil, fmt.Errorf("diy: a single location-changing edge cannot close the location cycle")
	}
	numLocs := changes
	if numLocs == 0 {
		numLocs = 1
	}
	if numLocs > len(locNames) {
		return nil, fmt.Errorf("diy: cycle uses %d locations, max %d", numLocs, len(locNames))
	}

	// Walk the cycle assigning threads and locations. Event i sits between
	// edges[i-1] and edges[i]; event 0 starts thread 0 and location 0.
	events := make([]event, n)
	events[0] = event{kind: edges[n-1].Dst, thread: 0, loc: 0}
	thread, loc, changed := 0, 0, 0
	for i := 0; i < n-1; i++ {
		e := edges[i]
		if e.External {
			thread++
		}
		if !e.SameLoc && !e.External {
			changed++
			loc = changed % numLocs
		}
		events[i+1] = event{kind: e.Dst, thread: thread, loc: loc}
	}
	// Rotation put an external (same-location) edge last, so the location
	// walk closes by construction; the thread walk closes back to T0.
	if !edges[n-1].External {
		return nil, fmt.Errorf("diy: cycle must wrap on an external edge after rotation")
	}
	numThreads := thread + 1

	// Coherence order per location: writes in cycle-walk order get values
	// 1, 2, ...
	writeSeq := make(map[int][]int) // loc -> event indices of writes
	for i, ev := range events {
		if ev.kind == W {
			writeSeq[ev.loc] = append(writeSeq[ev.loc], i)
			events[i].val = int64(len(writeSeq[ev.loc]))
		}
	}

	// Read observations. A read's incoming Rfe fixes its value to the
	// source write's; otherwise its outgoing Fre makes it read the
	// coherence predecessor of the target write (the initial state when
	// the target is the location's first write). Reads with no
	// communication edge are unconstrained and rejected.
	for i, ev := range events {
		if ev.kind != R {
			continue
		}
		in := edges[(i-1+n)%n]
		out := edges[i]
		switch {
		case in.Name == "Rfe":
			if out.Name == "Fre" && (i+1)%n == (i-1+n)%n {
				return nil, fmt.Errorf("diy: read %d would read from and read before the same write", i)
			}
			src := events[(i-1+n)%n]
			events[i].val = src.val
		case out.Name == "Fre":
			target := events[(i+1)%n]
			events[i].val = target.val - 1
		case in.Name == "PosRR" || out.Name == "PosRR":
			// A same-location read pair: the neighbour read's
			// communication edge constrains this one transitively; find
			// it by scanning outward.
			v, err := posRRValue(events, edges, i)
			if err != nil {
				return nil, err
			}
			events[i].val = v
		default:
			return nil, fmt.Errorf("diy: read event %d has no communication edge", i)
		}
	}

	return buildTest(name, edges, events, numThreads, numLocs, writeSeq)
}

// posRRValue resolves the observed value of a read linked to its
// communication edge through PosRR neighbours: in coRR-style cycles
// (W -Rfe-> R -PosRR-> R -Fre-> W) the middle reads see the Rfe value and
// the final read sees the Fre value; each read adjacent to PosRR takes the
// value from its own non-PosRR side.
func posRRValue(events []event, edges []Edge, i int) (int64, error) {
	n := len(edges)
	in := edges[(i-1+n)%n]
	out := edges[i]
	if in.Name == "Rfe" {
		return events[(i-1+n)%n].val, nil
	}
	if out.Name == "Fre" {
		return events[(i+1)%n].val - 1, nil
	}
	return 0, fmt.Errorf("diy: PosRR read %d has no adjacent communication edge", i)
}

// buildTest renders events into thread programs, a scope tree, a memory
// map and the witnessing final condition.
func buildTest(name string, edges []Edge, events []event, numThreads, numLocs int, writeSeq map[int][]int) (*litmus.Test, error) {
	n := len(edges)
	b := litmus.NewTest(name)
	if name == "" {
		parts := make([]string, n)
		for i, e := range edges {
			parts[i] = e.String()
		}
		b = litmus.NewTest(strings.Join(parts, "+"))
	}
	for l := 0; l < numLocs; l++ {
		b.Global(locNames[l], 0)
	}

	type condAtom struct {
		thread int
		reg    string
		val    int64
	}
	var conds []condAtom

	regn := make([]int, numThreads) // next register number per thread
	predn := make([]int, numThreads)
	lines := make([][]string, numThreads)
	addrRegs := make(map[[2]int]string) // (thread, loc) -> address register

	newReg := func(t int) string {
		regn[t]++
		return fmt.Sprintf("r%d", regn[t])
	}
	newPred := func(t int) string {
		predn[t]++
		return fmt.Sprintf("p%d", predn[t])
	}

	// lastReadReg remembers the destination register of the most recent
	// read per thread, the source of manufactured dependencies.
	lastReadReg := make([]string, numThreads)

	for i, ev := range events {
		t := ev.thread
		locName := locNames[ev.loc]
		in := edges[(i-1+n)%n]

		// Dependency and fence plumbing from the incoming internal edge.
		guard := ""
		addrExpr := "[" + locName + "]"
		valExpr := fmt.Sprintf("%d", ev.val)
		if !in.External && in.Fence != ptx.ScopeNone {
			lines[t] = append(lines[t], "membar."+in.Fence.String())
		}
		if !in.External && in.Dep != NoDep {
			src := lastReadReg[t]
			if src == "" {
				return nil, fmt.Errorf("diy: dependency edge %s with no prior read", in)
			}
			masked := newReg(t)
			lines[t] = append(lines[t], fmt.Sprintf("and %s,%s,0x80000000", masked, src))
			switch in.Dep {
			case DepAddr:
				// Fig. 13b: add the always-zero masked value to an
				// address register bound to the location.
				key := [2]int{t, ev.loc}
				areg, ok := addrRegs[key]
				if !ok {
					areg = fmt.Sprintf("ra%d", ev.loc)
					addrRegs[key] = areg
					b.AddrReg(t, areg, locName)
				}
				wide := newReg(t)
				lines[t] = append(lines[t], fmt.Sprintf("cvt.u64.u32 %s,%s", wide, masked))
				sum := newReg(t)
				lines[t] = append(lines[t], fmt.Sprintf("add %s,%s,%s", sum, areg, wide))
				addrExpr = "[" + sum + "]"
			case DepData:
				if ev.kind != W {
					return nil, fmt.Errorf("diy: data dependency into a read")
				}
				sum := newReg(t)
				lines[t] = append(lines[t], fmt.Sprintf("add %s,%s,%d", sum, masked, ev.val))
				valExpr = sum
			case DepCtrl:
				p := newPred(t)
				lines[t] = append(lines[t], fmt.Sprintf("setp.eq %s,%s,0", p, masked))
				guard = "@" + p + " "
			}
		}

		switch ev.kind {
		case W:
			lines[t] = append(lines[t], fmt.Sprintf("%sst.cg %s,%s", guard, addrExpr, valExpr))
		case R:
			dst := newReg(t)
			lines[t] = append(lines[t], fmt.Sprintf("%sld.cg %s,%s", guard, dst, addrExpr))
			lastReadReg[t] = dst
			conds = append(conds, condAtom{thread: t, reg: dst, val: ev.val})
		}
	}

	for t := 0; t < numThreads; t++ {
		b.Thread(lines[t]...)
	}

	// Scope tree from the external edges' annotations: a :cta edge keeps
	// the next thread in the current CTA, a :dev edge opens a new one.
	var tree litmus.ScopeTree
	cur := litmus.CTAScope{Warps: []litmus.WarpScope{{Threads: []int{0}}}}
	thread := 0
	for i := 0; i < n-1; i++ {
		if !edges[i].External {
			continue
		}
		thread++
		if edges[i].Scope == ScopeCta {
			cur.Warps = append(cur.Warps, litmus.WarpScope{Threads: []int{thread}})
		} else {
			tree.CTAs = append(tree.CTAs, cur)
			cur = litmus.CTAScope{Warps: []litmus.WarpScope{{Threads: []int{thread}}}}
		}
	}
	tree.CTAs = append(tree.CTAs, cur)
	b.Scope(tree)

	// Final condition: read observations plus final memory values
	// witnessing coherence for multiply-written locations, in location
	// order so the same cycle always yields the same test.
	var cs []litmus.Cond
	for _, c := range conds {
		cs = append(cs, litmus.RegEq{Thread: c.thread, Reg: ptx.Reg(c.reg), Val: c.val})
	}
	for loc := 0; loc < numLocs; loc++ {
		if ws := writeSeq[loc]; len(ws) >= 2 {
			cs = append(cs, litmus.MemEq{Loc: ptx.Sym(locNames[loc]), Val: int64(len(ws))})
		}
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("diy: cycle yields no observable condition")
	}
	b.ExistsCond(litmus.And(cs...))
	return b.Build()
}
