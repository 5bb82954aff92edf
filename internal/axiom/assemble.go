package axiom

import (
	"fmt"
	"math"
	"time"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// This file assembles path combinations into candidate executions. The
// construction is layered by how much of it each completion shares:
//
//   - per combo (skeleton): the event slab, po/deps/rmw/membar relations,
//     final registers, writer indexes, coherence permutations and the RMW
//     atomicity plan are built once and shared by every rf/co completion;
//   - per rf choice: the rf relation, init-read set, read→source index and
//     the rfe memo are built once and shared by every coherence completion
//     of that choice;
//   - per execution: only what genuinely varies — the Execution header, its
//     coherence map and its final memory.
//
// Everything not retained by yielded executions lives in a reusable
// Assembler, so a steady-state producer allocates only what it hands out.

// Assembler is the reusable construction scratch for StreamCombo. The zero
// value is ready for use; an Assembler must not be used concurrently (give
// each producer worker its own).
type Assembler struct {
	pick    []int                 // decoded per-thread path choice
	base    []int                 // per-thread global event-id offset
	writers map[ptx.Sym][]EventID // per-location writers of the current skeleton
	wlocs   []ptx.Sym             // locations with writers, sorted
	perLoc  [][][]EventID         // coherence permutations per wloc (fresh per combo: retained via CO)
	choices []rfChoice            // rf choices of the current skeleton
	rfPick  []EventID             // current rf source per choice
	coSel   []int                 // current permutation index per wloc
	coPos   []int32               // write -> position in its location's coherence order
	rmwChk  [][2]EventID          // rmw (read, write) pairs subject to the atomicity filter

	// Symmetry-pruning state (detectClasses). classes lists each class's
	// member writes in ascending event-id order; classOf maps an event to
	// its class (-1 outside every class); locCls indexes classes by wloc.
	// used/usedCnt track which members the rf assignment under construction
	// references, driving the restricted-growth canonical form; mult is the
	// per-skeleton orbit size every emitted execution carries as its Mult.
	classes [][]EventID
	classOf []int32
	locCls  [][]int
	used    []bool
	usedCnt []int
	mult    int
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// comboState is the per-combo construction state: the skeleton carrier
// execution plus everything shared across its completions. The carrier and
// the fields marked "retained" outlive the combo (yielded executions alias
// them); the rest is Assembler scratch.
type comboState struct {
	x    *Execution                // skeleton carrier (retained via field sharing)
	evs  []Event                   // event slab backing x.Events (retained)
	regs map[int]map[ptx.Reg]int64 // final registers, shared by every completion (retained)
}

// StreamCombo assembles path combination combo and streams its rf/co
// completions to emit, in the canonical order (rf choices in read order ×
// coherence permutations per sorted location). Combination indices stream
// in exactly Enumerate's order; StreamCombo(0..Combos()-1) back to back
// reproduces the full enumeration byte for byte. emit errors abort the
// combination and are returned verbatim. No MaxExecs bound is applied here
// — drivers enforce it themselves (see StreamCtx and BoundError).
func (en *Enumeration) StreamCombo(combo int, a *Assembler, emit func(*Execution) error) error {
	if combo < 0 || combo >= en.combos {
		return fmt.Errorf("axiom: path combination %d out of range [0,%d)", combo, en.combos)
	}
	if en.tracer.Enabled() {
		var flush func()
		emit, flush = en.traceEmit(emit)
		defer flush()
	}
	en.decodeCombo(combo, a)
	cs, ok := en.buildSkeleton(a)
	if !ok {
		return nil // some read's value is unjustifiable: no execution from this combo
	}
	en.traceSkeleton(a)
	return en.enumerateRFFrom(a, cs, 0, emit)
}

// traceEmit wraps emit for a traced production run: time outside the
// yield accrues to PhaseEnumerate (the stopwatch pauses while the
// consumer holds the execution), and each yielded representative counts
// its orbit into the candidate/visited/pruned-weight ledger — the same
// weighted accounting core.Verdict reports. Only called when the tracer
// is enabled; flush banks the tail segment after the last yield.
func (en *Enumeration) traceEmit(emit func(*Execution) error) (wrapped func(*Execution) error, flush func()) {
	tr := en.tracer
	t0 := time.Now()
	wrapped = func(x *Execution) error {
		w := int64(x.Weight())
		tr.Add(obs.CtrCandidates, w)
		tr.Add(obs.CtrVisited, 1)
		if w > 1 {
			tr.Add(obs.CtrPrunedWeight, w-1)
		}
		tr.AddPhase(obs.PhaseEnumerate, time.Since(t0))
		err := emit(x)
		t0 = time.Now()
		return err
	}
	flush = func() { tr.AddPhase(obs.PhaseEnumerate, time.Since(t0)) }
	return wrapped, flush
}

// traceSkeleton records one streamed skeleton's production counters:
// the combination itself and its candidate rf sources.
func (en *Enumeration) traceSkeleton(a *Assembler) {
	tr := en.tracer
	if !tr.Enabled() {
		return
	}
	tr.Add(obs.CtrCombos, 1)
	var rf int64
	for _, c := range a.choices {
		rf += int64(len(c.srcs))
	}
	tr.Add(obs.CtrRFChoices, rf)
}

// decodeCombo writes the per-thread path choices of combination combo into
// a.pick (thread 0's choice is the most significant digit).
func (en *Enumeration) decodeCombo(combo int, a *Assembler) {
	nt := len(en.paths)
	a.pick = resizeInts(a.pick, nt)
	c := combo
	for tid := nt - 1; tid >= 0; tid-- {
		r := len(en.paths[tid])
		a.pick[tid] = c % r
		c /= r
	}
}

// ComboChunks reports how combination combo's rf cross product splits into
// independently streamable chunks — one per candidate source of the first
// rf choice — together with an estimate of the combination's completion
// count before pruning (rf choices × coherence permutations, saturating).
// Dead combinations (a read with no source) report zero chunks;
// combinations with no rf choices report one. Chunk indices [0, chunks)
// passed to StreamComboChunk reproduce StreamCombo(combo) exactly, in
// order. The Assembler is scratch, as in StreamCombo.
func (en *Enumeration) ComboChunks(combo int, a *Assembler) (chunks, estimate int) {
	if combo < 0 || combo >= en.combos {
		return 0, 0
	}
	en.decodeCombo(combo, a)
	if _, ok := en.buildSkeleton(a); !ok {
		return 0, 0
	}
	estimate = 1
	for _, c := range a.choices {
		estimate = mulSat(estimate, len(c.srcs))
	}
	for _, perms := range a.perLoc {
		estimate = mulSat(estimate, len(perms))
	}
	if len(a.choices) == 0 {
		return 1, estimate
	}
	return len(a.choices[0].srcs), estimate
}

// StreamComboChunk streams the chunk-th slice of combination combo: the
// rf/co completions whose first rf choice picks its chunk-th candidate
// source. Concatenating chunks 0..chunks-1 reproduces StreamCombo(combo)
// byte for byte — the chunk split follows the first choice's source order,
// the outermost digit of the rf cross product — which is what lets a
// single-combination test with a huge rf/co space fan out across workers
// (see internal/core's chunked fold). Under pruning, a chunk whose leading
// source is a non-canonical class member is empty: its completions are
// accounted for by a canonical chunk's weights.
func (en *Enumeration) StreamComboChunk(combo, chunk int, a *Assembler, emit func(*Execution) error) error {
	if combo < 0 || combo >= en.combos {
		return fmt.Errorf("axiom: path combination %d out of range [0,%d)", combo, en.combos)
	}
	if en.tracer.Enabled() {
		var flush func()
		emit, flush = en.traceEmit(emit)
		defer flush()
	}
	en.decodeCombo(combo, a)
	cs, ok := en.buildSkeleton(a)
	if !ok {
		return nil // dead combination: every chunk is empty
	}
	if chunk == 0 {
		// The skeleton is rebuilt per chunk; count the combination and its
		// rf choices once, on the first chunk, so chunked production
		// reports the same ledger as StreamCombo.
		en.traceSkeleton(a)
	}
	if len(a.choices) == 0 {
		if chunk != 0 {
			return fmt.Errorf("axiom: chunk %d out of range [0,1) for combination %d", chunk, combo)
		}
		return en.enumerateRFFrom(a, cs, 0, emit)
	}
	srcs := a.choices[0].srcs
	if chunk < 0 || chunk >= len(srcs) {
		return fmt.Errorf("axiom: chunk %d out of range [0,%d) for combination %d", chunk, len(srcs), combo)
	}
	s := srcs[chunk]
	a.rfPick[0] = s
	if s >= 0 {
		if ci := a.classOf[s]; ci >= 0 {
			// Seed the restricted-growth state for the fixed leading digit:
			// only the class's first member is canonical as an introduction.
			if s != a.classes[ci][0] {
				return nil
			}
			a.used[s] = true
			a.usedCnt[ci]++
			defer func() { a.used[s] = false; a.usedCnt[ci]-- }()
		}
	}
	return en.enumerateRFFrom(a, cs, 1, emit)
}

// buildSkeleton constructs the combo's skeleton — events, program order,
// dependencies, fences, final registers, writer indexes, coherence
// permutations, rf choices and the RMW atomicity plan. It reports ok=false
// when some read has no possible source (the combo yields no executions).
func (en *Enumeration) buildSkeleton(a *Assembler) (comboState, bool) {
	nt := len(en.paths)
	a.base = resizeInts(a.base, nt)
	n := 0
	for tid := 0; tid < nt; tid++ {
		a.base[tid] = n
		n += len(en.paths[tid][a.pick[tid]].events)
	}

	evs := make([]Event, n)
	ptrs := make([]*Event, n)
	x := &Execution{
		Test:   en.test,
		Events: ptrs,
		Membar: map[ptx.Scope]Rel{ptx.ScopeCTA: NewRel(), ptx.ScopeGL: NewRel(), ptx.ScopeSys: NewRel()},
		// One shared memo for the skeleton-derived relations (po-loc, dp,
		// scope, fence, kind masks): every rf/co completion reuses it
		// instead of recomputing them per execution.
		shared: &sharedRels{},
	}
	if n > wordBits {
		// Multi-word universes: pre-size the skeleton relations once instead
		// of re-growing them Add by Add.
		for _, r := range []*Rel{&x.PO, &x.Addr, &x.Data, &x.Ctrl, &x.RMW} {
			r.ensure(EventID(n - 1))
		}
	}
	regs := make(map[int]map[ptx.Reg]int64, nt)

	for tid := 0; tid < nt; tid++ {
		p := &en.paths[tid][a.pick[tid]]
		b := a.base[tid]
		for i := range p.events {
			pe := &p.events[i]
			id := EventID(b + i)
			evs[id] = Event{
				ID: id, Thread: tid, PoIdx: i, Kind: pe.kind,
				Loc: pe.loc, Val: pe.val, CacheOp: pe.cacheOp,
				Volatile: pe.volatile, Atomic: pe.atomic, Scope: pe.scope,
				Instr: pe.instr,
			}
			ptrs[id] = &evs[id]
		}
		if len(p.regs) > 0 {
			// Alias the path's final registers: threadPath.regs is immutable
			// after Prepare and Final is documented read-only, so every
			// combination choosing this path shares one map.
			regs[tid] = p.regs
		}

		// Program order, dependencies and rmw pairs.
		for i := range p.events {
			id := EventID(b + i)
			for j := i + 1; j < len(p.events); j++ {
				x.PO.Add(id, EventID(b+j))
			}
			pe := &p.events[i]
			for _, d := range pe.addrDeps {
				x.Addr.Add(EventID(b+d), id)
			}
			for _, d := range pe.dataDeps {
				x.Data.Add(EventID(b+d), id)
			}
			for _, d := range pe.ctrlDeps {
				x.Ctrl.Add(EventID(b+d), id)
			}
			if pe.rmwRead >= 0 {
				x.RMW.Add(EventID(b+pe.rmwRead), id)
			}
		}
		// membar.S relates memory events separated by a fence of scope S.
		for k := range p.events {
			if p.events[k].kind != KFence {
				continue
			}
			rel := x.Membar[p.events[k].scope]
			for i := 0; i < k; i++ {
				if !p.events[i].isMem() {
					continue
				}
				for j := k + 1; j < len(p.events); j++ {
					if !p.events[j].isMem() {
						continue
					}
					rel.Add(EventID(b+i), EventID(b+j))
				}
			}
			x.Membar[p.events[k].scope] = rel
		}
	}

	// Writer indexes and per-location coherence permutations (shared by
	// every rf choice — the old producer rebuilt both per rf assignment).
	if a.writers == nil {
		a.writers = make(map[ptx.Sym][]EventID)
	}
	//detmap:ignore truncates every entry in place; the order cannot escape.
	for loc, w := range a.writers {
		a.writers[loc] = w[:0]
	}
	for _, ev := range ptrs {
		if ev.Kind == KWrite {
			a.writers[ev.Loc] = append(a.writers[ev.Loc], ev.ID)
		}
	}
	a.wlocs = a.wlocs[:0]
	//detmap:ignore collected keys are sorted by sortSyms just below.
	for loc, w := range a.writers {
		if len(w) > 0 {
			a.wlocs = append(a.wlocs, loc)
		}
	}
	sortSyms(a.wlocs)
	if cap(a.perLoc) < len(a.wlocs) {
		a.perLoc = make([][][]EventID, len(a.wlocs))
	}
	a.perLoc = a.perLoc[:len(a.wlocs)]
	for i, loc := range a.wlocs {
		a.perLoc[i] = permutations(a.writers[loc])
	}

	// rf choices: each read picks a same-location same-value write, or the
	// initial state when the value matches the initial value.
	a.choices = a.choices[:0]
	for _, ev := range ptrs {
		if ev.Kind != KRead {
			continue
		}
		var srcs []EventID
		if len(a.choices) < cap(a.choices) {
			srcs = a.choices[:len(a.choices)+1][len(a.choices)].srcs[:0]
		}
		if ev.Val == en.test.InitOf(ev.Loc) {
			srcs = append(srcs, -1)
		}
		for _, w := range a.writers[ev.Loc] {
			if evs[w].Val == ev.Val {
				srcs = append(srcs, w)
			}
		}
		if len(srcs) == 0 {
			return comboState{}, false
		}
		a.choices = append(a.choices, rfChoice{read: ev.ID, srcs: srcs})
	}

	// The RMW atomicity plan: pairs on locations whose writes are all
	// atomic (the guarantee is annulled for locations plain stores also
	// access, Sec. 3.2.3). Computed once per skeleton; checked per
	// completion against the coherence positions.
	a.rmwChk = a.rmwChk[:0]
	x.RMW.Each(func(r, w EventID) {
		loc := evs[w].Loc
		for _, wr := range a.writers[loc] {
			if !evs[wr].Atomic {
				return
			}
		}
		a.rmwChk = append(a.rmwChk, [2]EventID{r, w})
	})

	en.detectClasses(a, evs)

	if cap(a.rfPick) < len(a.choices) {
		a.rfPick = make([]EventID, len(a.choices))
	}
	a.rfPick = a.rfPick[:len(a.choices)]

	return comboState{x: x, evs: evs, regs: regs}, true
}

// detectClasses finds the skeleton's symmetry classes: groups of ≥2 writes
// to one location that are pairwise interchangeable, meaning an execution
// isomorphism may permute them freely. The conditions make the swap
// invisible to every relation and to the final state:
//
//   - same location, value, cache operator, volatility and scope: the
//     events are identical up to identity, so rf sources stay value-valid,
//     kind/annotation filters agree, and the coherence-last write of the
//     location yields the same final memory whichever member lands last;
//   - non-atomic: the write is outside every RMW pair, and its presence
//     already annuls the location's atomicity plan symmetrically;
//   - the sole event of its thread: its po, dependency, fence and rmw rows
//     are empty, so the skeleton relations cannot tell members apart;
//   - CTA-compatible threads: every other thread sees the two members'
//     threads in the same CTA relation (ctaCompatible), so the scope
//     relations are preserved under the swap. This compatibility is
//     transitive across a class (see ctaCompatible), which is what makes
//     greedy grouping against a representative sound.
//
// The full symmetry group — independent permutations within each class —
// acts freely on the skeleton's (rf, co) completions: a permutation fixing
// a total coherence order over the members it permutes is the identity.
// Every orbit therefore has exactly ∏ |class|! members (a.mult), and the
// rf/co enumeration keeps exactly one canonical representative per orbit
// (enumerateRFFrom, coCanonical), stamping a.mult into Execution.Mult.
//
// With Opts.Exhaustive the grouping is skipped (mult 1, no classes) and
// the producer degenerates to the exhaustive enumeration.
func (en *Enumeration) detectClasses(a *Assembler, evs []Event) {
	n := len(evs)
	if cap(a.classOf) < n {
		a.classOf = make([]int32, n)
	}
	a.classOf = a.classOf[:n]
	for i := range a.classOf {
		a.classOf[i] = -1
	}
	if cap(a.used) < n {
		a.used = make([]bool, n)
	}
	a.used = a.used[:n]
	for i := range a.used {
		a.used[i] = false
	}
	a.classes = a.classes[:0]
	if cap(a.locCls) < len(a.wlocs) {
		a.locCls = make([][]int, len(a.wlocs))
	}
	a.locCls = a.locCls[:len(a.wlocs)]
	for i := range a.locCls {
		a.locCls[i] = a.locCls[i][:0]
	}
	a.mult = 1
	if en.opts.Exhaustive {
		a.usedCnt = a.usedCnt[:0]
		return
	}

	for li, loc := range a.wlocs {
		for _, w := range a.writers[loc] {
			ev := &evs[w]
			if ev.Atomic || len(en.paths[ev.Thread][a.pick[ev.Thread]].events) != 1 {
				continue
			}
			joined := false
			for _, c := range a.locCls[li] {
				rep := &evs[a.classes[c][0]]
				if rep.Val != ev.Val || rep.CacheOp != ev.CacheOp ||
					rep.Volatile != ev.Volatile || rep.Scope != ev.Scope {
					continue
				}
				if !en.ctaCompatible(rep.Thread, ev.Thread) {
					continue
				}
				// Members stay ascending: writers[loc] is in event-id order.
				a.classes[c] = append(a.classes[c], w)
				a.classOf[w] = int32(c)
				joined = true
				break
			}
			if !joined {
				var members []EventID
				if len(a.classes) < cap(a.classes) {
					members = a.classes[:len(a.classes)+1][len(a.classes)][:0]
				}
				a.classOf[w] = int32(len(a.classes))
				a.classes = append(a.classes, append(members, w))
				a.locCls[li] = append(a.locCls[li], len(a.classes)-1)
			}
		}
	}
	if cap(a.usedCnt) < len(a.classes) {
		a.usedCnt = make([]int, len(a.classes))
	}
	a.usedCnt = a.usedCnt[:len(a.classes)]
	for i, members := range a.classes {
		a.usedCnt[i] = 0
		for k := 2; k <= len(members); k++ {
			a.mult = mulSat(a.mult, k)
		}
	}
}

// ctaCompatible reports whether threads t1 and t2 may exchange their solo
// writes without disturbing the scope relations: every other thread must
// stand in the same CTA relation to both (the t1–t2 relation itself is
// symmetric, so the swap preserves it trivially). The induced relation
// "same event identity and CTA-compatible" is transitive: for candidates
// A~B and B~C, any fourth thread agrees on A and C via B, and A, B, C
// agree pairwise by applying each relation with the third as the external
// thread — so grouping greedily against a class representative builds
// genuine equivalence classes.
func (en *Enumeration) ctaCompatible(t1, t2 int) bool {
	for c := range en.paths {
		if c == t1 || c == t2 {
			continue
		}
		if en.test.Scope.SameCTA(t1, c) != en.test.Scope.SameCTA(t2, c) {
			return false
		}
	}
	return true
}

// mulSat multiplies non-negative counts, saturating at MaxInt. Saturation
// only triggers past MaxExecs-scale products, where every driver fails
// with BoundError before the count's exact value could matter.
func mulSat(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// rfChoice records the candidate read-from sources for one read; -1 encodes
// the initial state.
type rfChoice struct {
	read EventID
	srcs []EventID
}

func (pe pathEvent) isMem() bool { return pe.kind == KRead || pe.kind == KWrite }

// enumerateRFFrom walks the cross product of rf sources for choices
// [start, len), with earlier choices already fixed in a.rfPick and their
// class usage recorded (StreamCombo enters at 0; StreamComboChunk seeds
// choice 0 and enters at 1). Symmetry-class members are pruned to a
// restricted-growth canonical form: a read may pick any member already in
// use, but may only introduce a class's least unused member — used members
// are therefore always an ascending prefix of the class, every orbit of
// interchangeable assignments survives as exactly its lexicographically
// first member, and that member is the first the exhaustive order would
// have produced. At each complete assignment it materialises the
// per-choice shared state — the rf relation, init-read set, read→source
// index and rfe memo, all shared by every coherence completion — and
// descends into coherence enumeration.
func (en *Enumeration) enumerateRFFrom(a *Assembler, cs comboState, start int, emit func(*Execution) error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(a.choices) {
			return en.enumerateCO(a, cs, emit)
		}
		for _, s := range a.choices[i].srcs {
			ci := int32(-1)
			if s >= 0 {
				ci = a.classOf[s]
			}
			a.rfPick[i] = s
			if ci >= 0 && !a.used[s] {
				if s != a.classes[ci][a.usedCnt[ci]] {
					continue // not the least unused member: a smaller orbit twin exists
				}
				a.used[s] = true
				a.usedCnt[ci]++
				err := rec(i + 1)
				a.used[s] = false
				a.usedCnt[ci]--
				if err != nil {
					return err
				}
				continue
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(start)
}

// enumerateCO enumerates the per-location coherence orders for the current
// rf choice, applying the symmetry-canonicality filter (coCanonical) and
// the built-in RMW atomicity filter, and streams each surviving execution
// to emit with the skeleton's orbit size as its Mult.
func (en *Enumeration) enumerateCO(a *Assembler, cs comboState, emit func(*Execution) error) error {
	n := len(cs.evs)

	// Per-rf-choice shared state, retained by the executions built below.
	var rf Rel
	var initReads map[EventID]bool
	srcOf := make([]int32, n)
	for i := range srcOf {
		srcOf[i] = -1
	}
	for i, c := range a.choices {
		if s := a.rfPick[i]; s < 0 {
			if initReads == nil {
				initReads = make(map[EventID]bool)
			}
			initReads[c.read] = true
		} else {
			rf.Add(s, c.read)
			srcOf[c.read] = int32(s)
		}
	}
	rfSh := &rfRels{}

	if cap(a.coPos) < n {
		a.coPos = make([]int32, n)
	}
	a.coSel = resizeInts(a.coSel, len(a.wlocs))

	var rec func(i int) error
	rec = func(i int) error {
		if i < len(a.wlocs) {
			for pi := range a.perLoc[i] {
				if !a.coCanonical(i, a.perLoc[i][pi]) {
					continue
				}
				a.coSel[i] = pi
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}

		// Coherence positions for this completion, then the atomicity
		// filter: an atomic RMW's write must directly follow its read's
		// source in coherence.
		coPos := a.coPos[:n]
		for li := range a.wlocs {
			for pos, w := range a.perLoc[li][a.coSel[li]] {
				coPos[w] = int32(pos)
			}
		}
		for _, pr := range a.rmwChk {
			srcPos := int32(-1)
			if s := srcOf[pr[0]]; s >= 0 {
				srcPos = coPos[s]
			}
			if coPos[pr[1]] != srcPos+1 {
				return nil
			}
		}

		sk := cs.x
		co := make(map[ptx.Sym][]EventID, len(a.wlocs))
		for li, loc := range a.wlocs {
			co[loc] = a.perLoc[li][a.coSel[li]]
		}
		// Final state: registers are the combo-shared map (read-only by
		// construction); memory is the coherence-last write per location
		// (or the initial value).
		mem := make(map[ptx.Sym]int64, len(en.locs))
		for _, loc := range en.locs {
			if order := co[loc]; len(order) > 0 {
				mem[loc] = cs.evs[order[len(order)-1]].Val
			} else {
				mem[loc] = en.test.InitOf(loc)
			}
		}
		x := &Execution{
			Test:      sk.Test,
			Events:    sk.Events,
			PO:        sk.PO,
			Addr:      sk.Addr,
			Data:      sk.Data,
			Ctrl:      sk.Ctrl,
			RMW:       sk.RMW,
			Membar:    sk.Membar,
			RF:        rf,
			InitReads: initReads,
			CO:        co,
			Final:     &litmus.MapState{Regs: cs.regs, Memv: mem},
			Mult:      a.mult,
			shared:    sk.shared,
			rfShared:  rfSh,
			srcOf:     srcOf,
		}
		return emit(x)
	}
	return rec(0)
}

// coCanonical reports whether the given coherence permutation of wloc li is
// the canonical member of its orbit under the stabiliser of the current rf
// assignment. The stabiliser permutes exactly the rf-unused members of each
// symmetry class (used members are pinned: moving one changes rf), so the
// canonical — lexicographically first — permutation is the one whose unused
// members appear in ascending event-id order. Each surviving permutation
// stands for |class|!/|used|!-per-class twins, all counted by a.mult at the
// orbit level.
func (a *Assembler) coCanonical(li int, perm []EventID) bool {
	for _, c := range a.locCls[li] {
		if len(a.classes[c]) < 2 {
			continue
		}
		prev := EventID(-1)
		for _, w := range perm {
			if a.classOf[w] != int32(c) || a.used[w] {
				continue
			}
			if w < prev {
				return false
			}
			prev = w
		}
	}
	return true
}

func sortSyms(syms []ptx.Sym) {
	for i := 1; i < len(syms); i++ {
		for j := i; j > 0 && syms[j] < syms[j-1]; j-- {
			syms[j], syms[j-1] = syms[j-1], syms[j]
		}
	}
}

// permutations returns all orderings of ids (n! for n ids; litmus tests
// have at most a handful of writes per location), in lexicographic order of
// the positions taken from ids: ordering k is the k-th permutation of the
// indexes 0..n-1. The orderings share one backing array, so a location's
// orderings cost two allocations whatever n is.
func permutations(ids []EventID) [][]EventID {
	n := len(ids)
	if n == 0 {
		return [][]EventID{nil}
	}
	count := 1
	for i := 2; i <= n; i++ {
		count *= i
	}
	flat := make([]EventID, count*n)
	out := make([][]EventID, count)
	var buf [8]int
	idx := buf[:0]
	if n > len(buf) {
		idx = make([]int, 0, n)
	}
	for i := range n {
		idx = append(idx, i)
	}
	for k := range out {
		row := flat[k*n : (k+1)*n : (k+1)*n]
		for j, i := range idx {
			row[j] = ids[i]
		}
		out[k] = row
		nextPermutation(idx)
	}
	return out
}

// nextPermutation steps idx to its lexicographic successor; it leaves the
// last permutation (descending) unchanged.
func nextPermutation(idx []int) {
	i := len(idx) - 2
	for i >= 0 && idx[i] >= idx[i+1] {
		i--
	}
	if i < 0 {
		return
	}
	j := len(idx) - 1
	for idx[j] <= idx[i] {
		j--
	}
	idx[i], idx[j] = idx[j], idx[i]
	for l, r := i+1, len(idx)-1; l < r; l, r = l+1, r-1 {
		idx[l], idx[r] = idx[r], idx[l]
	}
}
