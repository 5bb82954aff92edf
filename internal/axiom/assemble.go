package axiom

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
//   - per rf choice: the rf relation and read→source index are rewritten
//     once and shared by every coherence completion of that choice;
//   - per completion: the coherence rows of the written locations, their
//     final memory and the weight are rewritten.
//
// Every layer is rewritten in place in storage the Assembler owns: the
// skeleton in a skeleton store (events and skeleton relations, rebuilt
// into the same storage under a fresh key), the other two layers in one
// Execution and its final state. Nothing here derives what the .cat
// vocabulary derives (po-loc, rfe, the scope relations): the evaluator
// builds those into its own scratch. Once its storage has grown to the
// tests it streams, a steady-state producer allocates nothing per
// skeleton, per rf choice or per completion, and a pooled Assembler
// (BorrowAssembler) carries that storage from one judgement to the next.
// An execution handed to emit is therefore valid only during the call; a
// consumer that keeps one keeps Execution.Clone's copy, which pins the
// skeleton store it shares so that the next skeleton is built into fresh
// storage.

// Assembler is the reusable construction scratch for StreamCombo. The zero
// value is ready for use; an Assembler must not be used concurrently (give
// each producer worker its own, or borrow one per worker).
type Assembler struct {
	pick    []int         // decoded per-thread path choice
	base    []int         // per-thread global event-id offset
	wlocs   []int32       // location slots with writers, ascending
	writers [][]EventID   // writers[i]: the writes to wlocs[i], ascending
	perLoc  [][][]EventID // coherence permutations per wloc (x.CO aliases its rows)
	permRow [][]EventID   // backing rows of perLoc
	permEv  []EventID     // backing events of permRow
	choices []rfChoice    // rf choices of the current skeleton
	rfPick  []EventID     // current rf source per choice
	coSel   []int         // current permutation index per wloc
	coPos   []int32       // write -> position in its location's coherence order
	rmwChk  [][2]EventID  // rmw (read, write) pairs subject to the atomicity filter

	// Symmetry-pruning state (detectClasses). classes lists each class's
	// member writes in ascending event-id order; classOf maps an event to
	// its class (-1 outside every class); locCls indexes classes by wloc.
	// used/usedCnt track which members the rf assignment under construction
	// references, driving the restricted-growth canonical form; mult is the
	// per-skeleton orbit size of the same-value classes.
	classes [][]EventID
	classOf []int32
	locCls  [][]int
	used    []bool
	usedCnt []int
	mult    int

	// Value-blind classes (detectBlindClasses): solo writes of any value
	// left out of every same-value class of size ≥2. blindOf maps an event
	// to its value-blind class and is valid only while blind is non-empty;
	// both are touched only for locations that can form such a class.
	blind   []blindClass
	blindOf []int32

	// sk is the storage of the current skeleton, rebuilt in place for the
	// next one unless a clone pinned it.
	sk *skeleton

	// The reusable execution: x is what emit receives. Its skeleton fields
	// alias sk; the fields below back its rf-choice and per-completion
	// layers.
	x     Execution
	rf    Rel
	srcOf []int32
	co    [][]EventID // per location slot; written rows alias perLoc
	final litmus.Final
}

// skeleton is the storage one skeleton is built into: the event slab and
// its pointers and the skeleton relations, with the key
// (Execution.SkeletonKey) and pin that identify the build. A clone of an
// execution shares all of it; once Clone has pinned it, the Assembler
// leaves it to the clones and builds into a fresh skeleton.
type skeleton struct {
	evs                       []Event
	ptrs                      []*Event
	po, addr, data, ctrl, rmw Rel
	membar                    [ptx.ScopeSys + 1]Rel
	key                       uint64
	pinned                    atomic.Bool
}

// skeletonSeq numbers the skeletons the Assemblers build: keys are unique
// across every Assembler of the process, so a key a cached evaluation
// remembers can never name another Assembler's skeleton.
var skeletonSeq atomic.Uint64

// nextSkeleton returns the storage to build the next skeleton into, under
// a fresh key: the current one, or new storage when there is none yet or a
// clone pinned it.
func (a *Assembler) nextSkeleton() *skeleton {
	if a.sk == nil || a.sk.pinned.Load() {
		a.sk = &skeleton{}
	}
	a.sk.key = skeletonSeq.Add(1)
	return a.sk
}

// noSlots binds a returned Assembler's final state to no request's names.
var noSlots litmus.Slots

// assemblers lends Assemblers to the streaming callers (StreamCtx and core's
// fold), so construction storage carries over from one judgement to the
// next.
var assemblers = sync.Pool{New: func() any { return new(Assembler) }}

// BorrowAssembler lends an Assembler from the package's pool. The borrower
// uses it from one goroutine and hands it back with ReturnAssembler.
func BorrowAssembler() *Assembler { return assemblers.Get().(*Assembler) }

// ReturnAssembler puts a back in the pool. It first drops everything a
// holds of the last request — the test, the path events and locations,
// the final state's resolution — and keeps only storage the Assembler
// owns, so a pooled Assembler holds no request's data. A skeleton a clone
// pinned is left to the clone. a must not be used after the call.
func ReturnAssembler(a *Assembler) {
	a.x = Execution{}
	a.final.Reset(&noSlots)
	a.co = a.co[:0]
	if a.sk != nil {
		if a.sk.pinned.Load() {
			a.sk = nil
		} else {
			clear(a.sk.evs[:cap(a.sk.evs)])
		}
	}
	assemblers.Put(a)
}

// blindClass is one value-blind symmetry class: writes to wloc li whose
// values differ but cannot be observed while unread and not co-last.
type blindClass struct {
	li      int
	members []EventID // ascending event ids
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// StreamCombo assembles path combination combo and streams its rf/co
// completions to emit, in the canonical order (rf choices in read order ×
// coherence permutations per sorted location). Combination indices stream
// in exactly Enumerate's order; StreamCombo(0..Combos()-1) back to back
// reproduces the full enumeration byte for byte. emit errors abort the
// combination and are returned verbatim. No MaxExecs bound is applied here
// — drivers enforce it themselves (see StreamCtx and BoundError).
//
// The execution emit receives is a's own and is rewritten by the next
// completion: it is valid only during the call. Keep x.Clone() instead.
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
	if !en.buildSkeleton(a) {
		return nil // some read's value is unjustifiable: no execution from this combo
	}
	en.traceSkeleton(a)
	return en.enumerateRFFrom(a, 0, emit)
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
	a.pick = resize(a.pick, nt)
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
	if !en.buildSkeleton(a) {
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
	if !en.buildSkeleton(a) {
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
		return en.enumerateRFFrom(a, 0, emit)
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
	return en.enumerateRFFrom(a, 1, emit)
}

// buildSkeleton constructs the combo's skeleton into a.x — events, program
// order, dependencies, fences, final registers and the initial memory —
// and the Assembler's writer indexes, coherence permutations, rf choices
// and RMW atomicity plan. It reports false when some read has no possible
// source (the combo yields no executions).
func (en *Enumeration) buildSkeleton(a *Assembler) bool {
	nt := len(en.paths)
	a.base = resize(a.base, nt)
	n := 0
	for tid := 0; tid < nt; tid++ {
		a.base[tid] = n
		n += len(en.paths[tid][a.pick[tid]].Events)
	}

	sk := a.nextSkeleton()
	a.final.Reset(en.slots)
	for i, v := range en.init {
		a.final.Set(i, v)
	}
	sk.evs, sk.ptrs = resize(sk.evs, n), resize(sk.ptrs, n)
	evs := sk.evs
	for _, r := range []*Rel{&sk.po, &sk.addr, &sk.data, &sk.ctrl, &sk.rmw} {
		r.reset(n)
	}
	for i := range sk.membar {
		sk.membar[i].reset(n)
	}

	for tid := 0; tid < nt; tid++ {
		p := &en.paths[tid][a.pick[tid]]
		b := a.base[tid]
		for i := range p.Events {
			pe := &p.Events[i]
			id := EventID(b + i)
			evs[id] = Event{
				ID: id, Thread: tid, PoIdx: i, Kind: pe.Kind,
				Loc: pe.Loc, Val: pe.Val, CacheOp: pe.CacheOp,
				Volatile: pe.Volatile, Atomic: pe.Atomic, Slot: pe.Slot,
				Scope: pe.Scope, Instr: pe.Instr,
			}
			sk.ptrs[id] = &evs[id]
		}
		copy(a.final.Regs(tid), p.Regs)

		// Program order, dependencies and rmw pairs.
		for i := range p.Events {
			id := EventID(b + i)
			for j := i + 1; j < len(p.Events); j++ {
				sk.po.Add(id, EventID(b+j))
			}
			pe := &p.Events[i]
			for _, d := range pe.AddrDeps {
				sk.addr.Add(EventID(b+d), id)
			}
			for _, d := range pe.DataDeps {
				sk.data.Add(EventID(b+d), id)
			}
			for _, d := range pe.CtrlDeps {
				sk.ctrl.Add(EventID(b+d), id)
			}
			if pe.RMWRead >= 0 {
				sk.rmw.Add(EventID(b+pe.RMWRead), id)
			}
		}
		// membar.S relates memory events separated by a fence of scope S.
		for k := range p.Events {
			if p.Events[k].Kind != KFence {
				continue
			}
			rel := &sk.membar[p.Events[k].Scope]
			for i := 0; i < k; i++ {
				if !p.Events[i].isMem() {
					continue
				}
				for j := k + 1; j < len(p.Events); j++ {
					if !p.Events[j].isMem() {
						continue
					}
					rel.Add(EventID(b+i), EventID(b+j))
				}
			}
		}
	}
	x := &a.x
	*x = Execution{
		Test: en.test, Events: sk.ptrs,
		PO: sk.po, Addr: sk.addr, Data: sk.data, Ctrl: sk.ctrl, RMW: sk.rmw,
		Membar: sk.membar, sk: sk,
	}

	// Writer indexes and per-location coherence permutations (shared by
	// every rf choice — the old producer rebuilt both per rf assignment).
	a.wlocs = a.wlocs[:0]
	for _, ev := range sk.ptrs {
		if ev.Kind == KWrite && !slices.Contains(a.wlocs, ev.Slot) {
			a.wlocs = append(a.wlocs, ev.Slot)
		}
	}
	slices.Sort(a.wlocs)
	a.writers = resizeRows(a.writers, len(a.wlocs))
	for _, ev := range sk.ptrs {
		if ev.Kind == KWrite {
			li := slices.Index(a.wlocs, ev.Slot)
			a.writers[li] = append(a.writers[li], ev.ID)
		}
	}
	a.permute()

	// rf choices: each read picks a same-location same-value write, or the
	// initial state when the value matches the initial value.
	a.choices = a.choices[:0]
	for _, ev := range sk.ptrs {
		if ev.Kind != KRead {
			continue
		}
		var srcs []EventID
		if len(a.choices) < cap(a.choices) {
			srcs = a.choices[:len(a.choices)+1][len(a.choices)].srcs[:0]
		}
		if ev.Val == en.init[ev.Slot] {
			srcs = append(srcs, -1)
		}
		for _, w := range a.writersOf(ev.Slot) {
			if evs[w].Val == ev.Val {
				srcs = append(srcs, w)
			}
		}
		if len(srcs) == 0 {
			return false
		}
		a.choices = append(a.choices, rfChoice{read: ev.ID, srcs: srcs})
	}

	// The RMW atomicity plan: pairs on locations whose writes are all
	// atomic (the guarantee is annulled for locations plain stores also
	// access, Sec. 3.2.3). Computed once per skeleton; checked per
	// completion against the coherence positions.
	a.rmwChk = a.rmwChk[:0]
	x.RMW.Each(func(r, w EventID) {
		for _, wr := range a.writersOf(evs[w].Slot) {
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

	// The buffers the rf-choice and per-completion layers rewrite. The
	// coherence rows are emptied per skeleton: its written locations may
	// differ from the last one's.
	a.srcOf = resize(a.srcOf, n)
	a.co = resize(a.co, len(en.init))
	clear(a.co)
	x.CO, x.Final, x.srcOf = a.co, &a.final, a.srcOf
	return true
}

// resizeRows returns rows with length n and every row emptied, keeping the
// rows' storage for reuse.
func resizeRows(rows [][]EventID, n int) [][]EventID {
	if cap(rows) < n {
		rows = append(rows[:cap(rows)], make([][]EventID, n-cap(rows))...)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// writersOf returns the skeleton's writes to location slot loc, ascending.
func (a *Assembler) writersOf(loc int32) []EventID {
	if li := slices.Index(a.wlocs, loc); li >= 0 {
		return a.writers[li]
	}
	return nil
}

// permute fills a.perLoc with each wloc's coherence permutations, backed
// by storage the Assembler reuses from skeleton to skeleton.
func (a *Assembler) permute() {
	rows, evs := 0, 0
	for _, ws := range a.writers {
		f := factorial(len(ws))
		rows, evs = rows+f, evs+f*len(ws)
	}
	a.permRow, a.permEv = resize(a.permRow, rows), resize(a.permEv, evs)
	a.perLoc = resize(a.perLoc, len(a.wlocs))
	rows, evs = 0, 0
	for i, ws := range a.writers {
		f := factorial(len(ws))
		a.perLoc[i] = permutations(a.permRow[rows:rows+f:rows+f], a.permEv[evs:evs+f*len(ws)], ws)
		rows, evs = rows+f, evs+f*len(ws)
	}
}

// detectClasses finds the skeleton's symmetry classes: groups of ≥2 writes
// to one location that are pairwise interchangeable, meaning an execution
// isomorphism may permute them freely. The conditions make the swap
// invisible to every relation and to the final state:
//
//   - same location, value and scope: the events differ at most in cache
//     operator and volatility, which no .cat vocabulary word reads, so rf
//     sources stay value-valid, kind filters agree, and the
//     coherence-last write of the location yields the same final memory
//     whichever member lands last;
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
// (enumerateRFFrom, coCanonical).
//
// The same-value classes are followed by the value-blind ones
// (detectBlindClasses), whose orbit size depends on the rf choice and the
// co-last writes; each execution's weight is a.mult times that factor.
//
// With Opts.Exhaustive both groupings are skipped (mult 1, no classes) and
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
	a.blind = a.blind[:0]
	if en.opts.Exhaustive {
		a.usedCnt = a.usedCnt[:0]
		return
	}

	for li, ws := range a.writers {
		for _, w := range ws {
			ev := &evs[w]
			if ev.Atomic || len(en.paths[ev.Thread][a.pick[ev.Thread]].Events) != 1 {
				continue
			}
			joined := false
			for _, c := range a.locCls[li] {
				rep := &evs[a.classes[c][0]]
				if rep.Val != ev.Val || rep.Scope != ev.Scope {
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
	en.detectBlindClasses(a, evs)
}

// detectBlindClasses finds the skeleton's value-blind classes: groups of
// ≥2 writes to one location that satisfy every detectClasses condition
// except equal values, and that sit in no same-value class of size ≥2 (so
// the two groupings cover disjoint events). A member's value is visible
// only through a read that takes it or through the final memory, which
// reads the co-last write; .cat has no value relation. So within one rf
// choice the *eligible* members — unread and not co-last — may swap
// coherence positions without changing any relation, verdict or final
// state. coCanonical keeps the orders whose eligible members ascend and
// weighs each by k! per class (k eligible members).
//
// A class can matter only where at least three writes share the location
// (one of them is co-last) and two of them qualify; other locations never
// touch the scratch.
func (en *Enumeration) detectBlindClasses(a *Assembler, evs []Event) {
	for li, ws := range a.writers {
		if len(ws) < 3 {
			continue
		}
		cands := 0
		for _, w := range ws {
			if a.blindCandidate(w) {
				cands++
			}
		}
		if cands < 2 {
			continue
		}
		if len(a.blind) == 0 {
			n := len(evs)
			if cap(a.blindOf) < n {
				a.blindOf = make([]int32, n)
			}
			a.blindOf = a.blindOf[:n]
			for i := range a.blindOf {
				a.blindOf[i] = -1
			}
		}
		first := len(a.blind)
		for _, w := range ws {
			if !a.blindCandidate(w) {
				continue
			}
			ev := &evs[w]
			joined := false
			for c := first; c < len(a.blind); c++ {
				rep := &evs[a.blind[c].members[0]]
				if rep.Scope != ev.Scope || !en.ctaCompatible(rep.Thread, ev.Thread) {
					continue
				}
				a.blind[c].members = append(a.blind[c].members, w)
				a.blindOf[w] = int32(c)
				joined = true
				break
			}
			if !joined {
				var members []EventID
				if len(a.blind) < cap(a.blind) {
					members = a.blind[:len(a.blind)+1][len(a.blind)].members[:0]
				}
				a.blindOf[w] = int32(len(a.blind))
				a.blind = append(a.blind, blindClass{li: li, members: append(members, w)})
			}
		}
	}
}

// blindCandidate reports whether write w may join a value-blind class: it
// is a solo non-atomic write (it has a same-value class) that no other
// write shares that class with.
func (a *Assembler) blindCandidate(w EventID) bool {
	ci := a.classOf[w]
	return ci >= 0 && len(a.classes[ci]) == 1
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

func (pe PathEvent) isMem() bool { return pe.Kind == KRead || pe.Kind == KWrite }

// enumerateRFFrom walks the cross product of rf sources for choices
// [start, len), with earlier choices already fixed in a.rfPick and their
// class usage recorded (StreamCombo enters at 0; StreamComboChunk seeds
// choice 0 and enters at 1). Symmetry-class members are pruned to a
// restricted-growth canonical form: a read may pick any member already in
// use, but may only introduce a class's least unused member — used members
// are therefore always an ascending prefix of the class, every orbit of
// interchangeable assignments survives as exactly its lexicographically
// first member, and that member is the first the exhaustive order would
// have produced. At each complete assignment it descends into coherence
// enumeration.
func (en *Enumeration) enumerateRFFrom(a *Assembler, start int, emit func(*Execution) error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(a.choices) {
			return en.enumerateCO(a, emit)
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

// enumerateCO rewrites a.x's rf-choice layer for the current rf choice —
// the rf relation and read→source index, shared by every coherence
// completion — and enumerates the per-location coherence orders
// (completeCO). A read that picks the initial state gets no rf edge.
func (en *Enumeration) enumerateCO(a *Assembler, emit func(*Execution) error) error {
	x := &a.x
	n := len(x.Events)
	for i := range a.srcOf {
		a.srcOf[i] = -1
	}
	a.rf.reset(n)
	for i, c := range a.choices {
		if s := a.rfPick[i]; s >= 0 {
			a.rf.Add(s, c.read)
			a.srcOf[c.read] = int32(s)
		}
	}
	x.RF = a.rf

	if cap(a.coPos) < n {
		a.coPos = make([]int32, n)
	}
	a.coSel = resize(a.coSel, len(a.wlocs))
	return en.completeCO(a, 0, a.mult, emit)
}

// completeCO picks the coherence orders of wlocs [i, len) under the
// symmetry-canonicality filter (coCanonical), applies the built-in RMW
// atomicity filter to each full choice, and streams each surviving
// completion to emit with its orbit size as its weight: the skeleton's
// same-value orbit size times the value-blind factor of each chosen order.
// Each completion rewrites a.x's coherence rows, final memory and weight in
// place.
func (en *Enumeration) completeCO(a *Assembler, i, mult int, emit func(*Execution) error) error {
	if i < len(a.wlocs) {
		for pi := range a.perLoc[i] {
			f := a.coCanonical(i, a.perLoc[i][pi])
			if f == 0 {
				continue
			}
			a.coSel[i] = pi
			if err := en.completeCO(a, i+1, mulSat(mult, f), emit); err != nil {
				return err
			}
		}
		return nil
	}

	// Coherence positions for this completion, then the atomicity filter:
	// an atomic RMW's write must directly follow its read's source in
	// coherence.
	x := &a.x
	coPos := a.coPos[:len(x.Events)]
	for li := range a.wlocs {
		for pos, w := range a.perLoc[li][a.coSel[li]] {
			coPos[w] = int32(pos)
		}
	}
	for _, pr := range a.rmwChk {
		srcPos := int32(-1)
		if s := a.srcOf[pr[0]]; s >= 0 {
			srcPos = coPos[s]
		}
		if coPos[pr[1]] != srcPos+1 {
			return nil
		}
	}

	// Final memory: the coherence-last write of each written location (the
	// skeleton set the registers and the initial values).
	for li, loc := range a.wlocs {
		order := a.perLoc[li][a.coSel[li]]
		a.co[loc] = order
		a.final.Set(int(loc), x.Events[order[len(order)-1]].Val)
	}
	x.mult = mult
	return emit(x)
}

// coCanonical reports whether the given coherence permutation of wloc li is
// the canonical member of its orbit under the stabiliser of the current rf
// assignment, returning 0 when it is not and otherwise the value-blind
// factor of the orbit size.
//
// Same-value classes: the stabiliser permutes exactly the rf-unused
// members of each class (used members are pinned: moving one changes rf),
// so the canonical — lexicographically first — permutation is the one
// whose unused members appear in ascending event-id order; a.mult counts
// the twins at the orbit level.
//
// Value-blind classes: the eligible members — rf-unused and not co-last
// in perm — may permute among their positions, which pins the co-last
// write and so keeps eligibility. The canonical permutation has them in
// ascending event-id order, the first the exhaustive order produces, and
// stands for k! orders per class of k eligible members. The classes are
// disjoint from the same-value ones, so the product is the exact orbit.
func (a *Assembler) coCanonical(li int, perm []EventID) int {
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
				return 0
			}
			prev = w
		}
	}
	f := 1
	last := perm[len(perm)-1]
	for c := range a.blind {
		if a.blind[c].li != li || len(a.blind[c].members) < 2 {
			continue
		}
		prev, k := EventID(-1), 0
		for _, w := range perm {
			if a.blindOf[w] != int32(c) || a.used[w] || w == last {
				continue
			}
			if w < prev {
				return 0
			}
			prev = w
			k++
		}
		for ; k > 1; k-- {
			f = mulSat(f, k)
		}
	}
	return f
}

// factorial returns n!, the number of orderings of n writes.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// permutations writes all orderings of ids into rows, whose length must be
// len(ids)!, backed by evs, whose length must be len(ids)·len(ids)!, and
// returns rows. The orderings come in lexicographic order of the positions
// taken from ids: ordering k is the k-th permutation of the indexes
// 0..n-1. No ids have the one empty ordering.
func permutations(rows [][]EventID, evs []EventID, ids []EventID) [][]EventID {
	n := len(ids)
	if n == 0 {
		rows[0] = nil
		return rows
	}
	var buf [8]int
	idx := buf[:0]
	if n > len(buf) {
		idx = make([]int, 0, n)
	}
	for i := range n {
		idx = append(idx, i)
	}
	for k := range rows {
		row := evs[k*n : (k+1)*n : (k+1)*n]
		for j, i := range idx {
			row[j] = ids[i]
		}
		rows[k] = row
		nextPermutation(idx)
	}
	return rows
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
