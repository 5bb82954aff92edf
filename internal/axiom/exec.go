package axiom

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Execution is a candidate execution of a litmus test (Sec. 5.1.1): events
// plus the primitive relations over them. Executions are built by the
// Assembler (see assemble.go) or copied from one by Clone. The derived
// relations the .cat vocabulary reads without a scratch (rfe, po-loc, the
// scope relations and the kind masks) are computed on demand and memoized
// per skeleton or per rf choice, so checking the same execution under
// several models never recomputes them.
type Execution struct {
	Test   *litmus.Test
	Events []*Event

	PO   Rel // program order (total per thread)
	Addr Rel // address dependencies (load -> dependent access)
	Data Rel // data dependencies (load -> store whose value depends on it)
	Ctrl Rel // control dependencies
	RMW  Rel // read -> write of the same atomic RMW

	// RF relates each read to the write it reads from. A read with no rf
	// edge reads the initial state: that is the one record of it.
	RF Rel

	// CO is the coherence order: per location slot (Event.Slot), the order
	// in which writes hit the memory, one row per slot of the enumeration.
	// A location nothing writes has an empty row. The initial write is
	// implicitly first, so a read with no rf edge precedes every write of
	// its row in from-read.
	CO [][]EventID

	// Membar relates memory events separated in program order by a fence
	// of exactly the given scope, indexed by ptx.Scope (the model unions
	// scopes itself, Fig. 16 lines 8-10).
	Membar [ptx.ScopeSys + 1]Rel

	// Final is the final state, over the enumeration's Slots: registers
	// from each thread's path, memory from the coherence-last write per
	// location. Treat it as read-only: the enumerator rewrites the final
	// state of the execution it streams for each completion (see Clone).
	Final *litmus.Final

	// mult is the orbit size Weight reports.
	mult int

	// shared memoizes the derived relations that depend only on the
	// skeleton (events, po, deps, membar) and are therefore identical for
	// every rf/co completion of one assembly; the enumerator threads one
	// instance through all of them, and it carries the skeleton's key and
	// pin.
	shared *sharedRels
	// srcOf maps each read to its rf source event (-1 for init reads and
	// every other event), precomputed by the enumerator per rf choice.
	srcOf []int32
	// rfe memoizes RFE, which depends only on the rf choice: the Assembler
	// resets it once per rf choice, so every coherence completion of one rf
	// assignment shares it. A clone starts with its own empty memo.
	rfe relOnce
}

// relOnce is a lazily computed, concurrency-safe memoized relation. The
// relation is computed into storage the relOnce keeps, so a reset memo
// recomputes without allocating once the storage fits.
type relOnce struct {
	once sync.Once
	rel  Rel
}

// get returns the memoized relation, computing it into ro's storage with
// f on first use.
func (ro *relOnce) get(f func(dst *Rel)) Rel {
	ro.once.Do(func() { f(&ro.rel) })
	return ro.rel
}

// reset forgets the memoized relation and keeps its storage. The caller
// must own ro: nothing may read it concurrently or keep its relation.
func (ro *relOnce) reset() { ro.once = sync.Once{} }

// sharedRels memoizes the skeleton-derived relations shared by every
// execution of one path combination (and, within one execution, by every
// model check). It also carries the skeleton's identity: key
// (Execution.SkeletonKey) and pinned, which Execution.Clone sets so that
// the Assembler never rebuilds a skeleton a clone shares.
type sharedRels struct {
	poLoc relOnce
	scope [ptx.ScopeSys + 1]relOnce // indexed by ptx.Scope

	// Kind masks for the WW/WR/RW/RR filters: one column bitset per event
	// kind, derived from the events alone, so every completion and every
	// filter application over one skeleton shares them instead of
	// re-scanning the event list per call.
	kmaskOnce [KFence + 1]sync.Once
	kmask     [KFence + 1][]uint64

	key    uint64
	pinned atomic.Bool
}

// skeletonSeq numbers the skeletons the Assemblers build: keys are unique
// across every Assembler of the process, so a key a cached evaluation
// remembers can never name another Assembler's skeleton.
var skeletonSeq atomic.Uint64

// reset forgets every memoized relation and mask, keeping their storage,
// and gives the memo a fresh skeleton key. Only the Assembler that owns an
// unpinned memo calls it, when it builds the next skeleton into it.
func (sr *sharedRels) reset() {
	sr.poLoc.reset()
	for i := range sr.scope {
		sr.scope[i].reset()
	}
	for i := range sr.kmaskOnce {
		sr.kmaskOnce[i] = sync.Once{}
	}
	sr.key = skeletonSeq.Add(1)
}

// SkeletonKey returns the identity of the execution's skeleton: a number
// the producer assigns each time it builds one. Two executions share a key
// exactly when they are rf/co completions of the same build, so their
// events and skeleton-derived relations (po, deps, membar, po-loc, scope)
// are identical. The Assembler rebuilds skeletons into the same storage,
// so a key, not an address, is what tells one build from the next; keys
// are never reused, and never 0. The compiled model evaluator keys its
// skeleton-constant slot cache on this.
func (x *Execution) SkeletonKey() uint64 { return x.shared.key }

// Clone returns a copy of x that stays valid after the producer moves on:
// the executions the enumerator streams are rewritten in place by the next
// completion, so a consumer that keeps one keeps its Clone. The coherence
// orders (empty rows stay nil), final memory, rf relation and read→source
// index are copied. The skeleton (events, po, deps, membar, final
// registers and the skeleton memo) is shared, not copied: Clone pins it,
// so the Assembler builds its next skeleton into fresh storage and never
// rewrites one a clone holds. The copy memoizes its own rf-level derived
// relation.
func (x *Execution) Clone() *Execution {
	x.shared.pinned.Store(true)
	c := &Execution{
		Test:   x.Test,
		Events: x.Events,
		PO:     x.PO,
		Addr:   x.Addr,
		Data:   x.Data,
		Ctrl:   x.Ctrl,
		RMW:    x.RMW,
		Membar: x.Membar,
		RF:     x.RF.Clone(),
		mult:   x.mult,
		shared: x.shared,
		srcOf:  slices.Clone(x.srcOf),
	}
	if x.CO != nil {
		total := 0
		for _, order := range x.CO {
			total += len(order)
		}
		slab := make([]EventID, 0, total)
		c.CO = make([][]EventID, len(x.CO))
		for loc, order := range x.CO {
			if len(order) > 0 {
				slab = append(slab, order...)
				c.CO[loc] = slab[len(slab)-len(order) : len(slab) : len(slab)]
			}
		}
	}
	if x.Final != nil {
		c.Final = x.Final.Clone()
	}
	return c
}

// Weight returns the number of exhaustive-enumeration candidates this
// execution stands for: the size of its orbit under the enumerator's
// equivalence pruning (see assemble.go), at least 1 and exactly 1 when
// nothing was pruned. Interchangeable same-value solo writes collapse into
// one canonical representative, and so do solo writes of any value that
// no read takes and that are not coherence-last. The second kind depends
// on the rf choice and the coherence order, so the weight is per
// execution, not per path combination. Every member of the orbit has the
// same verdict under every model and the same final state, so drivers that
// account for MaxExecs or aggregate outcome histograms add Weight, not 1,
// per visited execution to stay exact against the exhaustive enumeration.
func (x *Execution) Weight() int { return x.mult }

// Ev returns the event with the given ID.
func (x *Execution) Ev(id EventID) *Event { return x.Events[id] }

// CoRel returns coherence as a new relation (w1 before w2 per location).
func (x *Execution) CoRel() Rel {
	var co Rel
	x.SetCoRel(&co)
	return co
}

// SetCoRel builds the coherence relation into dst, reusing dst's storage
// when possible. The verdict hot path resolves co into a per-scratch buffer
// through this instead of allocating a fresh relation per execution.
func (x *Execution) SetCoRel(dst *Rel) {
	n := len(x.Events)
	if n == 0 {
		dst.setEmpty()
		return
	}
	words := (n + wordBits - 1) / wordBits
	dst.reuse(words)
	for i := range dst.rows {
		dst.rows[i] = 0
	}
	dst.n = n
	for _, order := range x.CO {
		for i := 0; i < len(order); i++ {
			row := dst.row(int(order[i]))
			for j := i + 1; j < len(order); j++ {
				b := order[j]
				row[int(b)/wordBits] |= 1 << (uint(b) % wordBits)
			}
		}
	}
}

// SetFR builds the from-read relation into dst, reusing dst's storage when
// possible: a read r relates to every write overwriting the value r read
// (Sec. 5.1.1). A read with no rf edge reads the initial state, which every
// write to its location overwrites.
func (x *Execution) SetFR(dst *Rel) {
	n := len(x.Events)
	if n == 0 {
		dst.setEmpty()
		return
	}
	words := (n + wordBits - 1) / wordBits
	dst.reuse(words)
	for i := range dst.rows {
		dst.rows[i] = 0
	}
	dst.n = n
	fr := dst
	var coBuf [64]int32
	coIdx := coBuf[:]
	if n > 64 {
		// Wide universes route the index buffer through the pooled scratch
		// instead of heap-allocating per call.
		p := geti32(n)
		defer puti32(p)
		coIdx = *p
	}
	coIdx = coIdx[:n]
	for _, order := range x.CO { // write -> position in its location's co
		for i, w := range order {
			coIdx[w] = int32(i)
		}
	}
	for _, e := range x.Events {
		if e.Kind != KRead {
			continue
		}
		from := int32(0)
		if src := x.srcOf[e.ID]; src >= 0 {
			from = coIdx[src] + 1
		}
		for _, w := range x.CO[e.Slot][from:] {
			fr.Add(e.ID, w)
		}
	}
}

// RFE returns rf restricted to pairs from different threads ("external").
// It depends only on the rf choice, so every coherence completion of one
// rf assignment shares the memo.
func (x *Execution) RFE() Rel {
	return x.rfe.get(func(dst *Rel) {
		dst.setFilter(x.RF, func(w, r EventID) bool { return x.Ev(w).Thread != x.Ev(r).Thread })
	})
}

// PoLoc returns program order restricted to memory events on the same
// location.
func (x *Execution) PoLoc() Rel {
	return x.shared.poLoc.get(func(dst *Rel) {
		dst.setFilter(x.PO, func(a, b EventID) bool {
			ea, eb := x.Ev(a), x.Ev(b)
			return ea.IsMem() && eb.IsMem() && ea.Slot == eb.Slot
		})
	})
}

// ScopeRel returns the relation linking events of threads within the same
// instance of the given scope (Sec. 5.1.1): cta relates events of same-CTA
// threads, gl and sys relate all events (single GPU, single system).
func (x *Execution) ScopeRel(s ptx.Scope) Rel {
	if s == ptx.ScopeSys {
		s = ptx.ScopeGL // single GPU, single system: gl and sys coincide
	}
	if s < 0 || int(s) >= len(x.shared.scope) {
		return NewRel()
	}
	return x.shared.scope[s].get(func(dst *Rel) { x.setScopeRel(dst, s) })
}

// setScopeRel builds ScopeRel(s) into dst, reusing dst's storage.
func (x *Execution) setScopeRel(dst *Rel, s ptx.Scope) {
	n := len(x.Events)
	maxTid := -1
	for _, e := range x.Events {
		if e.Thread > maxTid {
			maxTid = e.Thread
		}
	}
	if n == 0 {
		dst.setEmpty()
		return
	}
	words := (n + wordBits - 1) / wordBits
	dst.reuse(words)
	clear(dst.rows)
	dst.n = n
	// Per-thread event masks, then one related-events mask per thread; each
	// event's successor row is its thread's mask minus the event itself.
	p := getu64(2 * (maxTid + 1) * words)
	defer putu64(p)
	buf := *p
	clear(buf)
	tmask, rel := buf[:(maxTid+1)*words], buf[(maxTid+1)*words:]
	for _, e := range x.Events {
		tmask[e.Thread*words+int(e.ID)/wordBits] |= 1 << (uint(e.ID) % wordBits)
	}
	for t1 := 0; t1 <= maxTid; t1++ {
		for t2 := 0; t2 <= maxTid; t2++ {
			related := false
			switch s {
			case ptx.ScopeCTA:
				related = t1 == t2 || x.Test.Scope.SameCTA(t1, t2)
			case ptx.ScopeGL, ptx.ScopeSys:
				related = true
			}
			if related {
				orInto(rel[t1*words:(t1+1)*words], tmask[t2*words:(t2+1)*words])
			}
		}
	}
	for _, e := range x.Events {
		row := dst.row(int(e.ID))
		copy(row, rel[e.Thread*words:(e.Thread+1)*words])
		row[int(e.ID)/wordBits] &^= 1 << (uint(e.ID) % wordBits)
	}
}

// kindMask returns the memoized column bitset of events of kind k, sized
// to the event universe. It lives in the skeleton's shared memo, so every
// completion of one path assembly (and every filter application within one
// execution) shares a single scan of the event list.
func (x *Execution) kindMask(k Kind) []uint64 {
	sr := x.shared
	sr.kmaskOnce[k].Do(func() {
		words := (len(x.Events) + wordBits - 1) / wordBits
		m := resize(sr.kmask[k], words)
		clear(m)
		for _, e := range x.Events {
			if e.Kind == k {
				m[int(e.ID)/wordBits] |= 1 << (uint(e.ID) % wordBits)
			}
		}
		sr.kmask[k] = m
	})
	return sr.kmask[k]
}

// SetKindFilter builds the WW/WR/RW/RR filters of the .cat language into
// dst, reusing dst's storage when possible (dst must not alias r): first
// and second report the kind required of each endpoint. It works a bitset
// row at a time: rows of first-kind events are ANDed against the column
// mask of second-kind events. r must not be wider than the event universe,
// as no relation over x's events is.
func (x *Execution) SetKindFilter(dst *Rel, r Rel, first, second Kind) {
	if r.words == 0 {
		dst.setEmpty()
		return
	}
	// Truncating the mask to r's width drops exactly the columns >= r.univ()
	// the scan below would have skipped.
	mask := x.kindMask(second)[:r.words]
	dst.reuse(r.words)
	dst.n = r.n
	for i := range dst.rows {
		dst.rows[i] = 0
	}
	for _, e := range x.Events {
		if e.Kind != first || int(e.ID) >= r.univ() {
			continue
		}
		row, out := r.row(int(e.ID)), dst.row(int(e.ID))
		for i := range row {
			out[i] = row[i] & mask[i]
		}
	}
}

// String renders a compact description of the execution: events per thread
// and the rf/co relations.
func (x *Execution) String() string {
	var sb strings.Builder
	byThread := make(map[int][]*Event)
	var tids []int
	for _, e := range x.Events {
		if _, ok := byThread[e.Thread]; !ok {
			tids = append(tids, e.Thread)
		}
		byThread[e.Thread] = append(byThread[e.Thread], e)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		fmt.Fprintf(&sb, "T%d:", tid)
		for _, e := range byThread[tid] {
			fmt.Fprintf(&sb, " [%s]", e)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "rf: %s", x.RF)
	var inits []EventID
	for _, e := range x.Events {
		if e.Kind == KRead && x.srcOf[e.ID] < 0 {
			inits = append(inits, e.ID)
		}
	}
	if len(inits) > 0 {
		fmt.Fprintf(&sb, " init-reads: %v", inits)
	}
	fmt.Fprintf(&sb, "\nco: %s\n", x.CoRel())
	return sb.String()
}
