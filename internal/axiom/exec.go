package axiom

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Execution is a candidate execution of a litmus test (Sec. 5.1.1): events
// plus the primitive relations over them. Executions are built by the
// Assembler (see assemble.go) or copied from one by Clone, and nothing
// but the Assembler writes to one: the derived relations the .cat vocabulary
// reads (po-loc, rfe, co, fr and the scope relations) are built on demand
// into storage the caller owns (SetPoLoc, SetRFE, SetCoRel, SetFR,
// SetScopeRel), so any number of goroutines may read one execution at once.
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

	// sk is the skeleton store the events and the skeleton relations (po,
	// deps, membar) live in; every rf/co completion of one build shares
	// it, and its key and pin identify the build (SkeletonKey, Clone).
	sk *skeleton
	// srcOf maps each read to its rf source event (-1 for init reads and
	// every other event), precomputed by the enumerator per rf choice.
	srcOf []int32
}

// SkeletonKey returns the identity of the execution's skeleton: a number
// the producer assigns each time it builds one. Two executions share a key
// exactly when they are rf/co completions of the same build, so their
// events and skeleton relations (po, deps, membar), and everything derived
// from those alone (po-loc, the scope relations), are identical. The
// Assembler rebuilds skeletons into the same storage, so a key, not an
// address, is what tells one build from the next; keys are never reused,
// and never 0. The compiled model evaluator keys its skeleton-constant
// slot cache on this.
func (x *Execution) SkeletonKey() uint64 { return x.sk.key }

// Clone returns a copy of x that stays valid after the producer moves on:
// the executions the enumerator streams are rewritten in place by the next
// completion, so a consumer that keeps one keeps its Clone. The coherence
// orders (empty rows stay nil), final memory, rf relation and read→source
// index are copied. The skeleton (events, po, deps and membar) is shared,
// not copied: Clone pins it, so the Assembler builds its next skeleton
// into fresh storage and never rewrites one a clone holds.
func (x *Execution) Clone() *Execution {
	x.sk.pinned.Store(true)
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
		sk:     x.sk,
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
	if !dst.setUniverse(len(x.Events)) {
		return
	}
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
	if !dst.setUniverse(n) {
		return
	}
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
			dst.Add(e.ID, w)
		}
	}
}

// SetRFE builds rf restricted to pairs from different threads
// ("external") into dst, reusing dst's storage when possible. It reads the
// read→source index, one entry per event.
func (x *Execution) SetRFE(dst *Rel) {
	if x.RF.words == 0 {
		dst.setEmpty()
		return
	}
	dst.setZero(x.RF.words, x.RF.n)
	for r, w := range x.srcOf {
		if w >= 0 && x.Events[w].Thread != x.Events[r].Thread {
			dst.rows[int(w)*dst.words+r/wordBits] |= 1 << (uint(r) % wordBits)
		}
	}
}

// SetPoLoc builds program order restricted to memory events on the same
// location into dst, reusing dst's storage when possible.
func (x *Execution) SetPoLoc(dst *Rel) {
	dst.setFilter(x.PO, func(a, b EventID) bool {
		ea, eb := x.Ev(a), x.Ev(b)
		return ea.IsMem() && eb.IsMem() && ea.Slot == eb.Slot
	})
}

// SetScopeRel builds the relation linking events of threads within the
// same instance of the given scope (Sec. 5.1.1) into dst, reusing dst's
// storage when possible: cta relates events of same-CTA threads, gl and
// sys relate all events (single GPU, single system), and no other scope
// relates any.
func (x *Execution) SetScopeRel(dst *Rel, s ptx.Scope) {
	n := len(x.Events)
	if !dst.setUniverse(n) {
		return
	}
	maxTid := -1
	for _, e := range x.Events {
		if e.Thread > maxTid {
			maxTid = e.Thread
		}
	}
	words := dst.words
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

// SetKindFilter builds the WW/WR/RW/RR filters of the .cat language into
// dst, reusing dst's storage when possible (dst must not alias r): first
// and second report the kind required of each endpoint. It works a bitset
// row at a time: rows of first-kind events are ANDed against the column
// mask of second-kind events, built on the stack up to 256 events and in
// pooled scratch past that.
func (x *Execution) SetKindFilter(dst *Rel, r Rel, first, second Kind) {
	if r.words == 0 {
		dst.setEmpty()
		return
	}
	var buf [4]uint64
	mask := buf[:]
	if r.words > len(buf) {
		p := getu64(r.words)
		defer putu64(p)
		mask = *p
	}
	mask = mask[:r.words]
	clear(mask)
	for _, e := range x.Events {
		if e.Kind == second && int(e.ID) < r.univ() {
			mask[int(e.ID)/wordBits] |= 1 << (uint(e.ID) % wordBits)
		}
	}
	dst.setZero(r.words, r.n)
	for _, e := range x.Events {
		if e.Kind != first || int(e.ID) >= r.n {
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
