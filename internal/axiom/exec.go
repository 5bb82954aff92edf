package axiom

import (
	"fmt"
	mathbits "math/bits"
	"sort"
	"strings"
	"sync"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Execution is a candidate execution of a litmus test (Sec. 5.1.1): events
// plus the primitive relations over them. Derived relations (fr, rfe,
// po-loc, com) are computed on demand and memoized, so checking the same
// execution under several models (or cross-checking the .cat and native
// implementations) never recomputes them.
type Execution struct {
	Test   *litmus.Test
	Events []*Event

	PO   Rel // program order (total per thread)
	Addr Rel // address dependencies (load -> dependent access)
	Data Rel // data dependencies (load -> store whose value depends on it)
	Ctrl Rel // control dependencies
	RMW  Rel // read -> write of the same atomic RMW

	// RF maps each read to the write it reads from; reads from the initial
	// state appear in InitReads instead.
	RF        Rel
	InitReads map[EventID]bool

	// CO is the coherence order: per location, the order in which writes
	// hit the memory. The initial write is implicitly first.
	CO map[ptx.Sym][]EventID

	// Membar relates memory events separated in program order by a fence
	// of exactly the given scope (the model unions scopes itself,
	// Fig. 16 lines 8-10).
	Membar map[ptx.Scope]Rel

	// Final is the final state: registers from each thread's path, memory
	// from the coherence-last write per location. Executions are immutable
	// once built, and the enumerator shares the register maps across every
	// completion of one path combination — treat Final as read-only.
	Final *litmus.MapState

	// Mult is the number of exhaustive-enumeration candidates this execution
	// stands for: the size of its orbit under the enumerator's equivalence
	// pruning (see assemble.go). Interchangeable same-value solo writes
	// collapse into one canonical representative, and so do solo writes of
	// any value that no read takes and that are not coherence-last. The
	// second kind depends on the rf choice and the coherence order, so Mult
	// is per execution, not per path combination. 1 when nothing was
	// pruned, 0 for hand-built executions (read it through Weight, which
	// treats 0 as 1). Every member of the orbit has the same verdict under
	// every model and the same final state, so weighted counts over
	// representatives equal exhaustive counts over members.
	Mult int

	// shared memoizes the derived relations that depend only on the
	// skeleton (events, po, deps, membar) and are therefore identical for
	// every rf/co completion of one assembly; the enumerator threads one
	// instance through all of them. nil for hand-built executions, which
	// then memoize per execution.
	shared *sharedRels
	// rfShared memoizes the derived relations that depend only on the rf
	// choice (rfe) and are therefore identical for every coherence
	// completion of one rf assignment; nil for hand-built executions.
	rfShared *rfRels
	// srcOf maps each read to its rf source event (-1 for init reads),
	// precomputed by the enumerator and shared read-only across the rf
	// choice's completions; nil for hand-built executions, which derive it
	// from RF on demand.
	srcOf []int32
	memo  execMemo
}

// relOnce is a lazily computed, concurrency-safe memoized relation.
type relOnce struct {
	once sync.Once
	rel  Rel
}

func (ro *relOnce) get(f func() Rel) Rel {
	ro.once.Do(func() { ro.rel = f() })
	return ro.rel
}

// sharedRels memoizes the skeleton-derived relations shared by every
// execution of one path combination (and, within one execution, by every
// model check).
type sharedRels struct {
	poLoc relOnce
	dp    relOnce
	scope [ptx.ScopeSys + 1]relOnce // indexed by ptx.Scope
	fence [ptx.ScopeSys + 1]relOnce

	// Kind masks for the WW/WR/RW/RR filters: one column bitset per event
	// kind, derived from the events alone, so every completion and every
	// filter application over one skeleton shares them instead of
	// re-scanning the event list per call.
	kmaskOnce  [KFence + 1]sync.Once
	kmask      [KFence + 1][]uint64
	kmaskWords int
}

// rfRels memoizes the derived relations shared by every coherence
// completion of one rf assignment.
type rfRels struct {
	rfe relOnce
}

// execMemo memoizes the derived relations that vary per execution (they
// depend on the rf/co choice).
type execMemo struct {
	co  relOnce
	fr  relOnce
	rfe relOnce
	com relOnce
	// Fallback skeleton memo for hand-built executions (Execution.shared
	// nil), allocated on first use: enumerator-built executions — the hot
	// path, thousands per judgement — never pay for its footprint.
	shdOnce sync.Once
	shd     *sharedRels
}

// sharedRels returns the memo for skeleton-derived relations: the
// enumerator-provided shared instance when present, else a lazily allocated
// per-execution one.
func (x *Execution) sharedRels() *sharedRels {
	if x.shared != nil {
		return x.shared
	}
	x.memo.shdOnce.Do(func() { x.memo.shd = &sharedRels{} })
	return x.memo.shd
}

// SkeletonKey returns an opaque identity for the execution's skeleton: two
// executions share a key exactly when they are rf/co completions of the
// same path assembly, so their events and skeleton-derived relations (po,
// deps, membar, scope, fence) are identical. Hand-built executions have no
// skeleton and return nil; callers caching per-skeleton work must treat nil
// as "never equal". The compiled model evaluator keys its skeleton-constant
// slot cache on this.
func (x *Execution) SkeletonKey() any {
	if x.shared != nil {
		return x.shared
	}
	return nil
}

// Weight returns the number of concrete candidate executions this one
// stands for under symmetry pruning: Mult, with the zero value (hand-built
// executions, pre-pruning callers) counting as 1. Drivers that account for
// MaxExecs or aggregate outcome histograms must add Weight, not 1, per
// visited execution to stay exact against the exhaustive enumeration.
func (x *Execution) Weight() int {
	if x.Mult <= 0 {
		return 1
	}
	return x.Mult
}

// Ev returns the event with the given ID.
func (x *Execution) Ev(id EventID) *Event { return x.Events[id] }

// IsRead reports whether id is a read event.
func (x *Execution) IsRead(id EventID) bool { return x.Ev(id).Kind == KRead }

// IsWrite reports whether id is a write event.
func (x *Execution) IsWrite(id EventID) bool { return x.Ev(id).Kind == KWrite }

// CoRel returns coherence as a relation (w1 before w2 per location).
func (x *Execution) CoRel() Rel {
	return x.memo.co.get(func() Rel {
		var r Rel
		x.SetCoRel(&r)
		return r
	})
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

// FR returns the from-read relation: a read r relates to every write
// overwriting the value r read (Sec. 5.1.1). Reads from the initial state
// relate to every write to their location.
func (x *Execution) FR() Rel {
	return x.memo.fr.get(func() Rel {
		var r Rel
		x.SetFR(&r)
		return r
	})
}

// SetFR builds the from-read relation into dst, reusing dst's storage when
// possible — the allocation-free twin of FR for the verdict hot path.
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
	var coBuf, srcBuf [64]int32
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
	srcOf := x.srcOf // enumerator-built executions carry the rf index
	if srcOf == nil {
		srcOf = srcBuf[:]
		if n > 64 {
			p := geti32(n)
			defer puti32(p)
			srcOf = *p
		}
		srcOf = srcOf[:n]
		for i := range srcOf { // read -> rf source, -1 when absent
			srcOf[i] = -1
		}
		for w := 0; w < x.RF.n && w < n; w++ { // direct row iteration: no closure
			row := x.RF.row(w)
			for wi, word := range row {
				for word != 0 {
					rd := wi*wordBits + mathbits.TrailingZeros64(word)
					word &= word - 1
					if rd < n {
						srcOf[rd] = int32(w)
					}
				}
			}
		}
	}
	for _, e := range x.Events {
		if e.Kind != KRead {
			continue
		}
		order := x.CO[e.Loc]
		if x.InitReads[e.ID] {
			for _, w := range order {
				fr.Add(e.ID, w)
			}
			continue
		}
		src := srcOf[e.ID]
		if src < 0 {
			continue
		}
		for _, w := range order[coIdx[src]+1:] {
			fr.Add(e.ID, w)
		}
	}
}

// RFE returns rf restricted to pairs from different threads ("external").
// It depends only on the rf choice, so enumerator-built executions share
// the memo across every coherence completion of one rf assignment.
func (x *Execution) RFE() Rel {
	rfe := func() Rel {
		return x.RF.Filter(func(w, r EventID) bool { return x.Ev(w).Thread != x.Ev(r).Thread })
	}
	if x.rfShared != nil {
		return x.rfShared.rfe.get(rfe)
	}
	return x.memo.rfe.get(rfe)
}

// PoLoc returns program order restricted to memory events on the same
// location.
func (x *Execution) PoLoc() Rel {
	return x.sharedRels().poLoc.get(func() Rel {
		return x.PO.Filter(func(a, b EventID) bool {
			ea, eb := x.Ev(a), x.Ev(b)
			return ea.IsMem() && eb.IsMem() && ea.Loc == eb.Loc
		})
	})
}

// Com returns the union of the communication relations rf, co and fr
// (Fig. 15 line 1).
func (x *Execution) Com() Rel {
	return x.memo.com.get(func() Rel {
		return x.RF.Union(x.CoRel()).Union(x.FR())
	})
}

// Dp returns the union of the dependency relations (Fig. 15 line 5).
func (x *Execution) Dp() Rel {
	return x.sharedRels().dp.get(func() Rel {
		return x.Addr.Union(x.Data).Union(x.Ctrl)
	})
}

// ScopeRel returns the relation linking events of threads within the same
// instance of the given scope (Sec. 5.1.1): cta relates events of same-CTA
// threads, gl and sys relate all events (single GPU, single system).
func (x *Execution) ScopeRel(s ptx.Scope) Rel {
	if s == ptx.ScopeSys {
		s = ptx.ScopeGL // single GPU, single system: gl and sys coincide
	}
	if s < 0 || int(s) >= len(x.sharedRels().scope) {
		return NewRel()
	}
	return x.sharedRels().scope[s].get(func() Rel { return x.scopeRel(s) })
}

func (x *Execution) scopeRel(s ptx.Scope) Rel {
	n := len(x.Events)
	maxTid := -1
	for _, e := range x.Events {
		if e.Thread < 0 {
			return x.scopeRelSlow(s) // synthetic events: pairwise fallback
		}
		if e.Thread > maxTid {
			maxTid = e.Thread
		}
	}
	var r Rel
	if n == 0 {
		return r
	}
	r.ensure(EventID(n - 1))
	r.n = n
	words := r.words
	// Per-thread event masks, then one related-events mask per thread; each
	// event's successor row is its thread's mask minus the event itself.
	buf := make([]uint64, 2*(maxTid+1)*words)
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
		row := r.row(int(e.ID))
		copy(row, rel[e.Thread*words:(e.Thread+1)*words])
		row[int(e.ID)/wordBits] &^= 1 << (uint(e.ID) % wordBits)
	}
	return r
}

// scopeRelSlow is the reference pairwise construction, kept for events with
// synthetic (negative) thread ids.
func (x *Execution) scopeRelSlow(s ptx.Scope) Rel {
	r := NewRel()
	for _, a := range x.Events {
		for _, b := range x.Events {
			if a.ID == b.ID {
				continue
			}
			switch s {
			case ptx.ScopeCTA:
				if a.Thread == b.Thread || x.Test.Scope.SameCTA(a.Thread, b.Thread) {
					r.Add(a.ID, b.ID)
				}
			case ptx.ScopeGL, ptx.ScopeSys:
				r.Add(a.ID, b.ID)
			}
		}
	}
	return r
}

// FenceRel returns the relation of memory-event pairs separated by a fence
// of at least the given scope: membar.cta unions membar.gl and membar.sys
// per Fig. 16 lines 8-10.
func (x *Execution) FenceRel(s ptx.Scope) Rel {
	if s < 0 || int(s) >= len(x.sharedRels().fence) {
		return NewRel()
	}
	return x.sharedRels().fence[s].get(func() Rel {
		r := NewRel()
		for sc, rel := range x.Membar {
			if sc.Includes(s) {
				r = r.Union(rel)
			}
		}
		return r
	})
}

// KindFilter builds the WW/WR/RW/RR filters of the .cat language: first and
// second report the kind required of each endpoint. It works a bitset row
// at a time: rows of first-kind events are ANDed against the column mask of
// second-kind events.
func (x *Execution) KindFilter(r Rel, first, second Kind) Rel {
	var out Rel
	x.SetKindFilter(&out, r, first, second)
	return out
}

// kindMask returns the memoized column bitset of events of kind k, sized
// to the event universe. It lives in the skeleton's shared memo, so every
// completion of one path assembly (and every filter application within one
// execution) shares a single scan of the event list.
func (x *Execution) kindMask(k Kind) []uint64 {
	sr := x.sharedRels()
	sr.kmaskOnce[k].Do(func() {
		words := (len(x.Events) + wordBits - 1) / wordBits
		m := make([]uint64, words)
		for _, e := range x.Events {
			if e.Kind == k {
				m[int(e.ID)/wordBits] |= 1 << (uint(e.ID) % wordBits)
			}
		}
		sr.kmask[k] = m
	})
	return sr.kmask[k]
}

// SetKindFilter is KindFilter writing into dst, reusing dst's storage when
// possible (dst must not alias r).
func (x *Execution) SetKindFilter(dst *Rel, r Rel, first, second Kind) {
	if r.words == 0 {
		dst.setEmpty()
		return
	}
	mask := x.kindMask(second)
	if len(mask) >= r.words {
		// The cached mask covers r's universe: truncating drops exactly the
		// columns >= r.univ() the scan below would have skipped.
		mask = mask[:r.words]
	} else {
		// r is wider than the event universe (hand-built relation): build
		// the mask into pooled scratch instead.
		p := getu64(r.words)
		defer putu64(p)
		mask = (*p)[:r.words]
		for i := range mask {
			mask[i] = 0
		}
		for _, e := range x.Events {
			if e.Kind == second && int(e.ID) < r.univ() {
				mask[int(e.ID)/wordBits] |= 1 << (uint(e.ID) % wordBits)
			}
		}
	}
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
	if len(x.InitReads) > 0 {
		var inits []EventID
		for id := range x.InitReads {
			inits = append(inits, id)
		}
		sort.Slice(inits, func(i, j int) bool { return inits[i] < inits[j] })
		fmt.Fprintf(&sb, " init-reads: %v", inits)
	}
	fmt.Fprintf(&sb, "\nco: %s\n", x.CoRel())
	return sb.String()
}
