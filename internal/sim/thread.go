package sim

import "github.com/weakgpu/gpulitmus/internal/ptx"

// maxSteps bounds one thread's dynamic instruction count (spin loops).
const maxSteps = 4096

func (t *tstate) regReady(s int32) bool {
	v := t.regs[s]
	return v.pend == 0 || t.ploads[v.pend-1].done
}

func (t *tstate) operandReady(o operand) bool {
	return o.kind != regOperand || t.regReady(o.slot)
}

// setReg writes a register, marking it written.
func (t *tstate) setReg(s int32, v regv) {
	v.set = true
	t.regs[s] = v
}

// evalOperand returns the concrete value of a ready operand.
func (t *tstate) evalOperand(o operand) regv {
	switch o.kind {
	case immOperand:
		return regv{v: o.imm}
	case locOperand:
		return regv{base: o.slot + 1}
	case regOperand:
		rv := t.regs[o.slot]
		if rv.pend != 0 && t.ploads[rv.pend-1].done {
			return regv{v: t.ploads[rv.pend-1].val, base: rv.base}
		}
		return rv
	}
	return regv{}
}

// resolveAddr maps an address operand to a location slot; it fails when a
// register does not hold a modelled address.
func (t *tstate) resolveAddr(o operand) (int32, bool) {
	switch o.kind {
	case locOperand:
		return o.slot, true
	case regOperand:
		rv := t.evalOperand(o)
		if rv.base == 0 || rv.v != 0 {
			return 0, false
		}
		return rv.base - 1, true
	}
	return 0, false
}

// canStep reports whether the thread's next instruction can execute now:
// its guard and operands are resolved and, for fences, the drain conditions
// hold.
func (m *Machine) canStep(t *tstate) bool {
	prog := t.code.prog
	if t.pc >= len(prog) {
		return true // retirement
	}
	in := &prog[t.pc]
	if in.guard >= 0 && !t.regReady(in.guard) {
		return false
	}
	if in.op == opMembar {
		return m.fenceReady(t, in.scope)
	}
	return t.operandReady(in.addr) && t.operandReady(in.a) && t.operandReady(in.b)
}

// fenceReady implements membar semantics: all scopes wait for the thread's
// outstanding loads to complete and its store buffer to drain (CTA
// visibility); membar.gl and membar.sys additionally wait for the thread's
// stores to commit from the SM queue to L2 (global visibility).
func (m *Machine) fenceReady(t *tstate, s ptx.Scope) bool {
	if len(t.pending) > 0 || len(t.sb) > 0 {
		return false
	}
	if s >= ptx.ScopeGL {
		for _, e := range m.sms[t.cta].queue {
			if int(e.thread) == t.id {
				return false
			}
		}
	}
	return true
}

// step executes the thread's next instruction (canStep was true).
func (m *Machine) step(t *tstate) {
	prog := t.code.prog
	if t.pc >= len(prog) {
		t.done = true
		return
	}
	t.steps++
	if t.steps > maxSteps {
		// Treat as livelock; surfaced by the tick bound in Run.
		t.done = true
		return
	}
	in := &prog[t.pc]

	if in.guard >= 0 {
		hold := t.evalOperand(operand{kind: regOperand, slot: in.guard}).v != 0
		if in.guardNeg {
			hold = !hold
		}
		if !hold {
			t.pc++
			return
		}
	}

	switch in.op {
	case opLabel:

	case opBra:
		t.pc = int(in.target)
		return

	case opMov:
		t.setReg(in.dst, t.evalOperand(in.a))

	case opAdd:
		a, b := t.evalOperand(in.a), t.evalOperand(in.b)
		res := regv{v: a.v + b.v}
		if a.base != 0 {
			res.base = a.base
		} else if b.base != 0 {
			res.base = b.base
		}
		t.setReg(in.dst, res)

	case opAnd:
		a, b := t.evalOperand(in.a), t.evalOperand(in.b)
		t.setReg(in.dst, regv{v: a.v & b.v})

	case opXor:
		a, b := t.evalOperand(in.a), t.evalOperand(in.b)
		t.setReg(in.dst, regv{v: a.v ^ b.v})

	case opSetp:
		a, b := t.evalOperand(in.a), t.evalOperand(in.b)
		res := int64(0)
		if a.v == b.v && a.base == b.base {
			res = 1
		}
		t.setReg(in.dst, regv{v: res})

	case opMembar:
		// fenceReady held: apply the fence's L1 effects.
		if in.scope >= m.c.prof.L1InvalidateScope {
			clear(m.sms[t.cta].l1ok)
		}
		if in.scope >= m.c.prof.MixedFlushScope {
			clear(t.mixedWindow)
		}

	case opLd:
		m.stepLoad(t, in)

	case opSt:
		m.stepStore(t, in)

	default:
		m.stepAtomic(t, in)
	}
	t.pc++
}

func (m *Machine) stepLoad(t *tstate, in *instr) {
	loc, ok := t.resolveAddr(in.addr)
	if !ok {
		t.done = true
		return
	}
	shared := m.c.shared[loc]

	// Store-buffer forwarding: the thread always sees its own latest
	// buffered store (WR same-location order of SC-per-location).
	for i := len(t.sb) - 1; i >= 0; i-- {
		if t.sb[i].loc == loc {
			t.setReg(in.dst, regv{v: t.sb[i].val})
			return
		}
	}

	// Chips with ordered store→load paths (GCN 1.0) push their own
	// buffered stores to global visibility before reading, so sb never
	// arises from the buffer.
	if m.c.prof.StoreLoadOrdered {
		for len(t.sb) > 0 {
			m.drainAt(t, 0)
		}
		m.commitOwn(t)
	}

	// Delayed-eviction race (Fig. 4): a .ca load shortly after a .cg load
	// of the same location can still hit the line the .cg load was meant
	// to evict.
	eff := &m.c.eff
	if in.ca && !shared && t.mixedWindow.has(loc) && m.rng.Float64() < eff.coRRMixed {
		t.setReg(in.dst, regv{v: m.c.init[loc]})
		return
	}

	delay := eff.loadDelay
	if shared {
		delay *= eff.shared
	}
	// Completing at issue while older loads are pending is itself a
	// reordering, so it is gated like completion reordering: never past a
	// same-location load unless the coRR relaxation fires, and past
	// different-location loads only with the load-load probability.
	mustQueue := false
	for _, p := range t.pending {
		if t.ploads[p].loc == loc {
			mustQueue = m.rng.Float64() >= eff.coRR
		} else if m.rng.Float64() >= eff.loadRR {
			mustQueue = true
		}
		if mustQueue {
			break
		}
	}
	if mustQueue || m.rng.Float64() < delay {
		t.ploads = append(t.ploads, pload{loc: loc, ca: in.ca})
		t.pending = append(t.pending, int32(len(t.ploads)-1))
		t.setReg(in.dst, regv{pend: int32(len(t.ploads))})
		return
	}
	t.setReg(in.dst, regv{v: m.readMem(t, loc, in.ca)})
}

// readMem performs the memory-system read for a completing load.
func (m *Machine) readMem(t *tstate, loc int32, ca bool) int64 {
	sm := &m.sms[t.cta]
	// CTA-visible stores from the same SM win over L2/L1.
	for i := len(sm.queue) - 1; i >= 0; i-- {
		if sm.queue[i].loc == loc {
			return sm.queue[i].val
		}
	}
	if m.c.shared[loc] {
		return sm.shared[loc]
	}
	if ca {
		if sm.l1ok.has(loc) {
			return sm.l1[loc] // possibly stale: L1s are not coherent
		}
		val := m.l2[loc]
		sm.l1[loc] = val
		sm.l1ok.add(loc)
		return val
	}
	// .cg (and operator-less) loads read the L2 and evict the L1 line
	// (PTX manual, as quoted in Sec. 3.1.2); on some chips the eviction
	// is unreliable.
	val := m.l2[loc]
	if m.rng.Float64() >= m.c.eff.cgEvictFail {
		sm.l1ok.del(loc)
	}
	t.mixedWindow.add(loc)
	return val
}

// completeSameLoc force-completes the thread's pending loads to loc, oldest
// first: a store (or RMW) must not overtake a program-order-earlier load of
// the same location (the RW leg of SC per location).
func (m *Machine) completeSameLoc(t *tstate, loc int32) {
	for i := 0; i < len(t.pending); {
		if t.ploads[t.pending[i]].loc == loc {
			m.completeAt(t, i)
			continue
		}
		i++
	}
}

// gateLoadRW enforces load-to-store program order unless the chip's
// load-buffering relaxation fires: a write may overtake older pending loads
// to other locations only with probability PLoadRW (the lb idiom; zero on
// GTX 540m, GTX 750 and GTX 280, matching their empty dlb-lb and sl-future
// rows).
func (m *Machine) gateLoadRW(t *tstate) {
	if len(t.pending) == 0 || m.rng.Float64() < m.c.eff.loadRW {
		return
	}
	for len(t.pending) > 0 {
		m.completeAt(t, 0)
	}
}

func (m *Machine) stepStore(t *tstate, in *instr) {
	loc, ok := t.resolveAddr(in.addr)
	if !ok {
		t.done = true
		return
	}
	m.completeSameLoc(t, loc)
	m.gateLoadRW(t)
	val := t.evalOperand(in.a).v

	delay := m.c.eff.storeDelay
	if m.c.shared[loc] {
		delay *= m.c.eff.shared
	}
	// A non-empty store buffer forces buffering to preserve same-thread
	// store order through the buffer.
	if len(t.sb) > 0 || m.rng.Float64() < delay {
		t.sb = append(t.sb, sbEntry{loc: loc, val: val})
		return
	}
	// Write-through: stage 1 then an in-order commit of the whole SM
	// queue, preserving FIFO visibility.
	sm := &m.sms[t.cta]
	sm.queue = append(sm.queue, commitEntry{loc: loc, val: val, thread: int32(t.id)})
	for len(sm.queue) > 0 {
		m.commitAt(sm, 0)
	}
}

// stepAtomic performs an atomic RMW at the L2 (global locations) or the
// SM's shared memory. Atomics do not flush the thread's store buffer except
// for entries to the same location — the crux of the broken-lock tests of
// Sec. 3.2.
func (m *Machine) stepAtomic(t *tstate, in *instr) {
	loc, ok := t.resolveAddr(in.addr)
	if !ok {
		t.done = true
		return
	}
	m.completeSameLoc(t, loc)
	m.gateLoadRW(t)
	shared := m.c.shared[loc]
	sm := &m.sms[t.cta]

	// Most chips' atomics flush the thread's buffered stores; with the
	// chip's store-atomic delay probability, older stores to other
	// locations stay buffered and the RMW overtakes them (the release
	// overtaking of cas-sl, Fig. 9).
	if m.rng.Float64() >= m.c.eff.storeAtomicDelay {
		for len(t.sb) > 0 {
			m.drainAt(t, 0)
		}
		m.commitOwn(t)
	}

	// Drain own same-location buffered stores (they must be ordered
	// before the RMW); the rest stay buffered in order.
	rest := t.sb[:0]
	for _, e := range t.sb {
		if e.loc == loc {
			sm.queue = append(sm.queue, commitEntry{loc: e.loc, val: e.val, thread: int32(t.id)})
		} else {
			rest = append(rest, e)
		}
	}
	t.sb = rest

	// Linearise: commit every CTA-visible store to this location, from
	// all SMs, before the RMW reads.
	for i := range m.sms {
		s := &m.sms[i]
		for {
			idx := -1
			for j, e := range s.queue {
				if e.loc == loc {
					idx = j
					break
				}
			}
			if idx < 0 {
				break
			}
			m.commitAt(s, idx)
		}
	}

	old := m.l2[loc]
	if shared {
		old = sm.shared[loc]
	}
	next, write := old, true
	switch in.op {
	case opCAS:
		write = old == t.evalOperand(in.a).v
		next = t.evalOperand(in.b).v
	case opExch:
		next = t.evalOperand(in.a).v
	case opAtomAdd:
		next = old + t.evalOperand(in.a).v
	case opAtomInc:
		next = old + 1
		if old >= t.evalOperand(in.a).v {
			next = 0
		}
	}
	if write {
		if shared {
			sm.shared[loc] = next
		} else {
			m.l2[loc] = next
			sm.l1ok.del(loc) // atomics read/write at L2, evicting the line
		}
	}
	t.setReg(in.dst, regv{v: old})
}

// commitOwn commits the thread's entries in its SM's queue, in order.
func (m *Machine) commitOwn(t *tstate) {
	sm := &m.sms[t.cta]
	for i := 0; i < len(sm.queue); {
		if int(sm.queue[i].thread) == t.id {
			m.commitAt(sm, i)
			continue
		}
		i++
	}
}

// completeOne completes a pending load chosen per the chip's reordering
// probabilities: normally the oldest; different-location younger loads may
// jump ahead (mp read side); same-location reordering is the coRR
// relaxation.
func (m *Machine) completeOne(t *tstate) {
	idx := 0
	if m.rng.Float64() < m.c.eff.coRR {
		idx = m.rng.Intn(len(t.pending))
	} else if m.rng.Float64() < m.c.eff.loadRR {
		m.cands = m.cands[:0]
		for i, p := range t.pending {
			ok := true
			for _, earlier := range t.pending[:i] {
				if t.ploads[earlier].loc == t.ploads[p].loc {
					ok = false
					break
				}
			}
			if ok {
				m.cands = append(m.cands, i)
			}
		}
		if len(m.cands) > 0 {
			idx = m.cands[m.rng.Intn(len(m.cands))]
		}
	}
	m.completeAt(t, idx)
}

func (m *Machine) completeAt(t *tstate, i int) {
	p := t.pending[i]
	val := m.readMem(t, t.ploads[p].loc, t.ploads[p].ca)
	t.ploads[p].val, t.ploads[p].done = val, true
	t.pending = append(t.pending[:i], t.pending[i+1:]...)
}

// drainAt moves the thread's i-th buffered store to the SM queue (stage 1:
// the store becomes visible to the CTA); shared-memory stores land in the
// SM's shared memory directly.
func (m *Machine) drainAt(t *tstate, i int) {
	e := t.sb[i]
	t.sb = append(t.sb[:i], t.sb[i+1:]...)
	sm := &m.sms[t.cta]
	if m.c.shared[e.loc] {
		sm.shared[e.loc] = e.val
		return
	}
	sm.queue = append(sm.queue, commitEntry{loc: e.loc, val: e.val, thread: int32(t.id)})
}

// commitOne commits one SM-queue entry to the L2 (stage 2): normally the
// head; with the chip's write-write commit probability, a younger entry to
// a different location may commit first (visible inter-CTA even under
// membar.cta).
func (m *Machine) commitOne(sm *smState) {
	idx := 0
	if m.rng.Float64() < m.c.eff.wwCommit {
		m.cands = m.cands[:0]
		for i, e := range sm.queue {
			ok := true
			for _, earlier := range sm.queue[:i] {
				if earlier.loc == e.loc {
					ok = false
					break
				}
			}
			if ok {
				m.cands = append(m.cands, i)
			}
		}
		if len(m.cands) > 0 {
			idx = m.cands[m.rng.Intn(len(m.cands))]
		}
	}
	m.commitAt(sm, idx)
}

func (m *Machine) commitAt(sm *smState, i int) {
	e := sm.queue[i]
	sm.queue = append(sm.queue[:i], sm.queue[i+1:]...)
	if m.c.shared[e.loc] {
		sm.shared[e.loc] = e.val
		return
	}
	m.l2[e.loc] = e.val
	// Write-evict: the writing SM's own L1 line is evicted, so its threads
	// observe their own committed stores; other SMs' lines go stale.
	sm.l1ok.del(e.loc)
}
