// Package sim is an operational simulator of the GPU execution and memory
// hierarchy of Sec. 2 of the paper, substituting for the silicon the paper
// ran on (see DESIGN.md). It models SMs with non-coherent L1 caches and
// per-CTA shared memory, per-thread store buffers, a two-stage store path
// (store buffer → SM-visible queue → L2), split-transaction loads, scoped
// fences, and L2-atomic read-modify-writes.
//
// Weak behaviours emerge from explicit micro-architectural mechanisms gated
// by per-chip probabilities (package chip): delayed stores (sb), delayed and
// reordered load completion (mp, lb, coRR), out-of-order L2 commit (write
// reordering under membar.cta), residual stale L1 lines (mp-L1), and
// unreliable .cg evictions (coRR-L2-L1).
//
// The simulator is deliberately sound with respect to the paper's PTX model
// for the tests the model covers (.cg accesses to global memory): every
// outcome it can produce is allowed by RMO-per-scope. The property test in
// package experiments verifies this on generated corpora.
//
// A test is built once per (test, chip, incantation) cell: Compile decodes
// it into flat per-thread programs over register and location slots, and
// NewMachine allocates the slice-backed machine state. Machine.Run then
// resets that state and reseeds the machine's random source for each
// iteration, so the repeated runs of Sec. 4.2 allocate nothing.
//
// The random source draws math/rand's rand.NewSource(seed) stream bit for
// bit, but reseeding costs O(1) rather than a rebuild of the generator's
// 607-word register: each entry of that register is a closed-form function
// of the seed, materialised on the first draw that reads it (see source).
// Like math/rand, the seed is folded mod 2³¹−1, so seeds s and s+2³¹−1 give
// one stream.
//
// A Compiled test may be shared between goroutines; a Machine may not, so
// concurrent callers use one machine per goroutine. Run is the one-shot
// form.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Result is the outcome of one simulated iteration of a litmus test.
type Result struct {
	State *litmus.Final // final registers and memory
	Ticks int           // scheduler ticks consumed
}

// maxTicks bounds one iteration; litmus tests finish in tens of ticks, so
// hitting this indicates a deadlock bug.
const maxTicks = 100000

// Run simulates one iteration of the test on the given chip under the given
// incantations. The seed makes runs reproducible; distinct seeds give
// independent interleavings. Loops over many seeds should Compile once and
// reuse a Machine instead.
func Run(t *litmus.Test, p *chip.Profile, inc chip.Incant, seed int64) (*Result, error) {
	c, err := Compile(t, litmus.NewSlots(t), p, inc)
	if err != nil {
		return nil, err
	}
	m := c.NewMachine()
	ticks, err := m.Run(seed)
	if err != nil {
		return nil, err
	}
	return &Result{State: m.Final(), Ticks: ticks}, nil
}

// effProbs are the chip probabilities scaled by the incantation response.
type effProbs struct {
	storeDelay       float64
	storeAtomicDelay float64
	wwCommit         float64
	loadDelay        float64
	loadRR           float64
	loadRW           float64
	coRR             float64
	staleL1          float64
	cgEvictFail      float64
	coRRMixed        float64
	shared           float64 // factor applied to load/store relaxations on shared memory
}

// locSet is a set of location slots.
type locSet []uint64

func newLocSet(n int) locSet        { return make(locSet, (n+63)/64) }
func (s locSet) has(loc int32) bool { return s[loc>>6]&(1<<(loc&63)) != 0 }
func (s locSet) add(loc int32)      { s[loc>>6] |= 1 << (loc & 63) }
func (s locSet) del(loc int32)      { s[loc>>6] &^= 1 << (loc & 63) }

type commitEntry struct {
	loc    int32
	thread int32
	val    int64
}

// smState is one streaming multiprocessor: the L1 cache over global memory
// (values plus the set of present lines), the CTA's shared-memory storage,
// and the queue of CTA-visible stores not yet committed to L2.
type smState struct {
	l1     []int64
	l1ok   locSet
	shared []int64
	queue  []commitEntry
}

// pload is a split-transaction load: issued, then completed by a scheduler
// action that reads the memory system.
type pload struct {
	loc  int32
	ca   bool // .ca (L1) load
	done bool
	val  int64
}

// regv is a register's value. Slots are offset by one so that the zero
// regv is an unwritten register: 0, no base, no pending load.
type regv struct {
	v    int64
	base int32 // location slot + 1 when the register holds that location's address
	pend int32 // index + 1 into the thread's ploads while the value awaits a load
	set  bool  // written (or declared): reported in the final state
}

type sbEntry struct {
	loc int32
	val int64
}

type tstate struct {
	id, cta int
	code    *threadCode
	pc      int
	steps   int
	regs    []regv
	ploads  []pload // this iteration's split loads, in issue order
	pending []int32 // ploads not yet completed, oldest first
	sb      []sbEntry
	done    bool
	// mixedWindow marks locations recently read with .cg whose delayed L1
	// eviction a subsequent .ca load can race with (Fig. 4).
	mixedWindow locSet
}

// Action kinds, one per kind of schedulable machine step.
const (
	actStep     = iota // execute a thread's next instruction
	actComplete        // complete one of a thread's pending loads
	actDrain           // move a thread's store-buffer head to its SM queue
	actCommit          // commit one SM-queue entry to L2
)

// action is one schedulable machine step: a kind applied to a thread or,
// for actCommit, an SM.
type action struct {
	kind   uint8
	index  int32
	weight float64
}

// Machine is the simulator state for one Compiled test. Run resets it, so
// a machine serves any number of iterations; it must not be used by two
// goroutines at once.
type Machine struct {
	c       *Compiled
	src     source
	rng     *rand.Rand // the math/rand front end over src
	l2      []int64
	sms     []smState
	threads []tstate
	acts    []action
	cands   []int
	ticks   int
	final   *litmus.Final // the last Run's final state
}

// NewMachine allocates a machine for the compiled test.
func (c *Compiled) NewMachine() *Machine {
	n := len(c.init)
	m := &Machine{
		c:       c,
		l2:      make([]int64, n),
		sms:     make([]smState, len(c.test.Scope.CTAs)),
		threads: make([]tstate, len(c.threads)),
		final:   c.slots.NewFinal(),
	}
	m.rng = rand.New(&m.src)
	for i := range m.sms {
		m.sms[i] = smState{l1: make([]int64, n), l1ok: newLocSet(n), shared: make([]int64, n)}
	}
	for tid := range m.threads {
		code := &c.threads[tid]
		m.threads[tid] = tstate{id: tid, cta: code.cta, code: code, regs: make([]regv, len(code.init)), mixedWindow: newLocSet(n)}
	}
	return m
}

// Run simulates one iteration from the initial state under the given seed
// and returns the scheduler ticks it took. The final state stays readable
// through Final until the next Run.
func (m *Machine) Run(seed int64) (int, error) {
	m.reset(seed)
	for !m.allDone() {
		m.ticks++
		if m.ticks > maxTicks {
			return 0, fmt.Errorf("sim: test %s exceeded %d ticks (deadlocked or unbounded loop)", m.c.test.Name, maxTicks)
		}
		m.enabled()
		if len(m.acts) == 0 {
			return 0, fmt.Errorf("sim: test %s deadlocked at tick %d", m.c.test.Name, m.ticks)
		}
		a := m.pick()
		switch a.kind {
		case actStep:
			m.step(&m.threads[a.index])
		case actComplete:
			m.completeOne(&m.threads[a.index])
		case actDrain:
			m.drainAt(&m.threads[a.index], 0)
		case actCommit:
			m.commitOne(&m.sms[a.index])
		}
	}
	m.flush()
	m.writeFinal()
	return m.ticks, nil
}

// reset returns the machine to the test's initial state and reseeds the
// random source. The reseed is O(1): the source materialises each register
// entry from its closed form on first use, so the iteration draws exactly
// rand.NewSource(seed)'s sequence while paying only for the entries it
// reads.
func (m *Machine) reset(seed int64) {
	c := m.c
	m.rng.Seed(seed)
	m.ticks = 0
	copy(m.l2, c.init)
	for i := range m.sms {
		sm := &m.sms[i]
		clear(sm.l1ok)
		copy(sm.shared, c.init)
		sm.queue = sm.queue[:0]
	}
	for i := range m.threads {
		t := &m.threads[i]
		t.pc, t.steps, t.done = 0, 0, false
		copy(t.regs, t.code.init)
		t.ploads = t.ploads[:0]
		t.pending = t.pending[:0]
		t.sb = t.sb[:0]
		clear(t.mixedWindow)
	}
	if c.eff.staleL1 > 0 {
		for _, s := range c.stale {
			sm := &m.sms[s.sm]
			if !sm.l1ok.has(s.loc) && m.rng.Float64() < c.eff.staleL1 {
				sm.l1[s.loc] = c.init[s.loc]
				sm.l1ok.add(s.loc)
			}
		}
	}
}

func (m *Machine) allDone() bool {
	for i := range m.threads {
		if !m.threads[i].done {
			return false
		}
	}
	return true
}

// enabled lists the schedulable actions in m.acts: per thread a step, a
// load completion and a store-buffer drain, then per SM a commit.
func (m *Machine) enabled() {
	m.acts = m.acts[:0]
	for i := range m.threads {
		t := &m.threads[i]
		if !t.done && m.canStep(t) {
			m.acts = append(m.acts, action{kind: actStep, index: int32(i), weight: 10})
		}
		if len(t.pending) > 0 {
			m.acts = append(m.acts, action{kind: actComplete, index: int32(i), weight: 5})
		}
		if len(t.sb) > 0 {
			m.acts = append(m.acts, action{kind: actDrain, index: int32(i), weight: 4})
		}
	}
	for i := range m.sms {
		if len(m.sms[i].queue) > 0 {
			m.acts = append(m.acts, action{kind: actCommit, index: int32(i), weight: 4})
		}
	}
}

func (m *Machine) pick() action {
	total := 0.0
	for _, a := range m.acts {
		total += a.weight
	}
	r := m.rng.Float64() * total
	for _, a := range m.acts {
		r -= a.weight
		if r <= 0 {
			return a
		}
	}
	return m.acts[len(m.acts)-1]
}

// flush completes every outstanding operation after all threads retire so
// the final state is well defined.
func (m *Machine) flush() {
	for i := range m.threads {
		t := &m.threads[i]
		for len(t.pending) > 0 {
			m.completeAt(t, 0)
		}
		for len(t.sb) > 0 {
			m.drainAt(t, 0)
		}
	}
	for i := range m.sms {
		sm := &m.sms[i]
		for len(sm.queue) > 0 {
			m.commitAt(sm, 0)
		}
	}
}

// writeFinal writes the last Run's final state into m.final: every
// register written or declared that does not hold an address, and every
// location but the memNone ones, which stay absent.
func (m *Machine) writeFinal() {
	for i := range m.threads {
		t := &m.threads[i]
		regs := m.final.Regs(t.id)
		for s, v := range t.regs {
			regs[s] = litmus.SlotValue{}
			if v.set && v.base == 0 {
				regs[s] = litmus.SlotValue{Val: t.value(v), Present: true}
			}
		}
	}
	for s, from := range m.c.memFrom {
		if from == memL2 {
			m.final.Set(s, m.l2[s])
		} else if from != memNone {
			m.final.Set(s, m.sms[from].shared[s])
		}
	}
}

// Final returns the final state of the last Run. It is the machine's own,
// rewritten by the next Run.
func (m *Machine) Final() *litmus.Final { return m.final }

// value is a register's value once its pending load, if any, completed.
func (t *tstate) value(v regv) int64 {
	if v.pend != 0 && t.ploads[v.pend-1].done {
		return t.ploads[v.pend-1].val
	}
	return v.v
}
