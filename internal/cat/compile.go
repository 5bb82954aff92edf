package cat

import (
	"fmt"
	"sync"
	"time"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// This file lowers a parsed model to a flat instruction program over
// numbered relation slots, so that per-execution evaluation — the hot loop
// of every verdict — is a tight interpreter over opcodes instead of an AST
// walk with name lookups. Model-local lets become slot assignments and
// model-local functions are inlined at their call sites (resolving names
// in their bodies at the call site, as .cat does). Every other name is
// resolved once, at compile time, against the base vocabulary (vocab): a
// base relation becomes an input slot loaded off each execution, a
// WW/WR/RW/RR call an opFilter instruction. A name or call the vocabulary
// cannot resolve is a compile error, so a compiled program cannot fail to
// evaluate.
//
// Slots are single-assignment within a run, which makes scratch reuse
// trivial: a Scratch keeps each slot's bitset storage between runs, and the
// program's pool lends scratches across runs and judgements
// (BorrowScratch/ReturnScratch), so a steady-state evaluation allocates
// only the per-check result relations.

// word is one entry of the base vocabulary: a relation read off a
// candidate execution (load is non-nil), or a kind filter that keeps the
// pairs of its one argument whose events are a first then a second.
type word struct {
	name string
	load func(x *axiom.Execution, sc *Scratch) axiom.Rel
	// skeleton marks a relation that depends only on the execution's
	// skeleton (events, po, deps, membar, scopes), so it is identical
	// across every rf/co completion of one path assembly.
	skeleton      bool
	first, second axiom.Kind
}

// vocab is the base vocabulary: the Sec. 5.1.1 relations and the
// WW/WR/RW/RR filters, the only free names a model may use. co and fr are
// derived per execution, so they are rebuilt into scratch-owned storage
// (axiom.SetCoRel/SetFR) instead of allocating via the execution's lazy
// memo.
var vocab = [...]word{
	{name: "po", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.PO }},
	{name: "po-loc", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.PoLoc() }},
	{name: "rf", load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.RF }},
	{name: "rfe", load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.RFE() }},
	{name: "co", load: func(x *axiom.Execution, sc *Scratch) axiom.Rel { x.SetCoRel(&sc.co); return sc.co }},
	{name: "fr", load: func(x *axiom.Execution, sc *Scratch) axiom.Rel { x.SetFR(&sc.fr); return sc.fr }},
	{name: "addr", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.Addr }},
	{name: "data", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.Data }},
	{name: "ctrl", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.Ctrl }},
	{name: "rmw", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.RMW }},
	{name: "membar.cta", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.Membar[ptx.ScopeCTA] }},
	{name: "membar.gl", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.Membar[ptx.ScopeGL] }},
	{name: "membar.sys", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.Membar[ptx.ScopeSys] }},
	{name: "cta", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.ScopeRel(ptx.ScopeCTA) }},
	{name: "gl", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.ScopeRel(ptx.ScopeGL) }},
	{name: "sys", skeleton: true, load: func(x *axiom.Execution, _ *Scratch) axiom.Rel { return x.ScopeRel(ptx.ScopeSys) }},
	{name: "WW", first: axiom.KWrite, second: axiom.KWrite},
	{name: "WR", first: axiom.KWrite, second: axiom.KRead},
	{name: "RW", first: axiom.KRead, second: axiom.KWrite},
	{name: "RR", first: axiom.KRead, second: axiom.KRead},
}

// baseID names a word of the vocabulary: its index in vocab.
type baseID uint8

// lookupBase resolves a free name against the vocabulary.
func lookupBase(name string) (baseID, bool) {
	for i := range vocab {
		if vocab[i].name == name {
			return baseID(i), true
		}
	}
	return 0, false
}

// opcode is a compiled relation operation.
type opcode int

const (
	opUnion  opcode = iota // dst = a | b
	opInter                // dst = a & b
	opDiff                 // dst = a \ b
	opFilter               // dst = the pairs of a from a first to a second event
)

// insn computes one slot from earlier slots.
type insn struct {
	op            opcode
	dst           int
	a, b          int        // operand slots (opFilter reads a only)
	first, second axiom.Kind // event kinds kept by opFilter
}

// progCheck is a compiled "acyclic/irreflexive/empty ... as name".
type progCheck struct {
	name string
	kind CheckKind
	slot int
}

// freeRel is a base relation referenced by the model, loaded off each
// execution into its input slot.
type freeRel struct {
	id   baseID
	slot int
}

// Program is a model compiled to slots and opcodes. It is safe for
// concurrent runs: per-run state lives in a Scratch, lent from the
// program's pool or owned by the caller.
type Program struct {
	freeRels []freeRel
	checks   []progCheck
	nslots   int

	// Skeleton-constant split of the instruction stream: the const halves
	// depend only on an execution's skeleton (events, po, deps, membar,
	// scopes), so a scratch that just evaluated another rf/co completion
	// of the same skeleton skips them entirely — e.g. the
	// cta-fence/gl-fence/sys-fence unions of Fig. 16 and the WW/WR/RW
	// po-loc filters of Fig. 15 are computed once per skeleton, not once
	// per execution. Slot single-assignment makes the split sound: const
	// insns read only const slots, and var insns never write them.
	constFreeRels []freeRel
	varFreeRels   []freeRel
	constInsns    []insn
	varInsns      []insn

	pool sync.Pool // *Scratch, lent by BorrowScratch
}

// Scratch is the reusable per-run state of a Program: slot storage and
// the per-check buffer. The storage it owns (the computed slots, co, fr
// and the buffer) carries over between runs; what a run binds into it
// (base-relation slots, skeleton key, tracer) is dropped by ReturnScratch.
type Scratch struct {
	slots  []axiom.Rel
	checks []axiom.Rel

	// co and fr are scratch-owned storage for the two derived relations
	// that vary per execution (see vocab).
	co axiom.Rel
	fr axiom.Rel

	// skel is the axiom.Execution.SkeletonKey of the execution whose
	// skeleton-constant slots currently populate this scratch; nil when
	// none do (fresh or returned scratch, or a keyless execution).
	skel any

	// tr, when non-nil, accounts RunExec/RunExecVerdict time to
	// obs.PhaseEval. The verdict drivers attach the request's trace to
	// each scratch they borrow, and ReturnScratch detaches it; untraced
	// scratches pay one nil test per execution.
	tr *obs.Trace
}

// SetTracer attaches tr to the scratch: subsequent RunExec and
// RunExecVerdict calls with this scratch account their time to
// obs.PhaseEval on it. A nil tr (the default) disables the accounting.
func (sc *Scratch) SetTracer(tr *obs.Trace) { sc.tr = tr }

// Compile lowers the model to a Program. The result is memoized on the
// Model, so repeated Compile calls share one program. Every error a model
// can have is reported here: an unbound name, a call of anything but a
// model-local function or a filter, a filter or a function used as a
// relation, a wrong argument count, or unbounded inlining.
func (m *Model) Compile() (*Program, error) {
	m.compileOnce.Do(func() { m.prog, m.compileErr = compileModel(m) })
	return m.prog, m.compileErr
}

// MustCompile compiles and panics on error; for embedded model sources.
func (m *Model) MustCompile() *Program {
	p, err := m.Compile()
	if err != nil {
		panic(err)
	}
	return p
}

// maxInlineDepth bounds function inlining; a self-recursive model would
// otherwise never finish compiling.
const maxInlineDepth = 64

// maxInsns bounds a compiled program's size. Inlining copies a function's
// body at every call, so a chain of functions that each call the previous
// one twice doubles the program per link: 18 links already compile to
// half a million instructions. The built-in models need a few hundred.
const maxInsns = 1 << 16

// binding is a compile-time name binding: a slot for relations, a
// definition for model-local functions.
type binding struct {
	slot int
	fn   *Let // non-nil for model-local functions
}

type compiler struct {
	p     *Program
	bind  map[string]binding // model-level names, in statement order
	insns []insn
	depth int
}

func compileModel(m *Model) (*Program, error) {
	c := &compiler{p: &Program{}, bind: make(map[string]binding)}
	for _, s := range m.Stmts {
		switch st := s.(type) {
		case Let:
			if len(st.Params) > 0 {
				st := st // dedicated copy to take the address of
				c.bind[st.Name] = binding{fn: &st}
				continue
			}
			slot, err := c.expr(st.Body, nil)
			if err != nil {
				return nil, fmt.Errorf("cat: in let %s: %w", st.Name, err)
			}
			c.bind[st.Name] = binding{slot: slot}
		case Check:
			slot, err := c.expr(st.Expr, nil)
			if err != nil {
				return nil, fmt.Errorf("cat: in check %s: %w", st.Name, err)
			}
			c.p.checks = append(c.p.checks, progCheck{name: st.Name, kind: st.Kind, slot: slot})
		default:
			return nil, fmt.Errorf("cat: unknown statement %T", s)
		}
	}
	p := c.p
	p.splitSkeletonConstant(c.insns)
	p.pool.New = func() any { return p.NewScratch() }
	return p, nil
}

// splitSkeletonConstant partitions the free relations and instructions into
// skeleton-constant and per-execution halves. An instruction is constant
// iff every operand slot is (a filter depends otherwise only on the
// events, which are part of the skeleton). Instruction order is preserved
// within each half, and a constant instruction never reads a varying slot,
// so running all constant instructions first is dependency-safe.
func (p *Program) splitSkeletonConstant(insns []insn) {
	constSlot := make([]bool, p.nslots)
	for _, f := range p.freeRels {
		if vocab[f.id].skeleton {
			constSlot[f.slot] = true
			p.constFreeRels = append(p.constFreeRels, f)
		} else {
			p.varFreeRels = append(p.varFreeRels, f)
		}
	}
	for _, in := range insns {
		if constSlot[in.a] && (in.op == opFilter || constSlot[in.b]) {
			constSlot[in.dst] = true
			p.constInsns = append(p.constInsns, in)
		} else {
			p.varInsns = append(p.varInsns, in)
		}
	}
}

// newSlot allocates a fresh single-assignment slot.
func (c *compiler) newSlot() int {
	s := c.p.nslots
	c.p.nslots++
	return s
}

// emit appends in, writing a fresh slot, and returns that slot.
func (c *compiler) emit(in insn) int {
	in.dst = c.newSlot()
	c.insns = append(c.insns, in)
	return in.dst
}

// expr compiles e and returns the slot holding its value. scope maps the
// parameter names of the function currently being inlined to their argument
// slots (nil outside any inlining).
func (c *compiler) expr(e Expr, scope map[string]int) (int, error) {
	switch v := e.(type) {
	case Ident:
		if slot, ok := scope[v.Name]; ok {
			return slot, nil
		}
		if b, ok := c.bind[v.Name]; ok {
			if b.fn != nil {
				return 0, fmt.Errorf("%q is a function, not a relation", v.Name)
			}
			return b.slot, nil
		}
		return c.base(v.Name)
	case Union:
		return c.binop(opUnion, v.L, v.R, scope)
	case Inter:
		return c.binop(opInter, v.L, v.R, scope)
	case Diff:
		return c.binop(opDiff, v.L, v.R, scope)
	case App:
		return c.call(v, scope)
	default:
		return 0, fmt.Errorf("unknown expression %T", e)
	}
}

// base returns the input slot of the base relation name, allocating it on
// first use.
func (c *compiler) base(name string) (int, error) {
	id, ok := lookupBase(name)
	if !ok {
		return 0, fmt.Errorf("unbound name %q", name)
	}
	if vocab[id].load == nil {
		return 0, fmt.Errorf("%q is a function, not a relation", name)
	}
	for _, f := range c.p.freeRels {
		if f.id == id {
			return f.slot, nil
		}
	}
	slot := c.newSlot()
	c.p.freeRels = append(c.p.freeRels, freeRel{id: id, slot: slot})
	return slot, nil
}

func (c *compiler) binop(op opcode, l, r Expr, scope map[string]int) (int, error) {
	a, err := c.expr(l, scope)
	if err != nil {
		return 0, err
	}
	b, err := c.expr(r, scope)
	if err != nil {
		return 0, err
	}
	return c.emit(insn{op: op, a: a, b: b}), nil
}

// call compiles a call of a model-local function or of a filter. Like the
// .cat semantics, it resolves the callee, then the arguments, then checks
// their count.
func (c *compiler) call(v App, scope map[string]int) (int, error) {
	if _, ok := scope[v.Fn]; ok {
		return 0, fmt.Errorf("%q is not a function", v.Fn)
	}
	if b, ok := c.bind[v.Fn]; ok {
		if b.fn == nil {
			return 0, fmt.Errorf("%q is not a function", v.Fn)
		}
		return c.inline(b.fn, v, scope)
	}
	id, ok := lookupBase(v.Fn)
	if !ok {
		return 0, fmt.Errorf("unbound function %q", v.Fn)
	}
	w := vocab[id]
	if w.load != nil {
		return 0, fmt.Errorf("%q is not a function", v.Fn)
	}
	args, err := c.args(v, scope)
	if err != nil {
		return 0, err
	}
	if len(args) != 1 {
		return 0, fmt.Errorf("%q wants 1 arguments, got %d", v.Fn, len(args))
	}
	return c.emit(insn{op: opFilter, a: args[0], first: w.first, second: w.second}), nil
}

// args compiles a call's arguments in the caller's scope.
func (c *compiler) args(v App, scope map[string]int) ([]int, error) {
	slots := make([]int, len(v.Args))
	for i, a := range v.Args {
		slot, err := c.expr(a, scope)
		if err != nil {
			return nil, err
		}
		slots[i] = slot
	}
	return slots, nil
}

// inline expands a model-local function call: the body is compiled with
// the parameters mapped to the argument slots. Name resolution inside the
// body uses the bindings in effect at the call site (model lets all share
// one environment, so a function body sees the bindings live at call
// time).
func (c *compiler) inline(fn *Let, v App, scope map[string]int) (int, error) {
	args, err := c.args(v, scope)
	if err != nil {
		return 0, err
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("%q wants %d arguments, got %d", v.Fn, len(fn.Params), len(args))
	}
	if c.depth++; c.depth > maxInlineDepth {
		return 0, fmt.Errorf("%q exceeds inline depth %d (recursive function?)", v.Fn, maxInlineDepth)
	}
	// Checked per call: between two inlined calls the program grows by at
	// most one function body, so compiling stops soon after the cap.
	if len(c.insns) > maxInsns {
		return 0, fmt.Errorf("inlining %q grows the program past %d instructions", v.Fn, maxInsns)
	}
	defer func() { c.depth-- }()
	params := make(map[string]int, len(fn.Params))
	for i, name := range fn.Params {
		params[name] = args[i]
	}
	return c.expr(fn.Body, params)
}

// NewScratch returns a fresh scratch owned by the caller, outside the
// program's pool.
func (p *Program) NewScratch() *Scratch {
	return &Scratch{slots: make([]axiom.Rel, p.nslots), checks: make([]axiom.Rel, len(p.checks))}
}

// BorrowScratch lends a scratch from the program's pool, growing the pool
// when it is empty. The borrower uses it from one goroutine at a time and
// hands it back with ReturnScratch; a judgement borrows one per model and
// goroutine, so the slots' bitset storage carries over from judgement to
// judgement instead of regrowing in each.
func (p *Program) BorrowScratch() *Scratch { return p.pool.Get().(*Scratch) }

// ReturnScratch puts sc back in the program's pool. It first drops
// everything in sc that belongs to the last run rather than to the
// scratch: the tracer, the skeleton key and the base-relation slots (which
// alias the last execution's relations). Only scratch-owned storage
// stays, so a pooled scratch holds no request's trace, skeleton or
// relations. sc must not be used after the call.
func (p *Program) ReturnScratch(sc *Scratch) {
	sc.tr, sc.skel = nil, nil
	for _, f := range p.freeRels {
		sc.slots[f.slot] = axiom.Rel{}
	}
	p.pool.Put(sc)
}

// RunExec evaluates the program against a candidate execution and returns
// one result per check, each with its evaluated relation for diagnostics.
// The .cat interpreter in the package tests (ExecEnv and the oracle
// evaluator) is its reference: TestRunExecMatchesEnv and the other
// differentials pin the two against each other. sc may be nil to use the
// pool.
func (p *Program) RunExec(x *axiom.Execution, sc *Scratch) Results {
	if sc == nil {
		sc = p.BorrowScratch()
		defer p.ReturnScratch(sc)
	}
	if sc.tr.Enabled() {
		t0 := time.Now()
		p.runExecInsns(x, sc)
		res := p.results(sc)
		sc.tr.AddPhase(obs.PhaseEval, time.Since(t0))
		return res
	}
	p.runExecInsns(x, sc)
	return p.results(sc)
}

// RunExecVerdict evaluates the program against a candidate execution like
// RunExec but reports only whether every check passed. It skips the
// per-check relation cloning RunExec pays for diagnostics — the last
// steady-state allocation on the verdict hot path — and short-circuits on
// the first violated check. Callers that read just OK/Allowed() (Judge,
// the campaign memo) use this. sc may be nil to use the pool. The error is
// always nil, since Compile rejects every model that could fail to
// evaluate; the benchmark in perfbench/ calls this signature.
func (p *Program) RunExecVerdict(x *axiom.Execution, sc *Scratch) (bool, error) {
	if sc == nil {
		sc = p.BorrowScratch()
		defer p.ReturnScratch(sc)
	}
	if sc.tr.Enabled() {
		t0 := time.Now()
		ok := p.runExecVerdict(x, sc)
		sc.tr.AddPhase(obs.PhaseEval, time.Since(t0))
		return ok, nil
	}
	return p.runExecVerdict(x, sc), nil
}

func (p *Program) runExecVerdict(x *axiom.Execution, sc *Scratch) bool {
	p.runExecInsns(x, sc)
	for _, c := range p.checks {
		if !c.kind.holds(sc.slots[c.slot]) {
			return false
		}
	}
	return true
}

// runExecInsns loads the base relations off the execution and fills the
// scratch's slots. The skeleton-constant half (constFreeRels/constInsns) is
// skipped when the scratch already holds it for this execution's skeleton —
// the common case when one worker checks consecutive rf/co completions of
// one path assembly.
func (p *Program) runExecInsns(x *axiom.Execution, sc *Scratch) {
	if key := x.SkeletonKey(); key == nil || key != sc.skel {
		load(x, sc, p.constFreeRels)
		execInsns(x, sc, p.constInsns)
		sc.skel = key
	}
	load(x, sc, p.varFreeRels)
	execInsns(x, sc, p.varInsns)
}

// load fills the input slots of rels off x.
func load(x *axiom.Execution, sc *Scratch, rels []freeRel) {
	for _, f := range rels {
		sc.slots[f.slot] = vocab[f.id].load(x, sc)
	}
}

// execInsns interprets one half of the split instruction stream against x.
func execInsns(x *axiom.Execution, sc *Scratch, insns []insn) {
	for _, in := range insns {
		switch in.op {
		case opUnion:
			sc.slots[in.dst].SetUnion(sc.slots[in.a], sc.slots[in.b])
		case opInter:
			sc.slots[in.dst].SetInter(sc.slots[in.a], sc.slots[in.b])
		case opDiff:
			sc.slots[in.dst].SetMinus(sc.slots[in.a], sc.slots[in.b])
		case opFilter:
			x.SetKindFilter(&sc.slots[in.dst], sc.slots[in.a], in.first, in.second)
		}
	}
}

// results materialises the check outcomes from the scratch slots. The
// relations are cloned (in one batch): the slots' storage is reused by the
// next run, the results must stay valid indefinitely.
func (p *Program) results(sc *Scratch) Results {
	for i, c := range p.checks {
		sc.checks[i] = sc.slots[c.slot]
	}
	clones := axiom.CloneBatch(sc.checks)
	results := make(Results, len(p.checks))
	for i, c := range p.checks {
		results[i] = CheckResult{Name: c.name, Kind: c.kind, OK: c.kind.holds(sc.slots[c.slot]), Rel: clones[i]}
	}
	return results
}
