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
// walk with environment lookups. Model-local lets become slot assignments,
// model-local functions are inlined at their call sites (matching the
// interpreter's call-time name resolution), and only the base-environment
// relations (po, rf, co, ...) and builtins (WW, ...) remain symbolic: they
// are resolved once per Run, not once per expression node.
//
// Slots are single-assignment within a run, which makes scratch reuse
// trivial: a Scratch keeps each slot's bitset storage between runs, and the
// program's pool lends scratches across runs and judgements
// (BorrowScratch/ReturnScratch), so a steady-state evaluation allocates
// only the per-check result relations.

// opcode is a compiled relation operation.
type opcode int

const (
	opUnion opcode = iota // dst = a | b
	opInter               // dst = a & b
	opDiff                // dst = a \ b
	opCall                // dst = fns[fn](args...) — base-env function
)

// insn computes one slot from earlier slots.
type insn struct {
	op   opcode
	dst  int
	a, b int   // operand slots (opUnion/opInter/opDiff)
	fn   int   // index into the program's free functions (opCall)
	args []int // argument slots (opCall)
}

// progCheck is a compiled "acyclic/irreflexive/empty ... as name".
type progCheck struct {
	name string
	kind CheckKind
	slot int
}

// freeRel is a base-environment relation referenced by the model; it is
// resolved from the Env once per run into its input slot.
type freeRel struct {
	name string
	slot int
}

// Program is a model compiled to slots and opcodes. It is safe for
// concurrent Run calls: per-run state lives in a Scratch, lent from the
// program's pool or owned by the caller.
type Program struct {
	model    *Model
	freeRels []freeRel
	freeFns  []string // base-environment functions, resolved per run
	insns    []insn
	checks   []progCheck
	nslots   int

	// Skeleton-constant split of the exec fast path (RunExec*): the const
	// halves depend only on an execution's skeleton (events, po, deps,
	// membar, scopes), so a scratch that just evaluated another rf/co
	// completion of the same skeleton skips them entirely — e.g. the
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

// Scratch is the reusable per-run state of a Program: slot storage, the
// resolved base-environment functions, and argument/result buffers. The
// storage it owns (the computed slots, co, fr and the buffers) carries
// over between runs; what a run binds into it (base-relation slots,
// functions, skeleton key, tracer) is dropped by ReturnScratch.
type Scratch struct {
	slots  []axiom.Rel
	fns    []FuncValue
	args   []axiom.Rel
	checks []axiom.Rel

	// co and fr are scratch-owned storage for the two derived relations
	// that vary per execution: the exec fast path rebuilds them in place
	// (axiom.SetCoRel/SetFR) instead of allocating via the execution's
	// lazy memo, the last steady-state allocations on the verdict path.
	co axiom.Rel
	fr axiom.Rel

	// skel is the axiom.Execution.SkeletonKey of the execution whose
	// skeleton-constant slots currently populate this scratch; nil when
	// none do (fresh or returned scratch, keyless execution, or a failed
	// load).
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
// Model, so repeated Compile (and hence Eval) calls share one program.
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

// maxInlineDepth bounds function inlining; the interpreter would overflow
// the stack on such (self-recursive) models, the compiler reports an error.
const maxInlineDepth = 64

// binding is a compile-time name binding: a slot for relations, a
// definition for model-local functions.
type binding struct {
	slot int
	fn   *Let // non-nil for model-local functions
}

type compiler struct {
	p       *Program
	bind    map[string]binding // model-level names, in statement order
	freeRel map[string]int     // base-env relation name -> input slot
	freeFn  map[string]int     // base-env function name -> index
	depth   int
}

func compileModel(m *Model) (*Program, error) {
	c := &compiler{
		p:       &Program{model: m},
		bind:    make(map[string]binding),
		freeRel: make(map[string]int),
		freeFn:  make(map[string]int),
	}
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
	p.splitSkeletonConstant()
	p.pool.New = func() any { return p.newScratch() }
	return p, nil
}

// skeletonConstRel reports whether a base-environment relation name resolves
// to a skeleton-derived relation on the exec fast path: identical across
// every rf/co completion of one path assembly. rf/rfe/co/fr vary per
// execution; unknown names conservatively vary.
func skeletonConstRel(name string) bool {
	switch name {
	case "po", "po-loc", "addr", "data", "ctrl", "rmw",
		"membar.cta", "membar.gl", "membar.sys",
		"cta", "gl", "sys":
		return true
	}
	return false
}

// splitSkeletonConstant partitions the free relations and instructions into
// skeleton-constant and per-execution halves for the exec fast path. An
// instruction is constant iff every operand slot is (the kind filters
// WW/WR/RW/RR depend otherwise only on the events, which are part of the
// skeleton). Instruction order is preserved within each half, and a
// constant instruction never reads a varying slot, so running all constant
// instructions first is dependency-safe.
func (p *Program) splitSkeletonConstant() {
	constSlot := make([]bool, p.nslots)
	for _, f := range p.freeRels {
		if skeletonConstRel(f.name) {
			constSlot[f.slot] = true
			p.constFreeRels = append(p.constFreeRels, f)
		} else {
			p.varFreeRels = append(p.varFreeRels, f)
		}
	}
	for _, in := range p.insns {
		isConst := false
		switch in.op {
		case opUnion, opInter, opDiff:
			isConst = constSlot[in.a] && constSlot[in.b]
		case opCall:
			isConst = true
			for _, a := range in.args {
				isConst = isConst && constSlot[a]
			}
		}
		if isConst {
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
		// Base-environment relation, loaded once per run.
		if slot, ok := c.freeRel[v.Name]; ok {
			return slot, nil
		}
		slot := c.newSlot()
		c.freeRel[v.Name] = slot
		c.p.freeRels = append(c.p.freeRels, freeRel{name: v.Name, slot: slot})
		return slot, nil
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

func (c *compiler) binop(op opcode, l, r Expr, scope map[string]int) (int, error) {
	a, err := c.expr(l, scope)
	if err != nil {
		return 0, err
	}
	b, err := c.expr(r, scope)
	if err != nil {
		return 0, err
	}
	dst := c.newSlot()
	c.p.insns = append(c.p.insns, insn{op: op, dst: dst, a: a, b: b})
	return dst, nil
}

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
	// Base-environment function (WW, ...): compile to a call resolved per
	// run; its arity is checked against the resolved FuncValue then.
	fi, ok := c.freeFn[v.Fn]
	if !ok {
		fi = len(c.p.freeFns)
		c.freeFn[v.Fn] = fi
		c.p.freeFns = append(c.p.freeFns, v.Fn)
	}
	args := make([]int, len(v.Args))
	for i, a := range v.Args {
		slot, err := c.expr(a, scope)
		if err != nil {
			return 0, err
		}
		args[i] = slot
	}
	dst := c.newSlot()
	c.p.insns = append(c.p.insns, insn{op: opCall, dst: dst, fn: fi, args: args})
	return dst, nil
}

// inline expands a model-local function call: arguments are compiled in the
// caller's scope, then the body is compiled with the parameters mapped to
// the argument slots. Name resolution inside the body uses the bindings in
// effect at the call site, exactly like the interpreter (model lets all
// share one environment, so a function body sees the bindings live at call
// time).
func (c *compiler) inline(fn *Let, v App, scope map[string]int) (int, error) {
	if len(v.Args) != len(fn.Params) {
		return 0, fmt.Errorf("%q wants %d arguments, got %d", v.Fn, len(fn.Params), len(v.Args))
	}
	if c.depth++; c.depth > maxInlineDepth {
		return 0, fmt.Errorf("%q exceeds inline depth %d (recursive function?)", v.Fn, maxInlineDepth)
	}
	defer func() { c.depth-- }()
	params := make(map[string]int, len(fn.Params))
	for i, a := range v.Args {
		slot, err := c.expr(a, scope)
		if err != nil {
			return 0, err
		}
		params[fn.Params[i]] = slot
	}
	return c.expr(fn.Body, params)
}

func (p *Program) newScratch() *Scratch {
	maxArity := 0
	for _, in := range p.insns {
		if in.op == opCall && len(in.args) > maxArity {
			maxArity = len(in.args)
		}
	}
	return &Scratch{
		slots:  make([]axiom.Rel, p.nslots),
		fns:    make([]FuncValue, len(p.freeFns)),
		args:   make([]axiom.Rel, maxArity),
		checks: make([]axiom.Rel, len(p.checks)),
	}
}

// NewScratch returns a fresh scratch owned by the caller, outside the
// program's pool.
func (p *Program) NewScratch() *Scratch { return p.newScratch() }

// BorrowScratch lends a scratch from the program's pool, growing the pool
// when it is empty. The borrower uses it from one goroutine at a time and
// hands it back with ReturnScratch; a judgement borrows one per model and
// goroutine, so the slots' bitset storage carries over from judgement to
// judgement instead of regrowing in each.
func (p *Program) BorrowScratch() *Scratch { return p.pool.Get().(*Scratch) }

// ReturnScratch puts sc back in the program's pool. It first drops
// everything in sc that belongs to the last run rather than to the
// scratch: the tracer, the skeleton key, the base-relation slots (which
// alias the last execution's or environment's relations) and the resolved
// functions. Only scratch-owned storage stays, so a pooled scratch holds
// no request's trace, skeleton or relations. sc must not be used after
// the call.
func (p *Program) ReturnScratch(sc *Scratch) {
	sc.tr, sc.skel = nil, nil
	for _, f := range p.freeRels {
		sc.slots[f.slot] = axiom.Rel{}
	}
	clear(sc.fns)
	clear(sc.args)
	p.pool.Put(sc)
}

// Run evaluates the program against the base environment using a pooled
// scratch. It returns one result per check, like Model.Eval.
func (p *Program) Run(env *Env) (Results, error) {
	sc := p.BorrowScratch()
	defer p.ReturnScratch(sc)
	return p.RunScratch(env, sc)
}

// RunScratch evaluates the program with an explicit scratch. The scratch
// must not be used concurrently; the returned Results are independent of
// it.
func (p *Program) RunScratch(env *Env, sc *Scratch) (Results, error) {
	// The env path writes every slot, including the skeleton-constant ones
	// the exec path may be caching in this scratch: invalidate the cache.
	sc.skel = nil
	// Resolve the base-environment inputs once per run.
	for _, f := range p.freeRels {
		v, ok := env.Lookup(f.name)
		if !ok {
			return nil, fmt.Errorf("cat: unbound name %q", f.name)
		}
		rv, ok := v.(RelValue)
		if !ok {
			return nil, fmt.Errorf("cat: %q is a function, not a relation", f.name)
		}
		sc.slots[f.slot] = rv.Rel
	}
	for i, name := range p.freeFns {
		v, ok := env.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("cat: unbound function %q", name)
		}
		fv, ok := v.(FuncValue)
		if !ok {
			return nil, fmt.Errorf("cat: %q is not a function", name)
		}
		sc.fns[i] = fv
	}

	for _, in := range p.insns {
		switch in.op {
		case opUnion:
			sc.slots[in.dst].SetUnion(sc.slots[in.a], sc.slots[in.b])
		case opInter:
			sc.slots[in.dst].SetInter(sc.slots[in.a], sc.slots[in.b])
		case opDiff:
			sc.slots[in.dst].SetMinus(sc.slots[in.a], sc.slots[in.b])
		case opCall:
			if err := p.runCall(in, sc); err != nil {
				return nil, err
			}
		}
	}
	return p.results(sc), nil
}

// RunExec evaluates the program directly against a candidate execution:
// the fast path behind every model verdict. It binds exactly what ExecEnv
// binds — the Sec. 5.1.1 base relations and the WW/WR/RW/RR filters — but
// resolves them without constructing an environment (no per-execution map,
// interface boxing or closures); TestRunExecMatchesEnv pins the two paths
// against each other. sc may be nil to use the pool.
func (p *Program) RunExec(x *axiom.Execution, sc *Scratch) (Results, error) {
	if sc == nil {
		sc = p.BorrowScratch()
		defer p.ReturnScratch(sc)
	}
	if sc.tr.Enabled() {
		t0 := time.Now()
		res, err := p.runExecResults(x, sc)
		sc.tr.AddPhase(obs.PhaseEval, time.Since(t0))
		return res, err
	}
	return p.runExecResults(x, sc)
}

func (p *Program) runExecResults(x *axiom.Execution, sc *Scratch) (Results, error) {
	if err := p.runExecInsns(x, sc); err != nil {
		return nil, err
	}
	return p.results(sc), nil
}

// RunExecVerdict evaluates the program against a candidate execution like
// RunExec but reports only whether every check passed. It skips the
// per-check relation cloning RunExec pays for diagnostics — the last
// steady-state allocation on the verdict hot path — and short-circuits on
// the first violated check. Callers that read just OK/Allowed() (Judge,
// the campaign memo) use this. sc may be nil to use the pool.
func (p *Program) RunExecVerdict(x *axiom.Execution, sc *Scratch) (bool, error) {
	if sc == nil {
		sc = p.BorrowScratch()
		defer p.ReturnScratch(sc)
	}
	if sc.tr.Enabled() {
		t0 := time.Now()
		ok, err := p.runExecVerdict(x, sc)
		sc.tr.AddPhase(obs.PhaseEval, time.Since(t0))
		return ok, err
	}
	return p.runExecVerdict(x, sc)
}

func (p *Program) runExecVerdict(x *axiom.Execution, sc *Scratch) (bool, error) {
	if err := p.runExecInsns(x, sc); err != nil {
		return false, err
	}
	for _, c := range p.checks {
		r := sc.slots[c.slot]
		ok := false
		switch c.kind {
		case Acyclic:
			ok = r.Acyclic()
		case Irreflexive:
			ok = r.Irreflexive()
		case Empty:
			ok = r.IsEmpty()
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// runExecInsns resolves the base relations off the execution and fills the
// scratch's slots. The skeleton-constant half (constFreeRels/constInsns) is
// skipped when the scratch already holds it for this execution's skeleton —
// the common case when one worker checks consecutive rf/co completions of
// one path assembly.
func (p *Program) runExecInsns(x *axiom.Execution, sc *Scratch) error {
	key := x.SkeletonKey()
	if key == nil || key != sc.skel {
		sc.skel = nil // invalidated until the constant half loads cleanly
		for _, f := range p.constFreeRels {
			r, ok := execRel(x, f.name)
			if !ok {
				return execResolveErr(f.name)
			}
			sc.slots[f.slot] = r
		}
		for _, name := range p.freeFns {
			if _, _, ok := execKinds(name); !ok {
				if _, isRel := execRel(x, name); isRel {
					return fmt.Errorf("cat: %q is not a function", name)
				}
				return fmt.Errorf("cat: unbound function %q", name)
			}
		}
		if err := p.execInsns(x, sc, p.constInsns); err != nil {
			return err
		}
		sc.skel = key
	}
	for _, f := range p.varFreeRels {
		// co and fr are derived (not fields of the execution): rebuild them
		// into scratch-owned storage rather than allocating per execution.
		switch f.name {
		case "co":
			x.SetCoRel(&sc.co)
			sc.slots[f.slot] = sc.co
		case "fr":
			x.SetFR(&sc.fr)
			sc.slots[f.slot] = sc.fr
		default:
			r, ok := execRel(x, f.name)
			if !ok {
				return execResolveErr(f.name)
			}
			sc.slots[f.slot] = r
		}
	}
	return p.execInsns(x, sc, p.varInsns)
}

// execInsns interprets one half of the split instruction stream against x.
func (p *Program) execInsns(x *axiom.Execution, sc *Scratch, insns []insn) error {
	for _, in := range insns {
		switch in.op {
		case opUnion:
			sc.slots[in.dst].SetUnion(sc.slots[in.a], sc.slots[in.b])
		case opInter:
			sc.slots[in.dst].SetInter(sc.slots[in.a], sc.slots[in.b])
		case opDiff:
			sc.slots[in.dst].SetMinus(sc.slots[in.a], sc.slots[in.b])
		case opCall:
			name := p.freeFns[in.fn]
			first, second, _ := execKinds(name)
			if len(in.args) != 1 {
				return fmt.Errorf("cat: %q wants 1 arguments, got %d", name, len(in.args))
			}
			x.SetKindFilter(&sc.slots[in.dst], sc.slots[in.args[0]], first, second)
		}
	}
	return nil
}

// execResolveErr renders the unbound-relation error for the exec fast path.
func execResolveErr(name string) error {
	if _, _, isFn := execKinds(name); isFn {
		return fmt.Errorf("cat: %q is a function, not a relation", name)
	}
	return fmt.Errorf("cat: unbound name %q", name)
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
		r := sc.slots[c.slot]
		ok := false
		switch c.kind {
		case Acyclic:
			ok = r.Acyclic()
		case Irreflexive:
			ok = r.Irreflexive()
		case Empty:
			ok = r.IsEmpty()
		}
		results[i] = CheckResult{Name: c.name, Kind: c.kind, OK: ok, Rel: clones[i]}
	}
	return results
}

// execRel resolves a base-relation name against an execution, mirroring
// ExecEnv's relation bindings.
func execRel(x *axiom.Execution, name string) (axiom.Rel, bool) {
	switch name {
	case "po":
		return x.PO, true
	case "po-loc":
		return x.PoLoc(), true
	case "rf":
		return x.RF, true
	case "rfe":
		return x.RFE(), true
	case "co":
		return x.CoRel(), true
	case "fr":
		return x.FR(), true
	case "addr":
		return x.Addr, true
	case "data":
		return x.Data, true
	case "ctrl":
		return x.Ctrl, true
	case "rmw":
		return x.RMW, true
	case "membar.cta":
		return x.Membar[ptx.ScopeCTA], true
	case "membar.gl":
		return x.Membar[ptx.ScopeGL], true
	case "membar.sys":
		return x.Membar[ptx.ScopeSys], true
	case "cta":
		return x.ScopeRel(ptx.ScopeCTA), true
	case "gl":
		return x.ScopeRel(ptx.ScopeGL), true
	case "sys":
		return x.ScopeRel(ptx.ScopeSys), true
	}
	return axiom.Rel{}, false
}

// execKinds resolves a builtin filter name, mirroring ExecEnv's function
// bindings.
func execKinds(name string) (first, second axiom.Kind, ok bool) {
	switch name {
	case "WW":
		return axiom.KWrite, axiom.KWrite, true
	case "WR":
		return axiom.KWrite, axiom.KRead, true
	case "RW":
		return axiom.KRead, axiom.KWrite, true
	case "RR":
		return axiom.KRead, axiom.KRead, true
	}
	return 0, 0, false
}

func (p *Program) runCall(in insn, sc *Scratch) error {
	fv := sc.fns[in.fn]
	args := sc.args[:len(in.args)]
	for i, s := range in.args {
		args[i] = sc.slots[s]
	}
	if fv.Fn != nil { // builtin
		if fv.Arity >= 0 && len(args) != fv.Arity {
			return fmt.Errorf("cat: %q wants %d arguments, got %d", p.freeFns[in.fn], fv.Arity, len(args))
		}
		sc.setCall(in.dst, fv.Fn(args))
		return nil
	}
	// A user-defined function supplied by the base environment: fall back
	// to the interpreter for its body. It stays uncompiled because no
	// verdict reaches it: model-local functions are inlined at compile
	// time, ExecEnv binds builtins only, and the exec fast path never calls
	// runCall (TestBaseEnvFunctionFallback). Only Run and RunScratch on a
	// caller-built Env binding a FuncValue with a Body get here.
	if len(args) != len(fv.Params) {
		return fmt.Errorf("cat: %q wants %d arguments, got %d", p.freeFns[in.fn], len(fv.Params), len(args))
	}
	scope := fv.Env.child()
	for i, param := range fv.Params {
		scope.BindRel(param, args[i])
	}
	r, err := evalExpr(fv.Body, scope)
	if err != nil {
		return err
	}
	sc.setCall(in.dst, r)
	return nil
}

// setCall copies a call's result into the slot's own storage. The result
// may alias the arguments or the environment's relations, and the exec
// path's filters write that slot in place (axiom.Execution.SetKindFilter),
// so the slot never adopts the result's storage.
func (sc *Scratch) setCall(dst int, r axiom.Rel) { sc.slots[dst].SetUnion(r, axiom.Rel{}) }
