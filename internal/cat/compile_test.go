package cat

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// diffEval runs the model through both the compiled program (Eval) and the
// retained tree-walking interpreter and asserts identical results — or that
// both error.
func diffEval(t *testing.T, src string, env *Env) {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	compiled, cErr := m.Eval(env)
	interp, iErr := m.interp(env)
	if (cErr != nil) != (iErr != nil) {
		t.Fatalf("compiled err %v vs interpreter err %v\n%s", cErr, iErr, src)
	}
	if cErr != nil {
		return
	}
	if len(compiled) != len(interp) {
		t.Fatalf("result counts differ: %d vs %d\n%s", len(compiled), len(interp), src)
	}
	for i := range compiled {
		c, r := compiled[i], interp[i]
		if c.Name != r.Name || c.Kind != r.Kind || c.OK != r.OK {
			t.Fatalf("check %d: compiled %+v vs interpreter %+v\n%s", i, c, r, src)
		}
		if !c.Rel.Equal(r.Rel) {
			t.Fatalf("check %s: relation %v vs %v\n%s", c.Name, c.Rel, r.Rel, src)
		}
	}
}

// TestCompiledMatchesInterpreter pins the compiled evaluator against the
// interpreter on hand-picked models covering lets, parameterised lets,
// shadowing, builtins, and precedence.
func TestCompiledMatchesInterpreter(t *testing.T) {
	env := NewEnv()
	env.BindRel("x", axiom.FromPairs([2]axiom.EventID{0, 1}, [2]axiom.EventID{1, 2}))
	env.BindRel("y", axiom.FromPairs([2]axiom.EventID{2, 0}))
	env.BindRel("z", axiom.FromPairs([2]axiom.EventID{1, 1}))
	env.BindFunc("ID", 1, func(args []axiom.Rel) axiom.Rel { return args[0] })

	for _, src := range []string{
		"acyclic x as a",
		"acyclic x | y as cyc\nirreflexive z as ir\nempty x & y as e",
		"let a = x | y\nlet b = a & x\nacyclic b \\ y as c",
		"let f(p) = p | y\nacyclic f(x) as c1\nacyclic f(f(x)) as c2",
		"let f(p, q) = p & q\nlet g(p) = f(p, x)\nempty g(y) as c",
		"let a = x\nlet a = a | y\nacyclic a as rebound",
		"let a = x | y & z\nirreflexive a as prec",
		"acyclic ID(x | y) as builtin",
		"let f(p) = ID(p) \\ y\nempty f(y) \\ x \\ x as chain",
		// Error cases: both paths must reject.
		"acyclic nosuch as c",
		"acyclic ID(x, y) as c",                  // builtin arity mismatch
		"let f(p, q) = p | q\nacyclic f(x) as c", // user arity mismatch
		"acyclic x(y) as c",                      // relation used as function
		"acyclic ID as c",                        // function used as relation
		"let f(p) = p\nacyclic f as c",
	} {
		diffEval(t, src, env)
	}
}

// TestCompiledMatchesInterpreterRandom feeds both evaluators randomly
// generated models over random environments.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3"}
	rng := rand.New(rand.NewSource(20150314))
	for trial := 0; trial < 200; trial++ {
		env := NewEnv()
		for _, n := range names {
			r := axiom.NewRel()
			for i := rng.Intn(8); i > 0; i-- {
				r.Add(axiom.EventID(rng.Intn(6)), axiom.EventID(rng.Intn(6)))
			}
			env.BindRel(n, r)
		}
		env.BindFunc("ID", 1, func(args []axiom.Rel) axiom.Rel { return args[0] })

		var sb strings.Builder
		bound := append([]string{}, names...)
		lets := rng.Intn(4)
		for i := 0; i < lets; i++ {
			name := fmt.Sprintf("l%d", i)
			fmt.Fprintf(&sb, "let %s = %s\n", name, randExpr(rng, bound, 3))
			bound = append(bound, name)
		}
		fn := fmt.Sprintf("f%d", trial%3)
		fmt.Fprintf(&sb, "let %s(p) = %s | p\n", fn, randExpr(rng, bound, 2))
		checks := 1 + rng.Intn(3)
		kinds := []string{"acyclic", "irreflexive", "empty"}
		for i := 0; i < checks; i++ {
			expr := randExpr(rng, bound, 3)
			if rng.Intn(2) == 0 {
				expr = fmt.Sprintf("%s(%s)", fn, expr)
			}
			fmt.Fprintf(&sb, "%s %s as c%d\n", kinds[rng.Intn(len(kinds))], expr, i)
		}
		diffEval(t, sb.String(), env)
	}
}

func randExpr(rng *rand.Rand, bound []string, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return bound[rng.Intn(len(bound))]
	}
	l, r := randExpr(rng, bound, depth-1), randExpr(rng, bound, depth-1)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s | %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s & %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s \\ %s)", l, r)
	default:
		return fmt.Sprintf("ID(%s)", l)
	}
}

// TestBuiltinArityError pins the satellite bugfix: a WW/WR/RW/RR call with
// the wrong number of arguments must surface as an evaluation error (the
// old ExecEnv builtins silently returned the empty relation, making "empty
// WW(a, b)" vacuously pass).
func TestBuiltinArityError(t *testing.T) {
	env := NewEnv()
	env.BindRel("a", axiom.FromPairs([2]axiom.EventID{0, 1}))
	env.BindRel("b", axiom.FromPairs([2]axiom.EventID{1, 0}))
	env.BindFunc("WW", 1, func(args []axiom.Rel) axiom.Rel { return args[0] })

	m := MustParse("empty WW(a, b) as oops")
	if _, err := m.Eval(env); err == nil || !strings.Contains(err.Error(), "wants 1 arguments") {
		t.Errorf("compiled eval: expected arity error, got %v", err)
	}
	if _, err := m.interp(env); err == nil || !strings.Contains(err.Error(), "wants 1 arguments") {
		t.Errorf("interpreter: expected arity error, got %v", err)
	}

	// The correct arity still evaluates.
	ok := MustParse("empty WW(a) \\ a as fine")
	res, err := ok.Eval(env)
	if err != nil || !res[0].OK {
		t.Errorf("unary call broken: %v %v", res, err)
	}
}

// TestScratchReuseAcrossEnvs runs one compiled program against differently
// sized environments through a single scratch, guarding against stale slot
// storage leaking between runs.
func TestScratchReuseAcrossEnvs(t *testing.T) {
	m := MustParse("let u = a | b\nacyclic u as c\nempty u & a as e")
	p, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := p.NewScratch()
	mkEnv := func(maxID int, cyclic bool) *Env {
		env := NewEnv()
		a, b := axiom.NewRel(), axiom.NewRel()
		a.Add(0, axiom.EventID(maxID))
		if cyclic {
			b.Add(axiom.EventID(maxID), 0)
		}
		env.BindRel("a", a)
		env.BindRel("b", b)
		return env
	}
	for i, c := range []struct {
		maxID  int
		cyclic bool
	}{{50, true}, {3, false}, {100, true}, {2, true}, {70, false}} {
		res, err := p.RunScratch(mkEnv(c.maxID, c.cyclic), sc)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].OK != !c.cyclic {
			t.Errorf("run %d: acyclic = %v, want %v", i, res[0].OK, !c.cyclic)
		}
		if res[1].OK {
			t.Errorf("run %d: u & a must be non-empty", i)
		}
	}
}

// TestBaseEnvFunctionFallback pins where Program.runCall's interpreter
// fallback is reached: only through Run or RunScratch on a caller-built
// Env that binds a parameterised function value. ExecEnv, the base
// environment of the env path, binds builtins only, and the exec fast path
// behind every verdict (RunExec, RunExecVerdict) resolves its WW/WR/RW/RR
// calls itself and never calls runCall; so no judgement, under the four
// built-in models or any other, reaches the fallback. Where it is reached,
// it agrees with the interpreter.
func TestBaseEnvFunctionFallback(t *testing.T) {
	for name, v := range ExecEnv(&axiom.Execution{}).vars {
		if fv, ok := v.(FuncValue); ok && fv.Fn == nil {
			t.Errorf("ExecEnv binds %q as a parameterised function; verdicts would reach runCall's interpreter fallback", name)
		}
	}
	env := NewEnv()
	env.BindRel("x", axiom.FromPairs([2]axiom.EventID{0, 1}, [2]axiom.EventID{1, 2}))
	env.BindRel("y", axiom.FromPairs([2]axiom.EventID{2, 0}))
	env.Bind("f", FuncValue{Name: "f", Params: []string{"p"}, Body: Union{L: Ident{Name: "p"}, R: Ident{Name: "y"}}, Env: env})
	diffEval(t, "acyclic f(x) as c\nempty f(x & y) \\ y as e\nirreflexive f(f(x)) as i", env)
	diffEval(t, "acyclic f(x, y) as arity", env)
}

// TestCallSlotOwnsStorage: a base-environment function may return a
// relation that aliases its argument, and the exec path's filters write
// the call's slot in place. The env path therefore copies a call's result
// into the slot's own storage, so a later exec-path run on the same
// scratch (a pooled scratch may go from one path to the other) never
// writes into a caller's relation.
func TestCallSlotOwnsStorage(t *testing.T) {
	p := MustParse("let a = WW(po)\nacyclic a as c").MustCompile()
	po := axiom.FromPairs([2]axiom.EventID{5, 9})
	want := po.Clone()
	env := NewEnv()
	env.BindRel("po", po)
	env.BindFunc("WW", 1, func(args []axiom.Rel) axiom.Rel { return args[0] })
	sc := p.NewScratch()
	if _, err := p.RunScratch(env, sc); err != nil {
		t.Fatal(err)
	}
	xs, err := axiom.Enumerate(litmus.MP(litmus.NoFence), axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunExec(xs[0], sc); err != nil {
		t.Fatal(err)
	}
	if !po.Equal(want) {
		t.Errorf("the exec path wrote into the environment's po: %v, want %v", po, want)
	}
}

// TestReturnScratchDropsRunState: a returned scratch keeps only the
// storage it owns. The tracer, the skeleton key, the base-relation slots
// (which alias the execution's relations) and the resolved functions go,
// so the pool holds nothing of the last request.
func TestReturnScratchDropsRunState(t *testing.T) {
	p := MustParse("let a = WW(po) | rf\nacyclic a | co | fr as c").MustCompile()
	xs, err := axiom.Enumerate(litmus.MP(litmus.NoFence), axiom.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	sc := p.BorrowScratch()
	sc.SetTracer(obs.New(obs.NewID()))
	if _, err := p.RunExecVerdict(xs[0], sc); err != nil {
		t.Fatal(err)
	}
	if sc.skel == nil {
		t.Fatal("the exec path cached no skeleton")
	}
	p.ReturnScratch(sc)
	if sc.tr != nil || sc.skel != nil {
		t.Errorf("returned scratch keeps tracer %v, skeleton %v", sc.tr, sc.skel)
	}
	for _, f := range p.freeRels {
		if !reflect.DeepEqual(sc.slots[f.slot], axiom.Rel{}) {
			t.Errorf("returned scratch keeps base relation %s", f.name)
		}
	}
	for i, fv := range sc.fns {
		if fv.Fn != nil || fv.Env != nil {
			t.Errorf("returned scratch keeps function %d", i)
		}
	}
}
