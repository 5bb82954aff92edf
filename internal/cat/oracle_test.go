package cat

// The reference oracle for the compiled evaluator: a tree-walking .cat
// interpreter over a lexically scoped environment of relations and
// functions. ExecEnv binds its own list of base names, so the
// differentials against it check the compiler's vocabulary table too.

import (
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Value is a runtime value of the .cat language: a relation or a function
// from relations to relations.
type Value interface{ isValue() }

// RelValue wraps an axiom.Rel.
type RelValue struct{ Rel axiom.Rel }

func (RelValue) isValue() {}

// FuncValue is a function over relations: either a builtin (like WW) or a
// parameterised let.
type FuncValue struct {
	Name   string
	Params []string
	Body   Expr
	Env    *Env                             // closure environment (nil for builtins)
	Fn     func(args []axiom.Rel) axiom.Rel // non-nil for builtins
	Arity  int                              // builtin argument count (-1 disables checking)
}

func (FuncValue) isValue() {}

// Env is a lexically scoped environment.
type Env struct {
	parent *Env
	vars   map[string]Value
}

// NewEnv returns an empty top-level environment.
func NewEnv() *Env { return &Env{vars: make(map[string]Value)} }

// child returns a new scope on top of e.
func (e *Env) child() *Env { return &Env{parent: e, vars: make(map[string]Value)} }

// Bind sets name to v in this scope.
func (e *Env) Bind(name string, v Value) { e.vars[name] = v }

// BindRel binds a relation.
func (e *Env) BindRel(name string, r axiom.Rel) { e.Bind(name, RelValue{Rel: r}) }

// BindFunc binds a builtin function taking exactly arity relations; calls
// with any other argument count are evaluation errors (pass -1 to disable
// the check).
func (e *Env) BindFunc(name string, arity int, fn func(args []axiom.Rel) axiom.Rel) {
	e.Bind(name, FuncValue{Name: name, Fn: fn, Arity: arity})
}

// Lookup resolves a name through the scope chain.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// interp evaluates the model against the base environment statement by
// statement, one result per check.
func (m *Model) interp(base *Env) (Results, error) {
	env := base.child()
	var results Results
	for _, s := range m.Stmts {
		switch st := s.(type) {
		case Let:
			if len(st.Params) > 0 {
				env.Bind(st.Name, FuncValue{Name: st.Name, Params: st.Params, Body: st.Body, Env: env})
			} else {
				r, err := evalExpr(st.Body, env)
				if err != nil {
					return nil, fmt.Errorf("cat: in let %s: %w", st.Name, err)
				}
				env.BindRel(st.Name, r)
			}
		case Check:
			r, err := evalExpr(st.Expr, env)
			if err != nil {
				return nil, fmt.Errorf("cat: in check %s: %w", st.Name, err)
			}
			results = append(results, CheckResult{Name: st.Name, Kind: st.Kind, OK: st.Kind.holds(r), Rel: r})
		default:
			return nil, fmt.Errorf("cat: unknown statement %T", s)
		}
	}
	return results, nil
}

func evalExpr(e Expr, env *Env) (axiom.Rel, error) {
	switch v := e.(type) {
	case Ident:
		val, ok := env.Lookup(v.Name)
		if !ok {
			return axiom.Rel{}, fmt.Errorf("unbound name %q", v.Name)
		}
		r, ok := val.(RelValue)
		if !ok {
			return axiom.Rel{}, fmt.Errorf("%q is a function, not a relation", v.Name)
		}
		return r.Rel, nil
	case Union:
		return evalSet(v.L, v.R, env, (*axiom.Rel).SetUnion)
	case Inter:
		return evalSet(v.L, v.R, env, (*axiom.Rel).SetInter)
	case Diff:
		return evalSet(v.L, v.R, env, (*axiom.Rel).SetMinus)
	case App:
		val, ok := env.Lookup(v.Fn)
		if !ok {
			return axiom.Rel{}, fmt.Errorf("unbound function %q", v.Fn)
		}
		fn, ok := val.(FuncValue)
		if !ok {
			return axiom.Rel{}, fmt.Errorf("%q is not a function", v.Fn)
		}
		args := make([]axiom.Rel, len(v.Args))
		for i, a := range v.Args {
			r, err := evalExpr(a, env)
			if err != nil {
				return axiom.Rel{}, err
			}
			args[i] = r
		}
		if fn.Fn != nil { // builtin
			if fn.Arity >= 0 && len(args) != fn.Arity {
				return axiom.Rel{}, fmt.Errorf("%q wants %d arguments, got %d", v.Fn, fn.Arity, len(args))
			}
			return fn.Fn(args), nil
		}
		if len(args) != len(fn.Params) {
			return axiom.Rel{}, fmt.Errorf("%q wants %d arguments, got %d", v.Fn, len(fn.Params), len(args))
		}
		scope := fn.Env.child()
		for i, p := range fn.Params {
			scope.BindRel(p, args[i])
		}
		return evalExpr(fn.Body, scope)
	default:
		return axiom.Rel{}, fmt.Errorf("unknown expression %T", e)
	}
}

// evalSet evaluates l and then r and combines them into a fresh relation
// with set.
func evalSet(l, r Expr, env *Env, set func(dst *axiom.Rel, a, b axiom.Rel)) (axiom.Rel, error) {
	a, err := evalExpr(l, env)
	if err != nil {
		return axiom.Rel{}, err
	}
	b, err := evalExpr(r, env)
	if err != nil {
		return axiom.Rel{}, err
	}
	var out axiom.Rel
	set(&out, a, b)
	return out, nil
}

// ExecEnv builds the base environment for evaluating a model against a
// candidate execution: the primitive relations of Sec. 5.1.1 plus the
// WW/WR/RW/RR filters.
func ExecEnv(x *axiom.Execution) *Env {
	env := NewEnv()
	env.BindRel("po", x.PO)
	env.BindRel("po-loc", x.PoLoc())
	env.BindRel("rf", x.RF)
	env.BindRel("rfe", x.RFE())
	env.BindRel("co", x.CoRel())
	var fr axiom.Rel
	x.SetFR(&fr)
	env.BindRel("fr", fr)
	env.BindRel("addr", x.Addr)
	env.BindRel("data", x.Data)
	env.BindRel("ctrl", x.Ctrl)
	env.BindRel("rmw", x.RMW)
	env.BindRel("membar.cta", x.Membar[ptx.ScopeCTA])
	env.BindRel("membar.gl", x.Membar[ptx.ScopeGL])
	env.BindRel("membar.sys", x.Membar[ptx.ScopeSys])
	env.BindRel("cta", x.ScopeRel(ptx.ScopeCTA))
	env.BindRel("gl", x.ScopeRel(ptx.ScopeGL))
	env.BindRel("sys", x.ScopeRel(ptx.ScopeSys))

	// The filters take exactly one relation; BindFunc's arity makes any
	// other call shape an evaluation error rather than a silently empty
	// relation.
	filter := func(first, second axiom.Kind) func([]axiom.Rel) axiom.Rel {
		return func(args []axiom.Rel) axiom.Rel {
			var out axiom.Rel
			x.SetKindFilter(&out, args[0], first, second)
			return out
		}
	}
	env.BindFunc("WW", 1, filter(axiom.KWrite, axiom.KWrite))
	env.BindFunc("WR", 1, filter(axiom.KWrite, axiom.KRead))
	env.BindFunc("RW", 1, filter(axiom.KRead, axiom.KWrite))
	env.BindFunc("RR", 1, filter(axiom.KRead, axiom.KRead))
	return env
}
