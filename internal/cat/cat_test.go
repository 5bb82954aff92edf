package cat

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
)

func TestParseFig15(t *testing.T) {
	src := `RMO
(* comment *)
let com = rf | co | fr
let po-loc-llh =
  WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "RMO" {
		t.Errorf("Name = %q", m.Name)
	}
	if len(m.Stmts) != 6 {
		t.Fatalf("Stmts = %d, want 6", len(m.Stmts))
	}
	if l, ok := m.Stmts[5].(Let); !ok || l.Name != "rmo" || len(l.Params) != 1 || l.Params[0] != "fence" {
		t.Errorf("parameterised let wrong: %+v", m.Stmts[5])
	}
	if c, ok := m.Stmts[2].(Check); !ok || c.Kind != Acyclic || c.Name != "sc-per-loc-llh" {
		t.Errorf("check wrong: %+v", m.Stmts[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"let",
		"let x",
		"let x = ",
		"acyclic x",
		"acyclic x as",
		"let x = y | ",
		"let x = (y",
		"let f( = y",
		"(* unterminated",
		"let x = let",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `M
let a = x | y & z
let f(p, q) = p & q \ x
acyclic f(a, y) as check1
irreflexive a as check2
empty x & y as check3
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(m.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, m)
	}
	if re.String() != m.String() {
		t.Errorf("round trip:\n%s\nvs\n%s", m, re)
	}
}

// evalModel evaluates src with the oracle interpreter over env. The
// Eval/Irreflexive/Comment/Precedence tests below pin the .cat semantics
// on synthetic relation names, which only the oracle can bind; the
// differentials in compile_test.go carry the same semantics over to the
// compiled program on real executions.
func evalModel(t *testing.T, src string, env *Env) Results {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.interp(env)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// relOf builds a relation from explicit pairs.
func relOf(pairs ...[2]axiom.EventID) axiom.Rel {
	var r axiom.Rel
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

func TestEvalBasics(t *testing.T) {
	env := NewEnv()
	env.BindRel("a", relOf([2]axiom.EventID{0, 1}))
	env.BindRel("b", relOf([2]axiom.EventID{1, 0}))

	// a | b has a cycle; a alone does not.
	res := evalModel(t, "acyclic a as only-a\nacyclic a | b as both\n", env)
	if !res[0].OK {
		t.Error("a alone is acyclic")
	}
	if res[1].OK {
		t.Error("a | b has a 0-1-0 cycle")
	}
	if res.Allowed() {
		t.Error("Allowed must be false when a check fails")
	}
	if len(res.Failed()) != 1 || res.Failed()[0] != "both" {
		t.Errorf("Failed = %v", res.Failed())
	}
}

func TestEvalIntersectionAndDiff(t *testing.T) {
	env := NewEnv()
	env.BindRel("a", relOf([2]axiom.EventID{0, 1}, [2]axiom.EventID{1, 0}))
	env.BindRel("b", relOf([2]axiom.EventID{0, 1}))
	res := evalModel(t, `
let c = a & b
acyclic c as inter-check
let d = a \ b
acyclic d as diff-check
empty a \ a as empty-check
`, env)
	for _, r := range res {
		if !r.OK {
			t.Errorf("%s should pass", r.Name)
		}
	}
}

func TestEvalParameterisedLet(t *testing.T) {
	env := NewEnv()
	env.BindRel("x", relOf([2]axiom.EventID{0, 1}))
	env.BindRel("y", relOf([2]axiom.EventID{1, 2}))
	res := evalModel(t, `
let join(p, q) = p | q
acyclic join(x, y) as j
`, env)
	if !res[0].OK {
		t.Error("x|y is acyclic")
	}
	if res[0].Rel.Size() != 2 {
		t.Errorf("evaluated relation size = %d", res[0].Rel.Size())
	}
}

func TestEvalUnboundName(t *testing.T) {
	m := MustParse("acyclic nosuch as c")
	if _, err := m.interp(NewEnv()); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("oracle: expected unbound-name error, got %v", err)
	}
	if _, err := m.Compile(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("Compile: expected unbound-name error, got %v", err)
	}
}

func TestEvalArityMismatch(t *testing.T) {
	env := NewEnv()
	env.BindRel("po", axiom.NewRel())
	m := MustParse("let f(a, b) = a | b\nacyclic f(po) as c")
	if _, err := m.interp(env); err == nil {
		t.Error("oracle: expected arity error")
	}
	if _, err := m.Compile(); err == nil {
		t.Error("Compile: expected arity error")
	}
}

func TestEvalShadowing(t *testing.T) {
	// A let can rebind a name; later statements see the newer binding.
	env := NewEnv()
	env.BindRel("a", relOf([2]axiom.EventID{0, 1}, [2]axiom.EventID{1, 0}))
	res := evalModel(t, `
let a = a & a
let a = a \ a
empty a as rebound
`, env)
	if !res[0].OK {
		t.Error("rebound a should be empty")
	}
}

func TestIrreflexiveCheck(t *testing.T) {
	env := NewEnv()
	env.BindRel("r", relOf([2]axiom.EventID{2, 2}))
	res := evalModel(t, "irreflexive r as irr", env)
	if res[0].OK {
		t.Error("self-pair must fail irreflexive")
	}
}

func TestCommentStyles(t *testing.T) {
	src := `M
(* block
   comment *)
let a = x // line comment
acyclic a as c
`
	env := NewEnv()
	env.BindRel("x", axiom.NewRel())
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.interp(env); err != nil {
		t.Fatal(err)
	}
}

func TestPrecedence(t *testing.T) {
	// "a | b & c" must parse as "a | (b & c)".
	env := NewEnv()
	env.BindRel("a", relOf([2]axiom.EventID{0, 1}))
	env.BindRel("b", relOf([2]axiom.EventID{1, 2}))
	env.BindRel("c", relOf([2]axiom.EventID{5, 6}))
	res := evalModel(t, "let u = a | b & c\nacyclic u as chk", env)
	// b & c is empty, so u == a with 1 pair.
	if res[0].Rel.Size() != 1 {
		t.Errorf("precedence wrong: |u| = %d, want 1", res[0].Rel.Size())
	}
}
