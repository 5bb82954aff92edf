package cat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// enumerate returns the candidate executions of tests, in enumeration
// order.
func enumerate(tests []*litmus.Test) ([]*axiom.Execution, error) {
	var execs []*axiom.Execution
	for _, test := range tests {
		xs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", test.Name, err)
		}
		execs = append(execs, xs...)
	}
	return execs, nil
}

var (
	paperExecsOnce = sync.OnceValues(func() ([]*axiom.Execution, error) {
		return enumerate(litmus.PaperTests())
	})
	diyExecsOnce = sync.OnceValues(func() ([]*axiom.Execution, error) {
		var tests []*litmus.Test
		for _, g := range diy.Generate(diy.DefaultPool(), 4, 50) {
			tests = append(tests, g.Test)
		}
		return enumerate(tests)
	})
)

// paperExecs returns the candidate executions of the paper's tests.
func paperExecs(t testing.TB) []*axiom.Execution {
	t.Helper()
	execs, err := paperExecsOnce()
	if err != nil {
		t.Fatal(err)
	}
	return execs
}

// diffOracle compiles src and checks the compiled program against the
// oracle interpreter on every execution: RunExec on one scratch shared by
// all of them (so the skeleton cache and the in-place filters carry state
// from one execution to the next) must give the results of interp over
// ExecEnv, check for check and relation for relation. A source Compile
// rejects must fail in the oracle with the same error text.
func diffOracle(t testing.TB, src string, execs []*axiom.Execution) {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	p, cErr := m.Compile()
	if cErr != nil {
		if _, iErr := m.interp(ExecEnv(execs[0])); iErr == nil || iErr.Error() != cErr.Error() {
			t.Fatalf("Compile error %v vs oracle error %v\n%s", cErr, iErr, src)
		}
		return
	}
	sc := p.NewScratch()
	for i, x := range execs {
		want, err := m.interp(ExecEnv(x))
		if err != nil {
			t.Fatalf("execution %d: Compile accepted what the oracle rejects: %v\n%s", i, err, src)
		}
		if err := sameResults(p.RunExec(x, sc), want); err != nil {
			t.Fatalf("execution %d: %v\n%s", i, err, src)
		}
	}
}

// sameResults reports the first difference between two result lists.
func sameResults(got, want Results) error {
	if len(got) != len(want) {
		return fmt.Errorf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.OK != w.OK {
			return fmt.Errorf("check %d: compiled %+v vs oracle %+v", i, g, w)
		}
		if !slices.Equal(g.Rel.Pairs(), w.Rel.Pairs()) {
			return fmt.Errorf("check %s: relation %v vs %v", g.Name, g.Rel, w.Rel)
		}
	}
	return nil
}

// handPicked covers lets, parameterised lets, shadowing (of base names
// too), the filters, every base relation, precedence, and the compile
// errors.
var handPicked = []string{
	"acyclic po as a",
	"acyclic po | rf as cyc\nirreflexive co as ir\nempty rf & fr as e",
	"let a = po | rf\nlet b = a & po\nacyclic b \\ rf as c",
	"let f(p) = p | rf\nacyclic f(po) as c1\nacyclic f(f(co)) as c2",
	"let f(p, q) = p & q\nlet g(p) = f(p, po-loc)\nempty g(fr) as c",
	"let a = po\nlet a = a | rf\nacyclic a as rebound",
	"let a = po | rf & co\nirreflexive a as prec",
	"acyclic WW(po | co) as filter",
	"let f(p) = RW(p) \\ fr\nempty f(po-loc) \\ po \\ rf as chain",
	"empty WR(RR(po)) | WW(rfe) as nested",
	"let po = po & cta\nlet WW = rf\nacyclic po | WW as shadow",
	"let f(WW) = WW | co\nacyclic f(po) as param",
	"acyclic membar.cta | membar.gl | membar.sys | addr | data | ctrl | rmw as skeleton\nacyclic (rfe | fr) & gl & sys as scoped",
	// Compile errors: the oracle fails with the same text.
	"acyclic nosuch as c",
	"acyclic nosuch(po) as c",
	"acyclic WW(po, rf) as c",
	"let f(p, q) = p | q\nacyclic f(po) as c",
	"let f(p, q) = p | q\nacyclic f(nosuch) as c",
	"acyclic po(rf) as c",
	"acyclic WW as c",
	"let f(p) = p\nacyclic f as c",
	"let WW = po\nacyclic WW(rf) as c",
	"let f(p) = p(rf)\nacyclic f(po) as c",
}

// TestCompiledMatchesInterpreter pins the compiled evaluator against the
// oracle on the hand-picked models over the paper tests' executions.
func TestCompiledMatchesInterpreter(t *testing.T) {
	execs := paperExecs(t)
	for _, src := range handPicked {
		diffOracle(t, src, execs)
	}
}

// baseRels is the relation vocabulary the random models draw from,
// written out here rather than read from vocab.
var baseRels = []string{
	"po", "po-loc", "rf", "rfe", "co", "fr", "addr", "data", "ctrl", "rmw",
	"membar.cta", "membar.gl", "membar.sys", "cta", "gl", "sys",
}

// TestCompiledMatchesInterpreterRandom feeds both evaluators randomly
// generated models over the base relations and the WW/WR/RW/RR filters,
// on the executions of the paper tests and of the first 50 diy cycles.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	diyExecs, err := diyExecsOnce()
	if err != nil {
		t.Fatal(err)
	}
	execs := append(append([]*axiom.Execution{}, paperExecs(t)...), diyExecs...)
	rng := rand.New(rand.NewSource(20150314))
	for trial := 0; trial < 200; trial++ {
		var sb strings.Builder
		bound := append([]string{}, baseRels...)
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
		diffOracle(t, sb.String(), execs)
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
		return fmt.Sprintf("%s(%s)", []string{"WW", "WR", "RW", "RR"}[rng.Intn(4)], l)
	}
}

// TestCompileErrors pins the text of every error Compile reports.
func TestCompileErrors(t *testing.T) {
	// Eighteen chained functions, each calling the previous one twice:
	// unbounded, f17 alone would inline to 2^19 - 1 instructions.
	var chain strings.Builder
	chain.WriteString("let f0(p) = p | p\n")
	for i := 1; i < 18; i++ {
		fmt.Fprintf(&chain, "let f%d(p) = f%d(p) | f%d(p)\n", i, i-1, i-1)
	}
	chain.WriteString("acyclic f17(po) as c")
	for _, c := range []struct {
		name string
		m    *Model
		want string
	}{
		{"unbound relation", MustParse("acyclic nosuch as c"),
			`cat: in check c: unbound name "nosuch"`},
		{"unbound function", MustParse("let a = nosuch(po)\nacyclic a as c"),
			`cat: in let a: unbound function "nosuch"`},
		{"relation called", MustParse("acyclic po(rf) as c"),
			`cat: in check c: "po" is not a function`},
		{"filter as relation", MustParse("acyclic WW | po as c"),
			`cat: in check c: "WW" is a function, not a relation`},
		// The parser rejects "WW()", so that call is built directly.
		{"filter without argument", &Model{Stmts: []Stmt{Check{Kind: Empty, Expr: App{Fn: "WW"}, Name: "c"}}},
			`cat: in check c: "WW" wants 1 arguments, got 0`},
		{"filter with two arguments", MustParse("empty WW(po, rf) as c"),
			`cat: in check c: "WW" wants 1 arguments, got 2`},
		{"function arity", MustParse("let f(p, q) = p | q\nacyclic f(po) as c"),
			`cat: in check c: "f" wants 2 arguments, got 1`},
		{"recursive inline", MustParse("let f(p) = f(p) | p\nacyclic f(po) as c"),
			`cat: in check c: "f" exceeds inline depth 64 (recursive function?)`},
		{"program size", MustParse(chain.String()),
			`cat: in check c: inlining "f1" grows the program past 65536 instructions`},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.m.Compile()
			if err == nil || err.Error() != c.want {
				t.Errorf("Compile error %v, want %s", err, c.want)
			}
			if p != nil {
				t.Error("Compile returned a program with its error")
			}
		})
	}
}

// TestScratchReuseAcrossExecs runs one compiled program through a single
// scratch over executions whose event counts go up and down (largest,
// smallest, next largest, ...), guarding against slot storage sized for
// one execution leaking into the next; every result must equal the
// oracle's.
func TestScratchReuseAcrossExecs(t *testing.T) {
	execs := append([]*axiom.Execution{}, paperExecs(t)...)
	sort.SliceStable(execs, func(i, j int) bool { return len(execs[i].Events) < len(execs[j].Events) })
	var seesaw []*axiom.Execution
	for lo, hi := 0, len(execs)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		seesaw = append(seesaw, execs[hi])
		if lo < hi {
			seesaw = append(seesaw, execs[lo])
		}
	}
	if first, second := len(seesaw[0].Events), len(seesaw[1].Events); first <= second {
		t.Fatalf("universe sizes %d then %d: the corpus does not shrink", first, second)
	}
	diffOracle(t, "let com = rf | co | fr\nlet u = WW(po-loc) | RW(po) | com\nacyclic u as c\nempty u & rf as e\nirreflexive fr \\ WR(po) as i", seesaw)
}

// TestReturnScratchDropsRunState: a returned scratch keeps only the
// storage it owns. The tracer, the skeleton key and the base-relation
// slots (which alias the execution's relations) go, so the pool holds
// nothing of the last request.
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
	if sc.skel == 0 {
		t.Fatal("the exec path cached no skeleton")
	}
	p.ReturnScratch(sc)
	if sc.tr != nil || sc.skel != 0 {
		t.Errorf("returned scratch keeps tracer %v, skeleton %v", sc.tr, sc.skel)
	}
	for _, f := range p.freeRels {
		if !reflect.DeepEqual(sc.slots[f.slot], axiom.Rel{}) {
			t.Errorf("returned scratch keeps base relation %s", vocab[f.id].name)
		}
	}
}
