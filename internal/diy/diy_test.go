package diy

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

func mustEdges(t *testing.T, spec string) []Edge {
	t.Helper()
	edges, err := ParseEdges(spec)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestParseEdge(t *testing.T) {
	e, err := ParseEdge("Rfe:cta")
	if err != nil {
		t.Fatal(err)
	}
	if !e.External || e.Scope != ScopeCta || e.Src != W || e.Dst != R {
		t.Errorf("Rfe:cta = %+v", e)
	}
	if _, err := ParseEdge("Bogus"); err == nil {
		t.Error("unknown edge must fail")
	}
	if _, err := ParseEdge("PodWW:cta"); err == nil {
		t.Error("scope annotation on internal edge must fail")
	}
	if _, err := ParseEdge("Rfe:galaxy"); err == nil {
		t.Error("unknown scope must fail")
	}
}

// TestCycleMP: the canonical mp cycle generates a 2-thread test whose weak
// outcome the PTX model allows, and whose fenced variant it forbids.
func TestCycleMP(t *testing.T) {
	test, err := Cycle("gen-mp", mustEdges(t, "Rfe PodRR Fre PodWW"))
	if err != nil {
		t.Fatal(err)
	}
	if test.NumThreads() != 2 {
		t.Fatalf("mp cycle: %d threads", test.NumThreads())
	}
	v, err := core.Judge(core.PTX(), test)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Observable {
		t.Errorf("generated mp must be allowed:\n%s", test)
	}

	fenced, err := Cycle("gen-mp+fences", mustEdges(t, "Rfe MembarGLdRR Fre MembarGLdWW"))
	if err != nil {
		t.Fatal(err)
	}
	v, err = core.Judge(core.PTX(), fenced)
	if err != nil {
		t.Fatal(err)
	}
	if v.Observable {
		t.Errorf("generated fenced mp must be forbidden:\n%s", fenced)
	}
}

// TestCycleSB: store buffering from edges.
func TestCycleSB(t *testing.T) {
	test, err := Cycle("gen-sb", mustEdges(t, "Fre PodWR Fre PodWR"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Judge(core.PTX(), test)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Observable {
		t.Errorf("generated sb must be allowed:\n%s", test)
	}
}

// TestCycleCoRR: the Fig. 1 idiom from edges, intra-CTA.
func TestCycleCoRR(t *testing.T) {
	test, err := Cycle("gen-coRR", mustEdges(t, "Rfe:cta PosRR Fre:cta"))
	if err != nil {
		t.Fatal(err)
	}
	if test.NumThreads() != 2 {
		t.Fatalf("coRR cycle: %d threads:\n%s", test.NumThreads(), test)
	}
	if !test.Scope.SameCTA(0, 1) {
		t.Error("cta-scoped edges must place threads in one CTA")
	}
	v, err := core.Judge(core.PTX(), test)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Observable {
		t.Errorf("generated coRR must be allowed (llh):\n%s", test)
	}
}

// TestCycleDependencies: dependent lb is forbidden by no-thin-air.
func TestCycleDependencies(t *testing.T) {
	test, err := Cycle("gen-lb+deps", mustEdges(t, "Rfe DpDatadW Rfe DpDatadW"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Judge(core.PTX(), test)
	if err != nil {
		t.Fatal(err)
	}
	if v.Observable {
		t.Errorf("dependent lb must be forbidden:\n%s", test)
	}

	// Plain lb stays allowed.
	plain, err := Cycle("gen-lb", mustEdges(t, "Rfe PodRW Rfe PodRW"))
	if err != nil {
		t.Fatal(err)
	}
	v, err = core.Judge(core.PTX(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Observable {
		t.Errorf("plain lb must be allowed:\n%s", plain)
	}
}

// TestCycleAddrDep: the Fig. 13b and-scheme survives into the generated
// program.
func TestCycleAddrDep(t *testing.T) {
	test, err := Cycle("gen-addr", mustEdges(t, "Rfe DpAddrdR Fre PodWW"))
	if err != nil {
		t.Fatal(err)
	}
	s := test.String()
	if !strings.Contains(s, "0x80000000") || !strings.Contains(s, "cvt.u64.u32") {
		t.Errorf("address dependency code missing:\n%s", s)
	}
}

// TestCycleCoherence: a Coe cycle witnesses coherence via final memory.
func TestCycleCoherence(t *testing.T) {
	test, err := Cycle("gen-2+2w", mustEdges(t, "Coe PodWW Coe PodWW"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range litmus.CondAtoms(test.Exists) {
		if _, ok := a.(litmus.MemEq); ok {
			found = true
		}
	}
	if !found {
		t.Errorf("coherence cycle must constrain final memory:\n%s", test)
	}
}

func TestCycleErrors(t *testing.T) {
	bad := []string{
		"PodWW PodWW", // no external edge
		"Rfe PodRR",   // kinds do not chain (R -> PodRR -> R, wrap R->W mismatch)
		"Rfe Fre",     // read from and before the same write
	}
	for _, spec := range bad {
		edges, err := ParseEdges(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := Cycle("bad", edges); err == nil {
			t.Errorf("Cycle(%s): expected error", spec)
		}
	}
}

func TestGenerate(t *testing.T) {
	tests := Generate(BasicPool(), 4, 200)
	if len(tests) < 20 {
		t.Fatalf("expected a rich corpus, got %d tests", len(tests))
	}
	names := make(map[string]bool)
	for _, g := range tests {
		if err := g.Test.Validate(); err != nil {
			t.Errorf("%s: %v", g.Test.Name, err)
		}
		if names[g.Test.Name] {
			t.Errorf("duplicate generated test %s", g.Test.Name)
		}
		names[g.Test.Name] = true
		if ok, reason := core.Covers(g.Test); !ok {
			t.Errorf("%s: generated test outside model scope: %s", g.Test.Name, reason)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(BasicPool(), 4, 50)
	b := Generate(BasicPool(), 4, 50)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Test.Name != b[i].Test.Name {
			t.Fatalf("nondeterministic order at %d: %s vs %s", i, a[i].Test.Name, b[i].Test.Name)
		}
	}
}

// TestGenerateFingerprintsStable: regenerating the corpus yields the same
// test, and so the same content fingerprint, for every cycle. Cycles that
// write two locations more than once carry one final-memory conjunct per
// location; their order must not depend on map iteration.
func TestGenerateFingerprintsStable(t *testing.T) {
	a := Generate(DefaultPool(), 4, 1<<20)
	b := Generate(DefaultPool(), 4, 1<<20)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fa, fb := a[i].Test.Fingerprint(), b[i].Test.Fingerprint(); fa != fb {
			t.Errorf("%s: fingerprint %s, then %s on regeneration\n%s\nvs\n%s",
				a[i].Test.Name, fa, fb, a[i].Test, b[i].Test)
		}
	}
}

func TestGenerateRoundTrips(t *testing.T) {
	for _, g := range Generate(BasicPool(), 4, 60) {
		src := g.Test.String()
		re, err := litmus.Parse(src)
		if err != nil {
			t.Errorf("%s: reparse: %v\n%s", g.Test.Name, err, src)
			continue
		}
		if re.String() != src {
			t.Errorf("%s: round trip mismatch", g.Test.Name)
		}
	}
}

func TestGenerateWithDeps(t *testing.T) {
	tests := Generate(DefaultPool(), 4, 400)
	withDep, withFence, withCta := 0, 0, 0
	for _, g := range tests {
		for _, e := range g.Edges {
			if e.Dep != NoDep {
				withDep++
				break
			}
		}
		for _, e := range g.Edges {
			if e.Fence != 0 {
				withFence++
				break
			}
		}
		for _, e := range g.Edges {
			if e.External && e.Scope == ScopeCta {
				withCta++
				break
			}
		}
	}
	if withDep == 0 || withFence == 0 || withCta == 0 {
		t.Errorf("corpus lacks variety: deps=%d fences=%d cta=%d of %d", withDep, withFence, withCta, len(tests))
	}
}
