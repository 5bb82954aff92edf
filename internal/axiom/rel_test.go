package axiom

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fromPairs builds a relation from explicit pairs.
func fromPairs(pairs ...[2]EventID) Rel {
	var r Rel
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

// has reports whether (a, b) is in r.
func has(r Rel, a, b EventID) bool { return slices.Contains(r.Pairs(), [2]EventID{a, b}) }

// sameRel reports whether a and b hold the same pairs.
func sameRel(a, b Rel) bool { return slices.Equal(a.Pairs(), b.Pairs()) }

func TestRelBasics(t *testing.T) {
	r := NewRel()
	r.Add(0, 1)
	r.Add(1, 2)
	if !has(r, 0, 1) || has(r, 1, 0) {
		t.Error("Add wrong")
	}
	if r.Size() != 2 {
		t.Errorf("Size = %d", r.Size())
	}
	if r.IsEmpty() {
		t.Error("not empty")
	}
	if NewRel().Size() != 0 || !NewRel().IsEmpty() {
		t.Error("empty relation wrong")
	}
}

func TestRelAlgebra(t *testing.T) {
	a := fromPairs([2]EventID{0, 1}, [2]EventID{1, 2})
	b := fromPairs([2]EventID{1, 2}, [2]EventID{2, 3})

	var u, i, d Rel
	u.SetUnion(a, b)
	if u.Size() != 3 {
		t.Errorf("SetUnion size = %d", u.Size())
	}
	i.SetInter(a, b)
	if i.Size() != 1 || !has(i, 1, 2) {
		t.Errorf("SetInter = %v", i)
	}
	d.SetMinus(a, b)
	if d.Size() != 1 || !has(d, 0, 1) {
		t.Errorf("SetMinus = %v", d)
	}
}

func TestAcyclic(t *testing.T) {
	chain := fromPairs([2]EventID{0, 1}, [2]EventID{1, 2})
	if !chain.Acyclic() {
		t.Error("chain should be acyclic")
	}
	cyc := fromPairs([2]EventID{0, 1}, [2]EventID{1, 2}, [2]EventID{2, 0})
	if cyc.Acyclic() {
		t.Error("cycle should be detected")
	}
	self := fromPairs([2]EventID{3, 3})
	if self.Acyclic() {
		t.Error("self loop is a cycle")
	}
	if !NewRel().Acyclic() {
		t.Error("empty relation is acyclic")
	}
}

func TestIrreflexive(t *testing.T) {
	if !fromPairs([2]EventID{0, 1}).Irreflexive() {
		t.Error("should be irreflexive")
	}
	if fromPairs([2]EventID{1, 1}).Irreflexive() {
		t.Error("self pair is reflexive")
	}
}

// randomRel builds a relation over n events from a seed.
func randomRel(seed int64, n int) Rel {
	rng := rand.New(rand.NewSource(seed))
	r := NewRel()
	for i := 0; i < n*2; i++ {
		r.Add(EventID(rng.Intn(n)), EventID(rng.Intn(n)))
	}
	return r
}

// TestQuickAcyclicIffTopoOrder property-checks Acyclic against an
// independent topological-sort implementation.
func TestQuickAcyclicIffTopoOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRel(seed, 6)
		return r.Acyclic() == hasTopoOrder(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// hasTopoOrder is an independent Kahn's-algorithm acyclicity oracle.
func hasTopoOrder(r Rel) bool {
	indeg := make(map[EventID]int)
	nodes := make(map[EventID]bool)
	r.Each(func(a, b EventID) {
		nodes[a] = true
		nodes[b] = true
		indeg[b]++
	})
	var queue []EventID
	for n := range nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	removed := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		removed++
		r.Each(func(a, b EventID) {
			if a == n {
				indeg[b]--
				if indeg[b] == 0 {
					queue = append(queue, b)
				}
			}
		})
	}
	return removed == len(nodes)
}

// TestQuickUnionLaws property-checks commutativity and idempotence of
// union, and De-Morgan-ish interactions with intersection.
func TestQuickUnionLaws(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a, b := randomRel(s1, 5), randomRel(s2, 5)
		var ab, ba, aa, inter, minus, split Rel
		ab.SetUnion(a, b)
		ba.SetUnion(b, a)
		aa.SetUnion(a, a)
		inter.SetInter(a, b)
		minus.SetMinus(a, b)
		split.SetUnion(inter, minus)
		return sameRel(ab, ba) && sameRel(aa, a) && sameRel(split, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPairsDeterministic(t *testing.T) {
	r := fromPairs([2]EventID{2, 1}, [2]EventID{0, 3}, [2]EventID{0, 1})
	p := r.Pairs()
	want := [][2]EventID{{0, 1}, {0, 3}, {2, 1}}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", p, want)
		}
	}
	if r.String() != "{(0,1) (0,3) (2,1)}" {
		t.Errorf("String = %s", r.String())
	}
}
