package axiom

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveRel is the original map-of-maps relation implementation, kept
// as the reference the bitset engine is differentially tested
// against: randomized relation-algebra expressions must produce identical
// Pairs/Acyclic/Irreflexive results on both.
type naiveRel struct {
	succ map[EventID]map[EventID]bool
}

func newNaive() naiveRel { return naiveRel{succ: make(map[EventID]map[EventID]bool)} }

func (r naiveRel) add(a, b EventID) {
	m := r.succ[a]
	if m == nil {
		m = make(map[EventID]bool)
		r.succ[a] = m
	}
	m[b] = true
}

func (r naiveRel) has(a, b EventID) bool { return r.succ[a][b] }

func (r naiveRel) each(f func(a, b EventID)) {
	for a, m := range r.succ {
		for b := range m {
			f(a, b)
		}
	}
}

func (r naiveRel) pairs() [][2]EventID {
	var ps [][2]EventID
	r.each(func(a, b EventID) { ps = append(ps, [2]EventID{a, b}) })
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	return ps
}

func (r naiveRel) clone() naiveRel {
	c := newNaive()
	r.each(func(a, b EventID) { c.add(a, b) })
	return c
}

func (r naiveRel) union(o naiveRel) naiveRel {
	u := r.clone()
	o.each(func(a, b EventID) { u.add(a, b) })
	return u
}

func (r naiveRel) inter(o naiveRel) naiveRel {
	i := newNaive()
	r.each(func(a, b EventID) {
		if o.has(a, b) {
			i.add(a, b)
		}
	})
	return i
}

func (r naiveRel) minus(o naiveRel) naiveRel {
	d := newNaive()
	r.each(func(a, b EventID) {
		if !o.has(a, b) {
			d.add(a, b)
		}
	})
	return d
}

func (r naiveRel) acyclic() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[EventID]int)
	nodes := make(map[EventID]bool)
	r.each(func(a, b EventID) { nodes[a] = true; nodes[b] = true })
	var ns []EventID
	for n := range nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var stack []EventID
	for _, start := range ns {
		if colour[start] != white {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			if colour[n] == white {
				colour[n] = grey
				for s := range r.succ[n] {
					switch colour[s] {
					case grey:
						return false
					case white:
						stack = append(stack, s)
					}
				}
			} else {
				if colour[n] == grey {
					colour[n] = black
				}
				stack = stack[:len(stack)-1]
			}
		}
	}
	return true
}

func (r naiveRel) irreflexive() bool {
	for a, m := range r.succ {
		if m[a] {
			return false
		}
	}
	return true
}

// relPair is a bitset relation and its naive twin built from the same
// pairs.
type relPair struct {
	fast Rel
	ref  naiveRel
}

func randomPair(rng *rand.Rand, maxID int) relPair {
	p := relPair{fast: NewRel(), ref: newNaive()}
	pairs := rng.Intn(3 * maxID)
	for i := 0; i < pairs; i++ {
		a, b := EventID(rng.Intn(maxID)), EventID(rng.Intn(maxID))
		p.fast.Add(a, b)
		p.ref.add(a, b)
	}
	return p
}

// check asserts the two representations agree on every observable.
func (p relPair) check(t *testing.T, what string) {
	t.Helper()
	fp, rp := p.fast.Pairs(), p.ref.pairs()
	if len(fp) != len(rp) {
		t.Fatalf("%s: Pairs length %d vs reference %d", what, len(fp), len(rp))
	}
	for i := range fp {
		if fp[i] != rp[i] {
			t.Fatalf("%s: Pairs[%d] = %v vs reference %v", what, i, fp[i], rp[i])
		}
	}
	if p.fast.Size() != len(rp) {
		t.Fatalf("%s: Size %d vs %d", what, p.fast.Size(), len(rp))
	}
	if p.fast.IsEmpty() != (len(rp) == 0) {
		t.Fatalf("%s: IsEmpty mismatch", what)
	}
	if got, want := p.fast.Acyclic(), p.ref.acyclic(); got != want {
		t.Fatalf("%s: Acyclic %v vs reference %v\nrel: %v", what, got, want, p.fast)
	}
	if got, want := p.fast.Irreflexive(), p.ref.irreflexive(); got != want {
		t.Fatalf("%s: Irreflexive %v vs reference %v", what, got, want)
	}
}

// TestRelDifferential runs randomized relation-algebra expressions through
// the bitset Rel and the retained naive reference and asserts identical
// results, over both sub-64 universes (single-word rows) and >64-event
// universes (multi-word rows).
func TestRelDifferential(t *testing.T) {
	for _, maxID := range []int{6, 20, 64, 67, 150} {
		rng := rand.New(rand.NewSource(int64(maxID) * 7919))
		for trial := 0; trial < 120; trial++ {
			a := randomPair(rng, maxID)
			b := randomPair(rng, maxID)
			a.check(t, "a")
			b.check(t, "b")

			var u, i, d Rel
			u.SetUnion(a.fast, b.fast)
			i.SetInter(a.fast, b.fast)
			d.SetMinus(a.fast, b.fast)
			relPair{u, a.ref.union(b.ref)}.check(t, "union")
			relPair{i, a.ref.inter(b.ref)}.check(t, "inter")
			relPair{d, a.ref.minus(b.ref)}.check(t, "minus")

			// A compound expression exercising scratch-style chaining in
			// place: (a | b) \ (a & b).
			u.SetMinus(u, i)
			relPair{u, a.ref.union(b.ref).minus(a.ref.inter(b.ref))}.check(t, "compound")
		}
	}
}

// TestRelSetOpsReuse exercises the storage-reusing Set* forms against the
// naive reference, including aliasing and shrinking destinations.
func TestRelSetOpsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dst Rel
	for trial := 0; trial < 300; trial++ {
		maxID := []int{5, 30, 70}[trial%3]
		a := randomPair(rng, maxID)
		b := randomPair(rng, maxID)
		want := a.ref.union(b.ref)
		dst.SetUnion(a.fast, b.fast) // dst reused across trials of varying universes
		relPair{dst, want}.check(t, "SetUnion reuse")
		dst.SetInter(a.fast, b.fast)
		relPair{dst, a.ref.inter(b.ref)}.check(t, "SetInter reuse")
		dst.SetMinus(a.fast, b.fast)
		relPair{dst, a.ref.minus(b.ref)}.check(t, "SetMinus reuse")
		// Aliased in-place update.
		self := a.fast.Clone()
		self.SetUnion(self, b.fast)
		relPair{self, want}.check(t, "aliased SetUnion")
	}
}

// TestRelMultiWordGrowth pins the representation across the 64-event
// boundary: pairs far apart force multi-word rows.
func TestRelMultiWordGrowth(t *testing.T) {
	r := NewRel()
	r.Add(0, 1)
	r.Add(1, 100)
	r.Add(100, 200)
	r.Add(200, 0)
	if !has(r, 1, 100) || !has(r, 200, 0) || has(r, 100, 0) {
		t.Fatal("multi-word Add wrong")
	}
	if r.Size() != 4 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Acyclic() {
		t.Fatal("0→1→100→200→0 is a cycle")
	}
	wantPairs := [][2]EventID{{0, 1}, {1, 100}, {100, 200}, {200, 0}}
	got := r.Pairs()
	for i := range wantPairs {
		if got[i] != wantPairs[i] {
			t.Fatalf("Pairs = %v", got)
		}
	}
}
