package axiom

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// Pooled scratch for the wide-universe slow paths: Acyclic's
// indegree/queue buffers, fr's index buffers and the kind-filter masks
// would fall back to heap allocation past their stack buffers; routing
// them (and the scope relations' thread masks) through these pools keeps
// steady-state wide evaluation allocation-free (pinned by
// BenchmarkRelOpsWide). Buffers are returned unzeroed — callers initialise
// what they use.
var (
	i32Pool = sync.Pool{New: func() any { s := make([]int32, 0, 256); return &s }}
	u64Pool = sync.Pool{New: func() any { s := make([]uint64, 0, 64); return &s }}
)

// geti32 returns a pooled []int32 with capacity >= n (length n, contents
// arbitrary); release with puti32.
func geti32(n int) *[]int32 {
	p := i32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

func puti32(p *[]int32) { i32Pool.Put(p) }

// getu64 returns a pooled []uint64 with capacity >= n (length n, contents
// arbitrary); release with putu64.
func getu64(n int) *[]uint64 {
	p := u64Pool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

func putu64(p *[]uint64) { u64Pool.Put(p) }

// Rel is a binary relation over events, the currency of axiomatic models
// (Sec. 5.1.1). It is represented densely: one bitset row of successors per
// event, packed into []uint64 words, so the set algebra the .cat evaluator
// is built on (union, intersection, difference) runs word-parallel and the
// acyclicity check touches whole rows at a time. Litmus executions have
// well under 64 events, so a row is almost always a single word; larger
// universes grow to multi-word rows transparently.
//
// The zero value is the empty relation. Add and the Set* forms write their
// receiver and never mutate their operands.
type Rel struct {
	words int      // words per row; 0 for the empty relation
	n     int      // effective universe: 1 + the largest id that may carry a bit
	rows  []uint64 // univ() rows of `words` words each, row-major
}

const wordBits = 64

// NewRel returns an empty relation.
func NewRel() Rel { return Rel{} }

// univ returns the capacity bound: the number of rows, which equals the
// column capacity (the matrix is kept square, a multiple of 64 on a side).
// The effective universe n (ids that may actually carry bits) is usually
// much smaller; iteration and graph algorithms loop to n, word-parallel set
// operations process whole rows.
func (r Rel) univ() int { return r.words * wordBits }

// row returns event a's successor bitset (valid for a < univ()).
func (r Rel) row(a int) []uint64 { return r.rows[a*r.words : (a+1)*r.words] }

// ensure grows the universe to include event id.
func (r *Rel) ensure(id EventID) {
	need := int(id) + 1
	if need <= r.univ() {
		return
	}
	words := (need + wordBits - 1) / wordBits
	rows := make([]uint64, words*wordBits*words)
	for a := 0; a < r.univ(); a++ {
		copy(rows[a*words:], r.row(a))
	}
	r.words, r.rows = words, rows
}

// Add inserts the pair (a, b), mutating r. Event IDs must be non-negative.
func (r *Rel) Add(a, b EventID) {
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("axiom: Rel.Add(%d, %d): negative event id", a, b))
	}
	hi := a
	if b > hi {
		hi = b
	}
	r.ensure(hi)
	if int(hi)+1 > r.n {
		r.n = int(hi) + 1
	}
	r.rows[int(a)*r.words+int(b)/wordBits] |= 1 << (uint(b) % wordBits)
}

// Size returns the number of pairs.
func (r Rel) Size() int {
	n := 0
	for _, w := range r.rows[:r.used()] {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the relation has no pairs.
func (r Rel) IsEmpty() bool {
	for _, w := range r.rows[:r.used()] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Each calls f for every pair (a, b), in ascending (a, b) order.
func (r Rel) Each(f func(a, b EventID)) {
	for a := 0; a < r.n; a++ {
		row := r.row(a)
		for wi, w := range row {
			for w != 0 {
				b := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				f(EventID(a), EventID(b))
			}
		}
	}
}

// Pairs returns the pairs in deterministic (sorted) order.
func (r Rel) Pairs() [][2]EventID {
	n := r.Size()
	if n == 0 {
		return nil
	}
	ps := make([][2]EventID, 0, n)
	r.Each(func(a, b EventID) { ps = append(ps, [2]EventID{a, b}) })
	return ps
}

// Clone returns a deep copy.
func (r Rel) Clone() Rel {
	if r.words == 0 {
		return Rel{}
	}
	rows := make([]uint64, len(r.rows))
	copy(rows, r.rows)
	return Rel{words: r.words, n: r.n, rows: rows}
}

// widened returns r re-laid-out with the given row stride (words >= r.words);
// the backing storage is fresh.
func (r Rel) widened(words int) Rel {
	out := Rel{words: words, n: r.n, rows: make([]uint64, words*wordBits*words)}
	for a := 0; a < r.n; a++ {
		copy(out.row(a), r.row(a))
	}
	return out
}

// reuse prepares dst to hold a `words`-stride matrix, reusing its backing
// storage when already the right size (zeroing is the caller's concern: the
// pointwise Set* operations overwrite every word).
func (dst *Rel) reuse(words int) {
	n := words * wordBits * words
	if dst.words == words && len(dst.rows) == n {
		return
	}
	dst.words, dst.rows = words, make([]uint64, n)
}

// align returns x and y at the common stride w, widening at most one of
// them.
func align(x, y Rel) (Rel, Rel, int) {
	switch {
	case x.words == y.words:
		return x, y, x.words
	case x.words < y.words:
		return x.widened(y.words), y, y.words
	default:
		return x, y.widened(x.words), x.words
	}
}

// used returns the number of leading words that may contain bits; words
// beyond it are zero by invariant (fresh allocations are zero, the Set*
// forms zero any stale tail when they shrink a reused destination).
func (r Rel) used() int { return r.n * r.words }

// setCopy sets dst to a copy of src, reusing dst's storage when possible.
func (dst *Rel) setCopy(src Rel) {
	old := 0
	if dst.words == src.words {
		old = dst.used()
	}
	dst.reuse(src.words)
	dst.n = src.n
	m := src.used()
	copy(dst.rows[:m], src.rows[:m])
	for i := m; i < old; i++ {
		dst.rows[i] = 0
	}
}

// setZero makes dst a pairless `words`-stride matrix over universe n,
// reusing its storage when the stride fits; only the words its previous
// value may have set are cleared, the rest are zero by invariant.
func (dst *Rel) setZero(words, n int) {
	old := 0
	if dst.words == words {
		old = dst.used()
	}
	dst.reuse(words)
	clear(dst.rows[:old])
	dst.n = n
}

// setUniverse makes dst the pairless relation over events [0, n) through
// setZero and reports whether n > 0; over no events dst is the zero Rel.
func (dst *Rel) setUniverse(n int) bool {
	if n == 0 {
		dst.setEmpty()
		return false
	}
	dst.setZero((n+wordBits-1)/wordBits, n)
	return true
}

// setEmpty sets dst to the empty relation.
func (dst *Rel) setEmpty() { dst.words, dst.n, dst.rows = 0, 0, nil }

// reset empties r for events [0, n), keeping its storage when the stride
// already fits, so r can be refilled with Add without allocating. Other
// storage is dropped; a multi-word universe is pre-sized so that Add does
// not regrow it, and a one-word relation takes storage on its first Add,
// so a relation that stays empty costs none.
func (r *Rel) reset(n int) {
	if r.words > 0 && r.words == (n+wordBits-1)/wordBits {
		clear(r.rows[:r.used()])
		r.n = 0
		return
	}
	r.setEmpty()
	if n > wordBits {
		r.ensure(EventID(n - 1))
	}
}

// SetUnion sets dst to a ∪ b, reusing dst's storage when possible. dst may
// alias a or b: the operations are pointwise, so in-place updates are safe.
func (dst *Rel) SetUnion(a, b Rel) {
	switch {
	case a.words == 0:
		dst.setCopy(b)
	case b.words == 0:
		dst.setCopy(a)
	default:
		a, b, w := align(a, b)
		old := 0
		if dst.words == w {
			old = dst.used()
		}
		dst.reuse(w)
		dst.n = a.n
		if b.n > dst.n {
			dst.n = b.n
		}
		m := dst.used()
		for i := 0; i < m; i++ {
			dst.rows[i] = a.rows[i] | b.rows[i]
		}
		for i := m; i < old; i++ {
			dst.rows[i] = 0
		}
	}
}

// SetInter sets dst to a ∩ b, reusing dst's storage when possible. dst may
// alias a or b.
func (dst *Rel) SetInter(a, b Rel) {
	switch {
	case a.words == 0 || b.words == 0:
		dst.setEmpty()
	default:
		a, b, w := align(a, b)
		old := 0
		if dst.words == w {
			old = dst.used()
		}
		dst.reuse(w)
		dst.n = a.n
		if b.n < dst.n {
			dst.n = b.n
		}
		m := dst.used()
		for i := 0; i < m; i++ {
			dst.rows[i] = a.rows[i] & b.rows[i]
		}
		for i := m; i < old; i++ {
			dst.rows[i] = 0
		}
	}
}

// SetMinus sets dst to a \ b, reusing dst's storage when possible. dst may
// alias a or b.
func (dst *Rel) SetMinus(a, b Rel) {
	switch {
	case a.words == 0:
		dst.setEmpty()
	case b.words == 0:
		dst.setCopy(a)
	default:
		a, b, w := align(a, b)
		old := 0
		if dst.words == w {
			old = dst.used()
		}
		dst.reuse(w)
		dst.n = a.n
		m := dst.used()
		bm := b.used()
		for i := 0; i < m; i++ {
			if i < bm {
				dst.rows[i] = a.rows[i] &^ b.rows[i]
			} else {
				dst.rows[i] = a.rows[i]
			}
		}
		for i := m; i < old; i++ {
			dst.rows[i] = 0
		}
	}
}

// orInto ors src into dst word by word.
func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// setFilter sets dst to the subrelation of r's pairs satisfying pred,
// reusing dst's storage when already the right size. dst must not alias r.
func (dst *Rel) setFilter(r Rel, pred func(a, b EventID) bool) {
	if r.words == 0 {
		dst.setEmpty()
		return
	}
	dst.setZero(r.words, r.n)
	r.Each(func(a, b EventID) {
		if pred(a, b) {
			dst.rows[int(a)*dst.words+int(b)/wordBits] |= 1 << (uint(b) % wordBits)
		}
	})
}

// Acyclic reports whether the relation has no cycle ("acyclic" checks in
// .cat models). Implemented as Kahn's algorithm over the bitset rows;
// universes up to 64 events (every litmus execution) run allocation-free on
// stack buffers, and wider ones on pooled scratch.
func (r Rel) Acyclic() bool {
	n := r.n
	if n == 0 {
		return true
	}
	var indegBuf, queueBuf [wordBits]int32
	var indeg, queue []int32
	if n <= wordBits {
		indeg, queue = indegBuf[:n], queueBuf[:0]
	} else {
		// One pooled buffer holds both: indeg in the first n slots (zeroed
		// here — pooled scratch comes back dirty), the queue in the rest
		// (each vertex enqueues at most once, so n slots suffice).
		p := geti32(2 * n)
		defer puti32(p)
		buf := *p
		indeg, queue = buf[:n], buf[n:n:2*n]
		for i := range indeg {
			indeg[i] = 0
		}
	}
	for a := 0; a < n; a++ {
		row := r.row(a)
		for wi, w := range row {
			for w != 0 {
				b := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				indeg[b]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	removed := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		row := r.row(int(v))
		for wi, w := range row {
			for w != 0 {
				b := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				indeg[b]--
				if indeg[b] == 0 {
					queue = append(queue, int32(b))
				}
			}
		}
	}
	return removed == n
}

// Irreflexive reports whether no event relates to itself.
func (r Rel) Irreflexive() bool {
	for a := 0; a < r.n; a++ {
		if r.rows[a*r.words+a/wordBits]&(1<<(uint(a)%wordBits)) != 0 {
			return false
		}
	}
	return true
}

// String renders the pairs as "{(0,1) (2,3)}" in sorted order.
func (r Rel) String() string {
	var sb strings.Builder
	sb.WriteString("{")
	for i, p := range r.Pairs() {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "(%d,%d)", p[0], p[1])
	}
	sb.WriteString("}")
	return sb.String()
}

// CloneBatch deep-copies rs into copies backed by one shared slab
// allocation: the hot verdict path clones every check's relation at once
// with two allocations instead of one per check. The copies are fully
// independent of the originals.
func CloneBatch(rs []Rel) []Rel {
	total := 0
	for _, r := range rs {
		total += len(r.rows)
	}
	out := make([]Rel, len(rs))
	if total == 0 {
		return out
	}
	slab := make([]uint64, total)
	off := 0
	for i, r := range rs {
		if r.words == 0 {
			continue
		}
		dst := slab[off : off+len(r.rows) : off+len(r.rows)]
		copy(dst[:r.used()], r.rows[:r.used()])
		out[i] = Rel{words: r.words, n: r.n, rows: dst}
		off += len(r.rows)
	}
	return out
}
