package litmus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
)

// Fingerprint returns a content-addressed identity for the test: a hex
// SHA-256 of its canonicalised threads, register declarations, memory
// initialisation and regions, scope tree, and final condition. The name,
// architecture tag, and doc string are deliberately excluded, so two tests
// with identical semantics but different labels share a fingerprint — the
// property the service layer's verdict cache and the campaign memo need to
// deduplicate work across independently constructed requests.
//
// The fingerprint is a pure function of the test's content: it is computed
// afresh on every call, with no cached field (callers edit a Clone's
// exported fields, which would leave a cache stale), so Fingerprint is safe
// to call concurrently on a shared *Test. The canonical form is appended
// into one buffer by the AppendTo methods of the rendered types, so a call
// costs a handful of allocations.
func (t *Test) Fingerprint() string {
	e := new(canonicalEncoder)
	e.buf, e.tmp, e.spans = e.bufArr[:0], e.tmpArr[:0], e.spanArr[:0]
	sum := sha256.Sum256(e.canonical(t))
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}

// canonicalEncoder builds a test's canonical form. Order-free sections
// (declarations, initial values, memory regions) are rendered entry by
// entry into tmp, sorted there as byte strings, and joined into buf. The
// arrays back the slices in the one allocation of the encoder for the
// usual litmus-test sizes; larger tests grow past them.
type canonicalEncoder struct {
	buf   []byte
	tmp   []byte
	spans [][2]int // [start, end) of each entry in tmp

	bufArr  [768]byte
	tmpArr  [256]byte
	spanArr [16][2]int
}

// canonical returns the canonical form of t. Each section is prefixed with
// a tag and terminated with a newline so that no concatenation of fields
// from adjacent sections can collide. Declaration order carries no
// semantics, so it is canonicalised away: parser-built and builder-built
// forms of one test must agree.
func (e *canonicalEncoder) canonical(t *Test) []byte {
	e.buf = append(e.buf, "decls:"...)
	for _, d := range t.Decls {
		b := append(strconv.AppendInt(e.tmp, int64(d.Thread), 10), ":."...)
		b = append(append(append(b, d.Type.String()...), ' '), d.Reg...)
		e.tmp = append(append(b, '='), d.Loc...)
		e.endEntry()
	}
	sort.Sort(e)
	e.flush()
	e.buf = append(e.buf, "\ninit:"...)
	for l, v := range t.MemInit {
		e.tmp = strconv.AppendInt(append(append(e.tmp, l...), '='), v, 10)
		e.endEntry()
	}
	sort.Sort(e)
	e.flush()
	e.buf = append(e.buf, "\nmem:"...)
	for l, sp := range t.MemMap {
		e.tmp = append(append(append(e.tmp, l...), '='), sp.String()...)
		e.endEntry()
	}
	sort.Sort(e)
	e.flush()
	e.buf = append(e.buf, "\nthreads:"...)
	for _, th := range t.Threads {
		e.buf = append(strconv.AppendInt(append(e.buf, 'T'), int64(th.ID), 10), '{')
		for _, inst := range th.Prog {
			e.buf = append(inst.AppendTo(e.buf), ';')
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(t.Scope.AppendTo(append(e.buf, "\nscope:"...)), "\nexists:"...)
	return append(appendCond(e.buf, t.Exists), '\n')
}

// endEntry closes the entry rendered into tmp since the previous one.
func (e *canonicalEncoder) endEntry() {
	start := 0
	if n := len(e.spans); n > 0 {
		start = e.spans[n-1][1]
	}
	e.spans = append(e.spans, [2]int{start, len(e.tmp)})
}

// flush appends the pending entries, sorted by the caller, to buf joined
// by ";", leaving tmp and spans empty for the next section.
func (e *canonicalEncoder) flush() {
	for i, sp := range e.spans {
		if i > 0 {
			e.buf = append(e.buf, ';')
		}
		e.buf = append(e.buf, e.tmp[sp[0]:sp[1]]...)
	}
	e.tmp, e.spans = e.tmp[:0], e.spans[:0]
}

// Len, Less and Swap sort the pending entries as byte strings, the order
// sort.Strings gives their string forms.
func (e *canonicalEncoder) Len() int { return len(e.spans) }
func (e *canonicalEncoder) Less(i, j int) bool {
	a, b := e.spans[i], e.spans[j]
	return bytes.Compare(e.tmp[a[0]:a[1]], e.tmp[b[0]:b[1]]) < 0
}
func (e *canonicalEncoder) Swap(i, j int) { e.spans[i], e.spans[j] = e.spans[j], e.spans[i] }
