package litmus

import (
	"fmt"
	"strconv"
	"strings"
)

// ScopeTree places the threads of a test in the GPU execution hierarchy
// (Sec. 2.1 and 4.1): a grid contains CTAs, a CTA contains warps, a warp
// contains threads. Threads in the same warp execute in SIMT lockstep;
// threads in the same CTA share an SM (and its L1/shared memory).
type ScopeTree struct {
	CTAs []CTAScope
}

// CTAScope is one CTA's warps.
type CTAScope struct {
	Warps []WarpScope
}

// WarpScope is one warp's thread IDs.
type WarpScope struct {
	Threads []int
}

// IntraCTA builds a scope tree with all threads in one CTA, each in its own
// warp (the paper's "intra-CTA" placement).
func IntraCTA(threads ...int) ScopeTree {
	cta := CTAScope{}
	for _, t := range threads {
		cta.Warps = append(cta.Warps, WarpScope{Threads: []int{t}})
	}
	return ScopeTree{CTAs: []CTAScope{cta}}
}

// InterCTA builds a scope tree with each thread in its own CTA (the paper's
// "inter-CTA" placement).
func InterCTA(threads ...int) ScopeTree {
	var tree ScopeTree
	for _, t := range threads {
		tree.CTAs = append(tree.CTAs, CTAScope{Warps: []WarpScope{{Threads: []int{t}}}})
	}
	return tree
}

// IntraWarp builds a scope tree with all threads in a single warp.
func IntraWarp(threads ...int) ScopeTree {
	return ScopeTree{CTAs: []CTAScope{{Warps: []WarpScope{{Threads: threads}}}}}
}

// CTAOf returns the CTA index of thread tid, or -1 if absent.
func (s ScopeTree) CTAOf(tid int) int {
	for ci, cta := range s.CTAs {
		for _, w := range cta.Warps {
			for _, t := range w.Threads {
				if t == tid {
					return ci
				}
			}
		}
	}
	return -1
}

// WarpOf returns the (cta, warp) indices of thread tid, or (-1, -1).
func (s ScopeTree) WarpOf(tid int) (cta, warp int) {
	for ci, c := range s.CTAs {
		for wi, w := range c.Warps {
			for _, t := range w.Threads {
				if t == tid {
					return ci, wi
				}
			}
		}
	}
	return -1, -1
}

// SameCTA reports whether threads a and b are in the same CTA.
func (s ScopeTree) SameCTA(a, b int) bool {
	ca, cb := s.CTAOf(a), s.CTAOf(b)
	return ca >= 0 && ca == cb
}

// SameWarp reports whether threads a and b are in the same warp.
func (s ScopeTree) SameWarp(a, b int) bool {
	ca, wa := s.WarpOf(a)
	cb, wb := s.WarpOf(b)
	return ca >= 0 && ca == cb && wa == wb
}

// Threads returns all thread IDs in the tree, in tree order.
func (s ScopeTree) Threads() []int {
	var ids []int
	for _, c := range s.CTAs {
		for _, w := range c.Warps {
			ids = append(ids, w.Threads...)
		}
	}
	return ids
}

// Validate checks that the tree mentions each of 0..n-1 exactly once.
func (s ScopeTree) Validate(n int) error {
	seen := make(map[int]bool)
	for _, id := range s.Threads() {
		if id < 0 || id >= n {
			return fmt.Errorf("litmus: scope tree mentions unknown thread T%d", id)
		}
		if seen[id] {
			return fmt.Errorf("litmus: scope tree mentions thread T%d twice", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		return fmt.Errorf("litmus: scope tree covers %d of %d threads", len(seen), n)
	}
	return nil
}

// String renders the tree in the Fig. 12 syntax, e.g.
// "grid(cta(warp T0) (warp T1))" for intra-CTA and
// "grid(cta(warp T0)) (cta(warp T1))" for inter-CTA.
func (s ScopeTree) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the tree's String form to b.
func (s ScopeTree) AppendTo(b []byte) []byte {
	b = append(b, "grid("...)
	for i, c := range s.CTAs {
		if i > 0 {
			b = append(b, ") ("...)
		}
		// The first warp group attaches directly to "cta".
		b = append(b, "cta"...)
		for j, w := range c.Warps {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, "(warp "...)
			for k, t := range w.Threads {
				if k > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendInt(append(b, 'T'), int64(t), 10)
			}
			b = append(b, ')')
		}
	}
	return append(b, ')')
}

// ParseScopeTree parses the Fig. 12 scope-tree syntax. Accepted grammar:
//
//	tree  := "grid" group+
//	group := "(" item+ ")"
//	item  := "cta" group+ | "warp" TID+
//
// where "cta" consumes every immediately following parenthesised group as
// its warps, which matches the paper's rendering
// "grid(cta(warp T0) (warp T1))" (one CTA, two warps) and
// "grid(cta(warp T0)) (cta(warp T1))" (two CTAs).
func ParseScopeTree(src string) (ScopeTree, error) {
	toks := tokenizeScope(src)
	p := &scopeParser{toks: toks}
	tree, err := p.parseTree()
	if err != nil {
		return ScopeTree{}, err
	}
	if p.pos != len(p.toks) {
		return ScopeTree{}, fmt.Errorf("litmus: trailing tokens in scope tree %q", src)
	}
	return tree, nil
}

func tokenizeScope(src string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, c := range src {
		switch c {
		case '(', ')':
			flush()
			toks = append(toks, string(c))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			cur.WriteRune(c)
		}
	}
	flush()
	return toks
}

type scopeParser struct {
	toks []string
	pos  int
}

func (p *scopeParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *scopeParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *scopeParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("litmus: scope tree: expected %q, got %q", tok, got)
	}
	return nil
}

func (p *scopeParser) parseTree() (ScopeTree, error) {
	if err := p.expect("grid"); err != nil {
		return ScopeTree{}, err
	}
	var tree ScopeTree
	for p.peek() == "(" {
		ctas, err := p.parseCTAGroup()
		if err != nil {
			return ScopeTree{}, err
		}
		tree.CTAs = append(tree.CTAs, ctas...)
	}
	if len(tree.CTAs) == 0 {
		return ScopeTree{}, fmt.Errorf("litmus: scope tree has no CTAs")
	}
	return tree, nil
}

// parseCTAGroup parses "(" ("cta" group+)+ ")".
func (p *scopeParser) parseCTAGroup() ([]CTAScope, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var ctas []CTAScope
	for p.peek() == "cta" {
		p.next()
		var cta CTAScope
		for p.peek() == "(" {
			warps, err := p.parseWarpGroup()
			if err != nil {
				return nil, err
			}
			cta.Warps = append(cta.Warps, warps...)
		}
		if len(cta.Warps) == 0 {
			return nil, fmt.Errorf("litmus: cta with no warps")
		}
		ctas = append(ctas, cta)
	}
	if len(ctas) == 0 {
		return nil, fmt.Errorf("litmus: expected cta, got %q", p.peek())
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return ctas, nil
}

// parseWarpGroup parses "(" ("warp" TID+)+ ")".
func (p *scopeParser) parseWarpGroup() ([]WarpScope, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var warps []WarpScope
	for p.peek() == "warp" {
		p.next()
		var w WarpScope
		for {
			t := p.peek()
			if !strings.HasPrefix(t, "T") {
				break
			}
			var id int
			if _, err := fmt.Sscanf(t, "T%d", &id); err != nil {
				return nil, fmt.Errorf("litmus: bad thread id %q", t)
			}
			w.Threads = append(w.Threads, id)
			p.next()
		}
		if len(w.Threads) == 0 {
			return nil, fmt.Errorf("litmus: warp with no threads")
		}
		warps = append(warps, w)
	}
	if len(warps) == 0 {
		return nil, fmt.Errorf("litmus: expected warp, got %q", p.peek())
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return warps, nil
}
