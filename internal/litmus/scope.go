package litmus

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
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
	ids := append([]int(nil), threads...)
	var warps []WarpScope
	if len(ids) > 0 {
		warps = make([]WarpScope, len(ids))
	}
	for k := range ids {
		warps[k].Threads = ids[k : k+1 : k+1]
	}
	return ScopeTree{CTAs: []CTAScope{{Warps: warps}}}
}

// InterCTA builds a scope tree with each thread in its own CTA (the paper's
// "inter-CTA" placement).
func InterCTA(threads ...int) ScopeTree {
	if len(threads) == 0 {
		return ScopeTree{}
	}
	ids := append([]int(nil), threads...)
	warps := make([]WarpScope, len(ids))
	tree := ScopeTree{CTAs: make([]CTAScope, len(ids))}
	for k := range ids {
		warps[k].Threads = ids[k : k+1 : k+1]
		tree.CTAs[k].Warps = warps[k : k+1 : k+1]
	}
	return tree
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
	var small [64]bool
	seen := small[:]
	if n > len(small) {
		seen = make([]bool, n)
	}
	covered := 0
	for _, c := range s.CTAs {
		for _, w := range c.Warps {
			for _, id := range w.Threads {
				if id < 0 || id >= n {
					return fmt.Errorf("litmus: scope tree mentions unknown thread T%d", id)
				}
				if seen[id] {
					return fmt.Errorf("litmus: scope tree mentions thread T%d twice", id)
				}
				seen[id] = true
				covered++
			}
		}
	}
	if covered != n {
		return fmt.Errorf("litmus: scope tree covers %d of %d threads", covered, n)
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
	// Count the tokens that can open a CTA, a warp or a thread first, so
	// that all CTAs, all warps and all thread ids each fill one array.
	var ctas, warps, ids int
	for l := (scopeLexer{rest: src}); l.advance(); {
		switch {
		case l.tok == "cta":
			ctas++
		case l.tok == "warp":
			warps++
		case strings.HasPrefix(l.tok, "T"):
			ids++
		}
	}
	p := &scopeParser{
		lex:   scopeLexer{rest: src},
		ctas:  make([]CTAScope, 0, ctas),
		warps: make([]WarpScope, 0, warps),
		ids:   make([]int, 0, ids),
	}
	p.lex.advance()
	if err := p.parseTree(); err != nil {
		return ScopeTree{}, err
	}
	if p.lex.tok != "" {
		return ScopeTree{}, fmt.Errorf("litmus: trailing tokens in scope tree %q", src)
	}
	return ScopeTree{CTAs: p.ctas}, nil
}

// scopeLexer reads the scope tree's tokens in place: "(", ")", and the
// runs between them and the blanks ' ', '\t', '\n' and '\r'.
type scopeLexer struct {
	tok  string // the token at the head; "" at the end
	rest string // the source after tok
}

// advance reads the next token into l.tok and reports whether there was
// one.
func (l *scopeLexer) advance() bool {
	s := l.rest
	i := 0
	for i < len(s) && isScopeBlank(s[i]) {
		i++
	}
	if i == len(s) {
		l.tok, l.rest = "", ""
		return false
	}
	j := i + 1
	if s[i] != '(' && s[i] != ')' {
		for j < len(s) && !isScopeBlank(s[j]) && s[j] != '(' && s[j] != ')' {
			j++
		}
	}
	l.tok, l.rest = s[i:j], s[j:]
	return true
}

func isScopeBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// scopeText is a token as error texts quote it: read rune by rune, so
// that each invalid UTF-8 byte becomes U+FFFD.
func scopeText(tok string) string {
	if utf8.ValidString(tok) {
		return tok
	}
	b := make([]rune, 0, len(tok))
	for _, r := range tok {
		b = append(b, r)
	}
	return string(b)
}

// scopeParser parses a scope tree into three flat arrays: each warp's
// thread ids, and then each CTA's warps, are consecutive in them.
type scopeParser struct {
	lex   scopeLexer
	ctas  []CTAScope
	warps []WarpScope
	ids   []int
}

func (p *scopeParser) next() string {
	tok := p.lex.tok
	p.lex.advance()
	return tok
}

func (p *scopeParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("litmus: scope tree: expected %q, got %q", tok, scopeText(got))
	}
	return nil
}

func (p *scopeParser) parseTree() error {
	if err := p.expect("grid"); err != nil {
		return err
	}
	for p.lex.tok == "(" {
		if err := p.parseCTAGroup(); err != nil {
			return err
		}
	}
	if len(p.ctas) == 0 {
		return fmt.Errorf("litmus: scope tree has no CTAs")
	}
	return nil
}

// parseCTAGroup parses "(" ("cta" group+)+ ")".
func (p *scopeParser) parseCTAGroup() error {
	if err := p.expect("("); err != nil {
		return err
	}
	first := len(p.ctas)
	for p.lex.tok == "cta" {
		p.lex.advance()
		w := len(p.warps)
		for p.lex.tok == "(" {
			if err := p.parseWarpGroup(); err != nil {
				return err
			}
		}
		if len(p.warps) == w {
			return fmt.Errorf("litmus: cta with no warps")
		}
		p.ctas = append(p.ctas, CTAScope{Warps: p.warps[w:len(p.warps):len(p.warps)]})
	}
	if len(p.ctas) == first {
		return fmt.Errorf("litmus: expected cta, got %q", scopeText(p.lex.tok))
	}
	return p.expect(")")
}

// parseWarpGroup parses "(" ("warp" TID+)+ ")".
func (p *scopeParser) parseWarpGroup() error {
	if err := p.expect("("); err != nil {
		return err
	}
	first := len(p.warps)
	for p.lex.tok == "warp" {
		p.lex.advance()
		k := len(p.ids)
		for strings.HasPrefix(p.lex.tok, "T") {
			id, ok := scanThreadID(p.lex.tok)
			if !ok {
				return fmt.Errorf("litmus: bad thread id %q", scopeText(p.lex.tok))
			}
			p.ids = append(p.ids, id)
			p.lex.advance()
		}
		if len(p.ids) == k {
			return fmt.Errorf("litmus: warp with no threads")
		}
		p.warps = append(p.warps, WarpScope{Threads: p.ids[k:len(p.ids):len(p.ids)]})
	}
	if len(p.warps) == first {
		return fmt.Errorf("litmus: expected warp, got %q", scopeText(p.lex.tok))
	}
	return p.expect(")")
}
