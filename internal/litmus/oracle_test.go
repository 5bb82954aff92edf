package litmus

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// diffOracle parses src with Parse and with parseOracle and describes how
// the two differ, if they do: both must fail with the same error text, or
// both return equal tests.
func diffOracle(src string) error {
	got, err := Parse(src)
	want, werr := parseOracle(src)
	switch {
	case err != nil || werr != nil:
		if err == nil || werr == nil || err.Error() != werr.Error() {
			return fmt.Errorf("Parse error %v, oracle error %v\nsource:\n%q", err, werr, src)
		}
	case got.String() != want.String():
		return fmt.Errorf("Parse renders\n%s\noracle renders\n%s\nsource:\n%q", got, want, src)
	case got.Fingerprint() != want.Fingerprint():
		return fmt.Errorf("Parse and oracle fingerprints differ\nsource:\n%q", src)
	case !reflect.DeepEqual(got, want):
		return fmt.Errorf("Parse and oracle tests differ\nParse:  %#v\noracle: %#v\nsource:\n%q", got, want, src)
	}
	return nil
}

// parseOracle is Parse as it was before the one-pass scanner: it splits the
// source into lines, the header, rows and init statements into fields, and
// tokenizes the scope tree and the condition into string slices. The
// differential tests (TestParseMatchesOracle, FuzzParse) require Parse to
// return a test equal to this one by String and Fingerprint, or an error
// with the same text, for every input. The checks it ends with, Validate's
// included, are the ones Parse runs.
func parseOracle(src string) (*Test, error) {
	lines := splitLinesOracle(src)
	if len(lines) == 0 {
		return nil, fmt.Errorf("litmus: empty test")
	}
	t := &Test{
		MemInit: make(map[ptx.Sym]int64),
		MemMap:  make(map[ptx.Sym]Space),
	}
	i := 0

	// Header: ARCH NAME.
	fields := strings.Fields(lines[i])
	if len(fields) < 2 {
		return nil, fmt.Errorf("litmus: bad header %q (want \"ARCH NAME\")", lines[i])
	}
	t.Arch = fields[0]
	t.Name = strings.Join(fields[1:], " ")
	if t.Arch != "GPU_PTX" {
		return nil, fmt.Errorf("litmus: unsupported architecture %q", t.Arch)
	}
	i++

	// Optional quoted description.
	if i < len(lines) && strings.HasPrefix(lines[i], "\"") {
		t.Doc = strings.Trim(lines[i], "\"")
		i++
	}

	// Init block {...}; may span multiple lines.
	if i >= len(lines) || !strings.HasPrefix(lines[i], "{") {
		return nil, fmt.Errorf("litmus: expected init block {...}, got %q", atOracle(lines, i))
	}
	var block strings.Builder
	for ; i < len(lines); i++ {
		block.WriteString(lines[i])
		block.WriteString(" ")
		if strings.Contains(lines[i], "}") {
			i++
			break
		}
	}
	if err := t.parseInitBlockOracle(block.String()); err != nil {
		return nil, err
	}

	// Thread table: rows with '|' separators terminated by ';' (the
	// terminator is optional on input). The first row names the threads.
	if i >= len(lines) {
		return nil, fmt.Errorf("litmus: missing thread table")
	}
	header := strings.TrimSuffix(strings.TrimSpace(lines[i]), ";")
	ids, err := parseThreadHeaderOracle(header)
	if err != nil {
		return nil, err
	}
	for k, id := range ids {
		if id != k {
			return nil, fmt.Errorf("litmus: thread columns must be T0,T1,... in order; got T%d in column %d", id, k)
		}
		t.Threads = append(t.Threads, Thread{ID: id})
	}
	i++
	classifiers := make([]ptx.RegClassifier, len(ids))
	for k := range ids {
		classifiers[k] = isRegForOracle(t, k)
	}
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "ScopeTree") || strings.HasPrefix(line, "exists") || isMemMapLineOracle(line) {
			break
		}
		row := strings.TrimSuffix(line, ";")
		cells := strings.Split(row, "|")
		if len(cells) != len(ids) {
			return nil, fmt.Errorf("litmus: row %q has %d columns, want %d", line, len(cells), len(ids))
		}
		for k, cell := range cells {
			cell = strings.TrimSpace(cell)
			if cell == "" {
				continue
			}
			inst, err := ptx.ParseInstr(cell, classifiers[k])
			if err != nil {
				return nil, fmt.Errorf("litmus: thread %d: %w", k, err)
			}
			t.Threads[k].Prog = append(t.Threads[k].Prog, inst)
		}
	}

	// Trailer lines: ScopeTree, memory map, exists — in any sensible order.
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		switch {
		case line == "":
		case strings.HasPrefix(line, "ScopeTree"):
			inner := strings.TrimPrefix(line, "ScopeTree")
			inner = strings.TrimSpace(inner)
			inner = strings.TrimPrefix(inner, "(")
			inner = strings.TrimSuffix(inner, ")")
			tree, err := parseScopeTreeOracle(inner)
			if err != nil {
				return nil, err
			}
			t.Scope = tree
		case strings.HasPrefix(line, "exists"):
			inner := strings.TrimSpace(strings.TrimPrefix(line, "exists"))
			inner = strings.TrimPrefix(inner, "(")
			inner = strings.TrimSuffix(inner, ")")
			c, err := parseCondOracle(inner)
			if err != nil {
				return nil, err
			}
			t.Exists = resolveCondOracle(c, t)
		case isMemMapLineOracle(line):
			if err := t.parseMemMapOracle(line); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("litmus: unexpected line %q", line)
		}
	}

	if len(t.Scope.CTAs) == 0 {
		// Default placement: intra-CTA, one warp per thread.
		ids := make([]int, len(t.Threads))
		for k := range ids {
			ids[k] = k
		}
		t.Scope = IntraCTA(ids...)
	}
	// Materialise the default region for unmapped locations, exactly as
	// Builder.Build does: parser-built and builder-built forms of one test
	// must agree on content (Fingerprint), and the canonical String — which
	// prints a region for every location — must round-trip.
	for _, s := range locationsOracle(t) {
		if _, ok := t.MemMap[s]; !ok {
			t.MemMap[s] = Global
		}
	}
	if err := validateOracle(t); err != nil {
		return nil, err
	}
	return t, nil
}

func atOracle(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<eof>"
}

func splitLinesOracle(src string) []string {
	var out []string
	for _, l := range strings.Split(src, "\n") {
		if idx := strings.Index(l, "//"); idx >= 0 {
			l = l[:idx]
		}
		l = strings.TrimRight(l, " \t\r")
		if strings.TrimSpace(l) == "" {
			continue
		}
		out = append(out, l)
	}
	return out
}

func parseThreadHeaderOracle(header string) ([]int, error) {
	cells := strings.Split(header, "|")
	ids := make([]int, 0, len(cells))
	for _, c := range cells {
		c = strings.TrimSpace(c)
		var id int
		if _, err := fmt.Sscanf(c, "T%d", &id); err != nil {
			return nil, fmt.Errorf("litmus: bad thread header cell %q", c)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// isMemMapLineOracle reports whether the line looks like "x: global, y: shared".
func isMemMapLineOracle(line string) bool {
	i := strings.Index(line, ":")
	if i <= 0 {
		return false
	}
	rest := strings.TrimSpace(line[i+1:])
	return strings.HasPrefix(rest, "global") || strings.HasPrefix(rest, "shared")
}

func (t *Test) parseMemMapOracle(line string) error {
	for _, part := range strings.Split(line, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return fmt.Errorf("litmus: bad memory-map entry %q", part)
		}
		loc := ptx.Sym(strings.TrimSpace(kv[0]))
		if !ptx.IsIdent(string(loc)) {
			return fmt.Errorf("litmus: bad location name in memory-map entry %q", part)
		}
		spaceStr := strings.TrimSpace(kv[1])
		// Allow "x: global = 1" to set both region and initial value.
		if eq := strings.Index(spaceStr, "="); eq >= 0 {
			valStr := strings.TrimSpace(spaceStr[eq+1:])
			v, err := strconv.ParseInt(valStr, 0, 64)
			if err != nil {
				return fmt.Errorf("litmus: bad initial value in %q", part)
			}
			t.MemInit[loc] = v
			spaceStr = strings.TrimSpace(spaceStr[:eq])
		}
		sp, err := ParseSpace(spaceStr)
		if err != nil {
			return err
		}
		t.MemMap[loc] = sp
	}
	return nil
}

// parseInitBlockOracle parses "{0:.reg .s32 r0; 0:.reg .b64 r1 = x; m = 1;}".
func (t *Test) parseInitBlockOracle(block string) error {
	inner := strings.TrimSpace(block)
	inner = strings.TrimPrefix(inner, "{")
	if i := strings.LastIndex(inner, "}"); i >= 0 {
		inner = inner[:i]
	}
	for _, stmt := range strings.Split(inner, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if strings.Contains(stmt, ".reg") {
			d, err := parseRegDeclOracle(stmt)
			if err != nil {
				return err
			}
			t.Decls = append(t.Decls, d)
			continue
		}
		// Memory initialisation "loc = value".
		kv := strings.SplitN(stmt, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("litmus: bad init statement %q", stmt)
		}
		loc := strings.TrimSpace(kv[0])
		if !ptx.IsIdent(loc) {
			return fmt.Errorf("litmus: bad location name in init statement %q", stmt)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(kv[1]), 0, 64)
		if err != nil {
			return fmt.Errorf("litmus: bad init value in %q", stmt)
		}
		t.MemInit[ptx.Sym(loc)] = v
	}
	return nil
}

// parseRegDeclOracle parses "0:.reg .s32 r0" or "0:.reg .b64 r1 = x".
func parseRegDeclOracle(stmt string) (RegDecl, error) {
	var d RegDecl
	colon := strings.Index(stmt, ":")
	if colon < 0 {
		return d, fmt.Errorf("litmus: register declaration %q lacks thread prefix", stmt)
	}
	tid, err := strconv.Atoi(strings.TrimSpace(stmt[:colon]))
	if err != nil {
		return d, fmt.Errorf("litmus: bad thread id in %q", stmt)
	}
	d.Thread = tid
	rest := strings.TrimSpace(stmt[colon+1:])
	if !strings.HasPrefix(rest, ".reg") {
		return d, fmt.Errorf("litmus: expected .reg in %q", stmt)
	}
	rest = strings.TrimSpace(strings.TrimPrefix(rest, ".reg"))
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return d, fmt.Errorf("litmus: incomplete register declaration %q", stmt)
	}
	typStr := strings.TrimPrefix(fields[0], ".")
	typ, err := ptx.ParseType(typStr)
	if err != nil {
		return d, err
	}
	d.Type = typ
	if !ptx.IsIdent(fields[1]) {
		return d, fmt.Errorf("litmus: bad register name in declaration %q", stmt)
	}
	d.Reg = ptx.Reg(fields[1])
	if len(fields) >= 4 && fields[2] == "=" {
		d.Loc = ptx.Sym(fields[3])
	} else if len(fields) == 3 && strings.HasPrefix(fields[2], "=") {
		d.Loc = ptx.Sym(strings.TrimPrefix(fields[2], "="))
	} else if len(fields) > 2 {
		return d, fmt.Errorf("litmus: trailing tokens in register declaration %q", stmt)
	}
	if d.Loc != "" && !ptx.IsIdent(string(d.Loc)) {
		return d, fmt.Errorf("litmus: bad location name in declaration %q", stmt)
	}
	return d, nil
}

// parseScopeTreeOracle parses the Fig. 12 scope-tree syntax. Accepted grammar:
//
//	tree  := "grid" group+
//	group := "(" item+ ")"
//	item  := "cta" group+ | "warp" TID+
//
// where "cta" consumes every immediately following parenthesised group as
// its warps, which matches the paper's rendering
// "grid(cta(warp T0) (warp T1))" (one CTA, two warps) and
// "grid(cta(warp T0)) (cta(warp T1))" (two CTAs).
func parseScopeTreeOracle(src string) (ScopeTree, error) {
	toks := tokenizeScopeOracle(src)
	p := &scopeParserOracle{toks: toks}
	tree, err := p.parseTree()
	if err != nil {
		return ScopeTree{}, err
	}
	if p.pos != len(p.toks) {
		return ScopeTree{}, fmt.Errorf("litmus: trailing tokens in scope tree %q", src)
	}
	return tree, nil
}

func tokenizeScopeOracle(src string) []string {
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

type scopeParserOracle struct {
	toks []string
	pos  int
}

func (p *scopeParserOracle) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *scopeParserOracle) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *scopeParserOracle) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("litmus: scope tree: expected %q, got %q", tok, got)
	}
	return nil
}

func (p *scopeParserOracle) parseTree() (ScopeTree, error) {
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
func (p *scopeParserOracle) parseCTAGroup() ([]CTAScope, error) {
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
func (p *scopeParserOracle) parseWarpGroup() ([]WarpScope, error) {
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

// parseCondOracle parses the condition fragment used by Fig. 12:
//
//	cond := or
//	or   := and ("\/" and)*
//	and  := unary ("/\" unary)*
//	unary := "~" unary | "(" cond ")" | atom
//	atom := TID ":" REG "=" INT | LOC "=" INT
//
// The paper's figures also write conjunction with the Unicode "∧", which is
// accepted.
func parseCondOracle(src string) (Cond, error) {
	p := &condParserOracle{toks: tokenizeCondOracle(src)}
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("litmus: trailing tokens in condition %q", src)
	}
	return c, nil
}

func tokenizeCondOracle(src string) []string {
	src = strings.ReplaceAll(src, "∧", "/\\")
	src = strings.ReplaceAll(src, "∨", "\\/")
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '\\':
			flush()
			toks = append(toks, "/\\")
			i += 2
		case c == '\\' && i+1 < len(src) && src[i+1] == '/':
			flush()
			toks = append(toks, "\\/")
			i += 2
		case c == '(' || c == ')' || c == '=' || c == ':' || c == '~':
			flush()
			toks = append(toks, string(c))
			i++
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			flush()
			i++
		default:
			cur.WriteByte(c)
			i++
		}
	}
	flush()
	return toks
}

type condParserOracle struct {
	toks []string
	pos  int
}

func (p *condParserOracle) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *condParserOracle) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *condParserOracle) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "\\/" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = CondOr{L: l, R: r}
	}
	return l, nil
}

func (p *condParserOracle) parseAnd() (Cond, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == "/\\" {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = CondAnd{L: l, R: r}
	}
	return l, nil
}

func (p *condParserOracle) parseUnary() (Cond, error) {
	switch p.peek() {
	case "~":
		p.next()
		c, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return CondNot{C: c}, nil
	case "(":
		p.next()
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("litmus: missing ) in condition")
		}
		return c, nil
	}
	return p.parseAtom()
}

func (p *condParserOracle) parseAtom() (Cond, error) {
	first := p.next()
	if first == "" {
		return nil, fmt.Errorf("litmus: unexpected end of condition")
	}
	if p.peek() == ":" {
		// TID : REG = INT
		tid, err := strconv.Atoi(first)
		if err != nil {
			return nil, fmt.Errorf("litmus: bad thread id %q in condition", first)
		}
		p.next() // ':'
		reg := p.next()
		if reg == "" {
			return nil, fmt.Errorf("litmus: missing register in condition")
		}
		if p.next() != "=" {
			return nil, fmt.Errorf("litmus: expected = in condition")
		}
		val, err := parseCondIntOracle(p.next())
		if err != nil {
			return nil, err
		}
		return RegEq{Thread: tid, Reg: ptx.Reg(reg), Val: val}, nil
	}
	// LOC = INT, or bare REG = INT (the figures write "r1=1" with unique
	// register names across threads; such atoms are resolved against the
	// test by ResolveCond).
	if p.next() != "=" {
		return nil, fmt.Errorf("litmus: expected = after %q in condition", first)
	}
	val, err := parseCondIntOracle(p.next())
	if err != nil {
		return nil, err
	}
	return MemEq{Loc: ptx.Sym(first), Val: val}, nil
}

func parseCondIntOracle(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("litmus: bad integer %q in condition", s)
	}
	return v, nil
}

// progRegsOracle returns every register the program reads or writes.
func progRegsOracle(p ptx.Program) map[ptx.Reg]bool {
	regs := make(map[ptx.Reg]bool)
	for _, inst := range p {
		if d, ok := ptx.DstOf(inst); ok {
			regs[d] = true
		}
		for _, r := range ptx.SrcRegs(inst) {
			regs[r] = true
		}
	}
	return regs
}

// resolveCondOracle rewrites MemEq atoms whose "location" actually names a
// register declared by exactly one thread into RegEq atoms. The paper's
// figures use this shorthand ("final: r1=1 ∧ r2=0") since register names are
// unique across threads there.
func resolveCondOracle(c Cond, t *Test) Cond {
	switch v := c.(type) {
	case CondAnd:
		return CondAnd{L: resolveCondOracle(v.L, t), R: resolveCondOracle(v.R, t)}
	case CondOr:
		return CondOr{L: resolveCondOracle(v.L, t), R: resolveCondOracle(v.R, t)}
	case CondNot:
		return CondNot{C: resolveCondOracle(v.C, t)}
	case MemEq:
		owner := -1
		count := 0
		for tid := range t.Threads {
			if progRegsOracle(t.Threads[tid].Prog)[ptx.Reg(v.Loc)] {
				owner = tid
				count++
			}
		}
		if count == 1 {
			return RegEq{Thread: owner, Reg: ptx.Reg(v.Loc), Val: v.Val}
		}
		return v
	default:
		return c
	}
}

// locationsOracle returns the test's memory locations in sorted order.
func locationsOracle(t *Test) []ptx.Sym {
	set := make(map[ptx.Sym]bool)
	for l := range t.MemMap {
		set[l] = true
	}
	for _, th := range t.Threads {
		for s := range th.Prog.Symbols() {
			set[s] = true
		}
	}
	for _, d := range t.Decls {
		if d.Loc != "" {
			set[d.Loc] = true
		}
	}
	locs := make([]ptx.Sym, 0, len(set))
	for l := range set {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// isRegForOracle reports whether name is a declared register of thread tid, used
// to disambiguate registers from location symbols while parsing thread
// programs.
func isRegForOracle(t *Test, tid int) ptx.RegClassifier {
	declared := make(map[string]bool)
	for _, d := range t.Decls {
		if d.Thread == tid {
			declared[string(d.Reg)] = true
		}
	}
	if len(declared) == 0 {
		return ptx.DefaultRegClassifier
	}
	return func(name string) bool {
		return declared[name] || ptx.DefaultRegClassifier(name)
	}
}

// validateOracle is Test.Validate as it was before it stopped building a
// symbol map per thread and a slice of condition atoms. It differs in one
// respect: shared locations are checked in sorted order, so that the
// error for a test with two shared locations reached from several CTAs
// does not depend on map order.
func validateOracle(t *Test) error {
	if len(t.Threads) == 0 {
		return fmt.Errorf("litmus: test %q has no threads", t.Name)
	}
	for i, th := range t.Threads {
		if th.ID != i {
			return fmt.Errorf("litmus: thread IDs must be contiguous from 0; slot %d has ID %d", i, th.ID)
		}
		if err := th.Prog.Validate(); err != nil {
			return fmt.Errorf("litmus: thread %d: %w", i, err)
		}
		for j, inst := range th.Prog {
			a := ptx.AddrOf(inst)
			if a == nil {
				continue
			}
			if _, err := t.ResolveAddr(i, a); err == nil {
				continue
			}
			reg, isReg := a.(ptx.Reg)
			computed := false
			if isReg {
				for k := 0; k < j; k++ {
					if d, ok := ptx.DstOf(th.Prog[k]); ok && d == reg {
						computed = true
						break
					}
				}
			}
			if !computed {
				return fmt.Errorf("litmus: thread %d instruction %d: address %v is neither bound nor computed", i, j, a)
			}
		}
	}
	if err := scopeValidateOracle(t.Scope, len(t.Threads)); err != nil {
		return err
	}
	if t.Exists == nil {
		return fmt.Errorf("litmus: test %q has no final condition", t.Name)
	}
	shared := make([]ptx.Sym, 0, len(t.MemMap))
	for loc := range t.MemMap {
		shared = append(shared, loc)
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
	for _, loc := range shared {
		if t.MemMap[loc] != Shared {
			continue
		}
		cta := -1
		for tid := range t.Threads {
			if !t.Threads[tid].Prog.Symbols()[loc] && !threadBindsLoc(t, tid, loc) {
				continue
			}
			c := t.Scope.CTAOf(tid)
			if cta == -1 {
				cta = c
			} else if c != cta {
				return fmt.Errorf("litmus: shared location %s accessed from multiple CTAs", loc)
			}
		}
	}
	for _, a := range CondAtoms(t.Exists) {
		if ra, ok := a.(RegEq); ok && (ra.Thread < 0 || ra.Thread >= len(t.Threads)) {
			return fmt.Errorf("litmus: condition references unknown thread %d", ra.Thread)
		}
	}
	return nil
}

// scopeValidateOracle is ScopeTree.Validate as it was before it stopped
// building a map and the Threads slice.
func scopeValidateOracle(s ScopeTree, n int) error {
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
