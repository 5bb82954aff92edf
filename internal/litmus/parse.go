package litmus

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// ParseCtx is Parse accounting its time to the obs.PhaseParse timer of
// the trace carried by ctx. On an untraced context it is exactly Parse:
// no clock reads, no allocations beyond Parse's own.
func ParseCtx(ctx context.Context, src string) (*Test, error) {
	if tr := obs.FromContext(ctx); tr.Enabled() {
		t0 := time.Now()
		t, err := Parse(src)
		tr.AddPhase(obs.PhaseParse, time.Since(t0))
		return t, err
	}
	return Parse(src)
}

// Parse parses a complete litmus test in the Fig. 12 format:
//
//	GPU_PTX SB
//	"optional description"
//	{0:.reg .s32 r0; 0:.reg .b64 r1 = x; m = 1;}
//	 T0             | T1             ;
//	 mov.s32 r0,1   | mov.s32 r0,1   ;
//	 st.cg [r1],r0  | st.cg [r1],r0  ;
//	ScopeTree(grid(cta(warp T0) (warp T1)))
//	x: shared, y: global
//	exists (0:r2=0 /\ 1:r2=0)
//
// Parse reads src in place: its lines, cells, names, registers and
// locations are substrings of src, and the programs, declarations and
// scope tree are sized before they are filled. The forms it accepts and
// the texts of its errors are those of the line-splitting parser it
// replaced, kept as parseOracle in the package tests.
func Parse(src string) (*Test, error) {
	ls := lineScanner{rest: src}
	line, ok := ls.next()
	if !ok {
		return nil, fmt.Errorf("litmus: empty test")
	}
	t := &Test{
		MemInit: make(map[ptx.Sym]int64),
		MemMap:  make(map[ptx.Sym]Space),
	}

	// Header: ARCH NAME.
	arch, name := nextField(line)
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, fmt.Errorf("litmus: bad header %q (want \"ARCH NAME\")", line)
	}
	t.Arch, t.Name = arch, joinFields(name)
	if t.Arch != "GPU_PTX" {
		return nil, fmt.Errorf("litmus: unsupported architecture %q", t.Arch)
	}
	line, ok = ls.next()

	// Optional quoted description.
	if ok && strings.HasPrefix(line, "\"") {
		t.Doc = strings.Trim(line, "\"")
		line, ok = ls.next()
	}

	// Init block {...}; may span multiple lines, which join with a blank.
	if !ok || !strings.HasPrefix(line, "{") {
		got := "<eof>"
		if ok {
			got = line
		}
		return nil, fmt.Errorf("litmus: expected init block {...}, got %q", got)
	}
	block := line
	if !strings.Contains(line, "}") {
		var b strings.Builder
		for ok {
			b.WriteString(line)
			b.WriteByte(' ')
			if strings.Contains(line, "}") {
				break
			}
			line, ok = ls.next()
		}
		block = b.String()
	}
	if err := t.parseInitBlock(block); err != nil {
		return nil, err
	}

	// Thread table: rows with '|' separators terminated by ';' (the
	// terminator is optional on input). The first row names the threads.
	line, ok = ls.next()
	if !ok {
		return nil, fmt.Errorf("litmus: missing thread table")
	}
	if err := t.parseThreadHeader(strings.TrimSuffix(strings.TrimSpace(line), ";")); err != nil {
		return nil, err
	}
	t.sizePrograms(ls)
	for {
		if line, ok = ls.next(); !ok {
			break
		}
		line = strings.TrimSpace(line)
		if isTrailerLine(line) {
			break
		}
		row := strings.TrimSuffix(line, ";")
		if cells := strings.Count(row, "|") + 1; cells != len(t.Threads) {
			return nil, fmt.Errorf("litmus: row %q has %d columns, want %d", line, cells, len(t.Threads))
		}
		for k := range t.Threads {
			var cell string
			cell, row, _ = strings.Cut(row, "|")
			if cell = strings.TrimSpace(cell); cell == "" {
				continue
			}
			regs := declRegs{decls: t.Decls, tid: k}
			inst, err := ptx.ParseInstr(cell, regs.isReg)
			if err != nil {
				return nil, fmt.Errorf("litmus: thread %d: %w", k, err)
			}
			t.Threads[k].Prog = append(t.Threads[k].Prog, inst)
		}
	}

	// Trailer lines: ScopeTree, memory map, exists — in any sensible order.
	for ; ok; line, ok = ls.next() {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "ScopeTree"):
			tree, err := ParseScopeTree(trimParens(strings.TrimPrefix(line, "ScopeTree")))
			if err != nil {
				return nil, err
			}
			t.Scope = tree
		case strings.HasPrefix(line, "exists"):
			c, err := parseCond(trimParens(strings.TrimPrefix(line, "exists")), t)
			if err != nil {
				return nil, err
			}
			t.Exists = c
		case isMemMapLine(line):
			if err := t.parseMemMap(line); err != nil {
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
	for _, s := range t.Locations() {
		if _, ok := t.MemMap[s]; !ok {
			t.MemMap[s] = Global
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustParse parses src and panics on error; for tests and embedded
// test-library sources.
func MustParse(src string) *Test {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// lineScanner yields the source's non-blank lines in place, each cut at
// its first "//" and stripped of trailing blanks, tabs and carriage
// returns. A line is blank when only Unicode spaces are left.
type lineScanner struct {
	rest string
}

func (s *lineScanner) next() (string, bool) {
	for s.rest != "" {
		var line string
		line, s.rest, _ = strings.Cut(s.rest, "\n")
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimRight(line, " \t\r")
		if strings.TrimSpace(line) != "" {
			return line, true
		}
	}
	return "", false
}

// spaceAt reports whether s[i:] starts with a Unicode space, the split and
// trim set of strings.Fields and strings.TrimSpace, and the width of the
// rune there. An invalid UTF-8 byte is one rune and not a space.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return c == ' ' || c >= '\t' && c <= '\r', 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// nextField returns the first field of s as strings.Fields splits it, and
// what follows that field.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		sp, w := spaceAt(s, i)
		if !sp {
			break
		}
		i += w
	}
	j := i
	for j < len(s) {
		sp, w := spaceAt(s, j)
		if sp {
			break
		}
		j += w
	}
	return s[i:j], s[j:]
}

// joinFields returns strings.Join(strings.Fields(s), " ") for a trimmed s,
// and s itself when its fields are already one blank apart.
func joinFields(s string) string {
	prev := false
	for i := 0; i < len(s); {
		sp, w := spaceAt(s, i)
		if sp && (prev || s[i] != ' ') {
			return strings.Join(strings.Fields(s), " ")
		}
		prev = sp
		i += w
	}
	return s
}

// trimParens trims the blanks and then one "(" and one ")" around the
// argument of a ScopeTree or exists line.
func trimParens(s string) string {
	return strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(s), "("), ")")
}

// scanThreadID reads a thread number the way fmt.Sscanf(s, "T%d", &id)
// does: a literal T, Unicode spaces, an optional sign and decimal digits
// that fit an int. Whatever follows the digits is ignored.
func scanThreadID(s string) (int, bool) {
	if !strings.HasPrefix(s, "T") {
		return 0, false
	}
	i := 1
	for i < len(s) && s[i] != '\n' {
		sp, w := spaceAt(s, i)
		if !sp {
			break
		}
		i += w
	}
	start := i
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == digits {
		return 0, false
	}
	id, err := strconv.ParseInt(s[start:i], 10, strconv.IntSize)
	if err != nil {
		return 0, false
	}
	return int(id), true
}

// parseThreadHeader reads the thread table's first row, "T0 | T1 | ...",
// and makes one thread per column. Every cell must scan before the
// columns are checked to be T0, T1, ... in order.
func (t *Test) parseThreadHeader(header string) error {
	n := strings.Count(header, "|") + 1
	col, got := -1, 0
	for k, rest := 0, header; k < n; k++ {
		var cell string
		cell, rest, _ = strings.Cut(rest, "|")
		cell = strings.TrimSpace(cell)
		id, ok := scanThreadID(cell)
		if !ok {
			return fmt.Errorf("litmus: bad thread header cell %q", cell)
		}
		if id != k && col < 0 {
			col, got = k, id
		}
	}
	if col >= 0 {
		return fmt.Errorf("litmus: thread columns must be T0,T1,... in order; got T%d in column %d", got, col)
	}
	t.Threads = make([]Thread, n)
	for k := range t.Threads {
		t.Threads[k].ID = k
	}
	return nil
}

// sizePrograms counts the instruction cells of each column in the rows
// ahead of rows, up to the trailer or the first row with a wrong number of
// columns, and points every thread with any at its own stretch of one
// shared array, so that the rows append without growing a slice.
func (t *Test) sizePrograms(rows lineScanner) {
	var small [8]int
	counts := small[:0]
	if n := len(t.Threads); n <= len(small) {
		counts = small[:n]
	} else {
		counts = make([]int, n)
	}
	total := 0
	for {
		line, ok := rows.next()
		if !ok {
			break
		}
		line = strings.TrimSpace(line)
		if isTrailerLine(line) {
			break
		}
		row := strings.TrimSuffix(line, ";")
		if strings.Count(row, "|")+1 != len(counts) {
			break
		}
		for k := range counts {
			var cell string
			cell, row, _ = strings.Cut(row, "|")
			if strings.TrimSpace(cell) != "" {
				counts[k]++
				total++
			}
		}
	}
	if total == 0 {
		return
	}
	progs := make([]ptx.Instr, total)
	for k, c := range counts {
		if c > 0 {
			t.Threads[k].Prog, progs = progs[:0:c], progs[c:]
		}
	}
}

// isTrailerLine reports whether a trimmed line ends the thread table.
func isTrailerLine(line string) bool {
	return strings.HasPrefix(line, "ScopeTree") || strings.HasPrefix(line, "exists") || isMemMapLine(line)
}

// declRegs classifies the names in thread tid's cells: a register is one
// the thread declares, or one ptx.DefaultRegClassifier accepts.
type declRegs struct {
	decls []RegDecl
	tid   int
}

func (c *declRegs) isReg(name string) bool {
	for _, d := range c.decls {
		if d.Thread == c.tid && string(d.Reg) == name {
			return true
		}
	}
	return ptx.DefaultRegClassifier(name)
}

// isMemMapLine reports whether the line looks like "x: global, y: shared".
func isMemMapLine(line string) bool {
	i := strings.Index(line, ":")
	if i <= 0 {
		return false
	}
	rest := strings.TrimSpace(line[i+1:])
	return strings.HasPrefix(rest, "global") || strings.HasPrefix(rest, "shared")
}

func (t *Test) parseMemMap(line string) error {
	for more := true; more; {
		var part string
		part, line, more = strings.Cut(line, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spaceStr, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("litmus: bad memory-map entry %q", part)
		}
		loc := ptx.Sym(strings.TrimSpace(name))
		if !ptx.IsIdent(string(loc)) {
			return fmt.Errorf("litmus: bad location name in memory-map entry %q", part)
		}
		spaceStr = strings.TrimSpace(spaceStr)
		// Allow "x: global = 1" to set both region and initial value.
		if before, valStr, ok := strings.Cut(spaceStr, "="); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(valStr), 0, 64)
			if err != nil {
				return fmt.Errorf("litmus: bad initial value in %q", part)
			}
			t.MemInit[loc] = v
			spaceStr = strings.TrimSpace(before)
		}
		sp, err := ParseSpace(spaceStr)
		if err != nil {
			return err
		}
		t.MemMap[loc] = sp
	}
	return nil
}

// parseInitBlock parses "{0:.reg .s32 r0; 0:.reg .b64 r1 = x; m = 1;}".
// Anything after the block's last "}" is ignored.
func (t *Test) parseInitBlock(block string) error {
	inner := strings.TrimSpace(block)
	inner = strings.TrimPrefix(inner, "{")
	if i := strings.LastIndex(inner, "}"); i >= 0 {
		inner = inner[:i]
	}
	if n := strings.Count(inner, ".reg"); n > 0 {
		t.Decls = make([]RegDecl, 0, n)
	}
	for more := true; more; {
		var stmt string
		stmt, inner, more = strings.Cut(inner, ";")
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if strings.Contains(stmt, ".reg") {
			d, err := parseRegDecl(stmt)
			if err != nil {
				return err
			}
			t.Decls = append(t.Decls, d)
			continue
		}
		// Memory initialisation "loc = value".
		loc, val, ok := strings.Cut(stmt, "=")
		if !ok {
			return fmt.Errorf("litmus: bad init statement %q", stmt)
		}
		loc = strings.TrimSpace(loc)
		if !ptx.IsIdent(loc) {
			return fmt.Errorf("litmus: bad location name in init statement %q", stmt)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 0, 64)
		if err != nil {
			return fmt.Errorf("litmus: bad init value in %q", stmt)
		}
		t.MemInit[ptx.Sym(loc)] = v
	}
	return nil
}

// parseRegDecl parses "0:.reg .s32 r0" or "0:.reg .b64 r1 = x". Fields
// past the fourth are ignored.
func parseRegDecl(stmt string) (RegDecl, error) {
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
	rest = strings.TrimPrefix(rest, ".reg")
	var fields [4]string
	n := 0
	for {
		f, tail := nextField(rest)
		if f == "" {
			break
		}
		if n < len(fields) {
			fields[n] = f
		}
		n, rest = n+1, tail
	}
	if n < 2 {
		return d, fmt.Errorf("litmus: incomplete register declaration %q", stmt)
	}
	typ, err := ptx.ParseType(strings.TrimPrefix(fields[0], "."))
	if err != nil {
		return d, err
	}
	d.Type = typ
	if !ptx.IsIdent(fields[1]) {
		return d, fmt.Errorf("litmus: bad register name in declaration %q", stmt)
	}
	d.Reg = ptx.Reg(fields[1])
	if n >= 4 && fields[2] == "=" {
		d.Loc = ptx.Sym(fields[3])
	} else if n == 3 && strings.HasPrefix(fields[2], "=") {
		d.Loc = ptx.Sym(strings.TrimPrefix(fields[2], "="))
	} else if n > 2 {
		return d, fmt.Errorf("litmus: trailing tokens in register declaration %q", stmt)
	}
	if d.Loc != "" && !ptx.IsIdent(string(d.Loc)) {
		return d, fmt.Errorf("litmus: bad location name in declaration %q", stmt)
	}
	return d, nil
}
