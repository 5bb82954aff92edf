package litmus

import (
	"strconv"
	"strings"
	"testing"
)

// lenientSrc is a two-thread test whose header cells, scope tree,
// condition and trailer lines the lenient-form table substitutes.
func lenientSrc(header, scope, cond, trailer string) string {
	return "GPU_PTX lenient\n" +
		"{x = 0;}\n" +
		header + "\n" +
		" st.cg [x],1 | ld.cg r0,[x] ;\n" +
		scope +
		trailer +
		"exists (" + cond + ")\n"
}

// TestParseLenientForms pins the forms Parse accepts beyond its own
// canonical rendering, and the exact texts of the errors next to them.
// The parser takes a thread number the way fmt's "T%d" scan does (spaces
// and a sign before the digits, anything after them ignored), splits and
// trims on Unicode spaces, reports every invalid UTF-8 byte of a scope-tree
// token as U+FFFD, accepts ∧ and ∨ in conditions and "x: global = 1"
// memory-map entries, and strips "//" comments from every line, a quoted
// description included. None of these may tighten.
func TestParseLenientForms(t *testing.T) {
	// sum renders what each accepted form must reproduce.
	sum := func(t *Test) string {
		var b strings.Builder
		b.WriteString(t.Name + "|" + t.Doc + "|" + t.Scope.String() + "|" + t.Exists.String() + "|")
		for _, l := range t.Locations() {
			b.WriteString(string(l) + ":" + t.SpaceOf(l).String() + "=" + strconv.FormatInt(t.InitOf(l), 10) + ";")
		}
		return b.String()
	}
	for _, c := range lenientCases() {
		got, err := Parse(c.src)
		switch {
		case c.err != "":
			if err == nil {
				t.Errorf("%s: accepted, want error %q", c.name, c.err)
			} else if err.Error() != c.err {
				t.Errorf("%s: error %q, want %q", c.name, err.Error(), c.err)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		default:
			if s := sum(got); s != c.want {
				t.Errorf("%s: parsed as\n%s\nwant\n%s", c.name, s, c.want)
			}
		}
		if err := diffOracle(c.src); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// lenientCase is one source of TestParseLenientForms: want is the summary
// of the test it parses to, or err the text of the error it fails with.
type lenientCase struct {
	name, src, want, err string
}

// lenientCases are TestParseLenientForms's table; FuzzParse seeds its
// corpus with them too.
func lenientCases() []lenientCase {
	const (
		head = " T0 | T1 ;"
		cond = "1:r0=1"
	)
	intra := "grid(cta(warp T0) (warp T1))"
	return []lenientCase{
		// Thread header cells.
		{name: "header T0x1f reads as thread 0", src: lenientSrc(" T0x1f | T1 ;", "", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "header T+1 and T01", src: lenientSrc(" T+0 | T01 ;", "", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "header space after T", src: lenientSrc(" T 0 | T \t1 ;", "", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "header T-0", src: lenientSrc(" T-0 | T1y ;", "", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "header T5x", src: lenientSrc(" T5x | T1 ;", "", cond, ""),
			err: "litmus: thread columns must be T0,T1,... in order; got T5 in column 0"},
		{name: "header T+5", src: lenientSrc(" T0 | T+5 ;", "", cond, ""),
			err: "litmus: thread columns must be T0,T1,... in order; got T5 in column 1"},
		{name: "header T05", src: lenientSrc(" T05 | T1 ;", "", cond, ""),
			err: "litmus: thread columns must be T0,T1,... in order; got T5 in column 0"},
		{name: "header T 5", src: lenientSrc(" T 5 | T1 ;", "", cond, ""),
			err: "litmus: thread columns must be T0,T1,... in order; got T5 in column 0"},
		{name: "header T-1", src: lenientSrc(" T-1 | T1 ;", "", cond, ""),
			err: "litmus: thread columns must be T0,T1,... in order; got T-1 in column 0"},
		{name: "header overflow", src: lenientSrc(" T99999999999999999999 | T1 ;", "", cond, ""),
			err: `litmus: bad thread header cell "T99999999999999999999"`},
		{name: "header sign only", src: lenientSrc(" T+ | T1 ;", "", cond, ""),
			err: `litmus: bad thread header cell "T+"`},
		{name: "header empty cell", src: lenientSrc(" T0 | T1 | ;", "", cond, ""),
			err: `litmus: bad thread header cell ""`},
		{name: "header lower t", src: lenientSrc(" t0 | T1 ;", "", cond, ""),
			err: `litmus: bad thread header cell "t0"`},

		// Scope-tree thread ids go through the same scan.
		{name: "scope T0x1f and T+1", src: lenientSrc(head, "ScopeTree(grid(cta(warp T0x1f) (warp T+1)))\n", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "scope T-1", src: lenientSrc(head, "ScopeTree(grid(cta(warp T-1) (warp T1)))\n", cond, ""),
			err: "litmus: scope tree mentions unknown thread T-1"},
		{name: "scope overflow", src: lenientSrc(head, "ScopeTree(grid(cta(warp T99999999999999999999) (warp T1)))\n", cond, ""),
			err: `litmus: bad thread id "T99999999999999999999"`},
		{name: "scope T alone", src: lenientSrc(head, "ScopeTree(grid(cta(warp T) (warp T1)))\n", cond, ""),
			err: `litmus: bad thread id "T"`},
		{name: "scope Unicode space inside token", src: lenientSrc(head, "ScopeTree(grid(cta(warp T\u00a00) (warp T\v1)))\n", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},

		// Invalid UTF-8 in a scope tree: one U+FFFD per byte.
		{name: "scope invalid byte", src: lenientSrc(head, "ScopeTree(grid(cta(warp T0 \xff) (warp T1)))\n", cond, ""),
			err: "litmus: scope tree: expected \")\", got \"�\""},
		{name: "scope invalid bytes in a keyword", src: lenientSrc(head, "ScopeTree(gr\xff\xfeid(cta(warp T0) (warp T1)))\n", cond, ""),
			err: "litmus: scope tree: expected \"grid\", got \"gr��id\""},
		{name: "scope truncated rune", src: lenientSrc(head, "ScopeTree(grid(\xe2\x88(warp T0) (warp T1)))\n", cond, ""),
			err: "litmus: expected cta, got \"��\""},

		// Unicode spaces split and trim.
		{name: "Unicode spaces in the header line", src: strings.Replace(lenientSrc(head, "", cond, ""), "GPU_PTX lenient", "GPU_PTX\u00a0len\u2003ient\u3000", 1),
			want: "len ient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "Unicode spaces in a declaration", src: strings.Replace(lenientSrc(head, "", cond, ""), "{x = 0;}", "{1:.reg\u00a0.s32\u2000r0;\u3000x = 3;}", 1),
			want: "lenient||" + intra + "|1:r0=1|x:global=3;"},
		{name: "Unicode spaces around a cell", src: strings.Replace(lenientSrc(head, "", cond, ""), " st.cg [x],1 |", "\u0085st.cg [x],1\u205f|", 1),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},

		// Conditions.
		{name: "wedge and vee", src: lenientSrc(head, "", "1:r0=1 ∧ x=1 ∨ ~1:r0=0", ""),
			want: "lenient||" + intra + "|(1:r0=1 /\\ x=1 \\/ ~1:r0=0)|x:global=0;"},
		{name: "register shorthand resolves", src: lenientSrc(head, "", "r0=1", ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "bad integer after wedge", src: lenientSrc(head, "", "1:r0=1 ∧ x=z", ""),
			err: `litmus: bad integer "z" in condition`},

		// Memory maps with initial values.
		{name: "memory map with init", src: lenientSrc(head, "", cond, "x: global = 1, y: shared=0x10\n"),
			want: "lenient||" + intra + "|1:r0=1|x:global=1;y:shared=16;"},
		{name: "memory map bad init", src: lenientSrc(head, "", cond, "x: global = one\n"),
			err: `litmus: bad initial value in "x: global = one"`},

		// Comments strip the rest of any line.
		{name: "comment inside a description", src: strings.Replace(lenientSrc(head, "", cond, ""), "{x = 0;}", "\"a // b\"\n{x = 0;} // c", 1),
			want: "lenient|a|" + intra + "|1:r0=1|x:global=0;"},
		{name: "comment hides the closing parenthesis", src: lenientSrc(head, "", cond+" // more", ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},

		// Init blocks.
		{name: "init block over two lines", src: strings.Replace(lenientSrc(head, "", cond, ""), "{x = 0;}", "{x = 2;\n  1:.reg .s32 r0;}", 1),
			want: "lenient||" + intra + "|1:r0=1|x:global=2;"},
		{name: "text after the last brace", src: strings.Replace(lenientSrc(head, "", cond, ""), "{x = 0;}", "{x = 0;} y = 1;", 1),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "declaration fields past the fourth", src: strings.Replace(lenientSrc(head, "", cond, ""), "{x = 0;}", "{1:.reg .b64 r1 = y z w;}", 1),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;y:global=0;"},
		{name: "header indented", src: " " + lenientSrc(head, "", cond, ""),
			want: "lenient||" + intra + "|1:r0=1|x:global=0;"},
		{name: "header without a name", src: strings.Replace(lenientSrc(head, "", cond, ""), "GPU_PTX lenient", " GPU_PTX\u00a0", 1),
			err: `litmus: bad header " GPU_PTX\u00a0" (want "ARCH NAME")`},
		{name: "description indented", src: strings.Replace(lenientSrc(head, "", cond, ""), "{x = 0;}", " \"d\"\n{x = 0;}", 1),
			err: `litmus: expected init block {...}, got " \"d\""`},
	}
}
