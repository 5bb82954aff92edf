package litmus

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

func TestFingerprintStableAndNameIndependent(t *testing.T) {
	a := CoRR()
	b := CoRR()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two constructions of coRR must share a fingerprint")
	}
	renamed := CoRR()
	renamed.Name = "completely-different-label"
	renamed.Doc = "other doc"
	if renamed.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint must ignore name and doc")
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a.Fingerprint()) {
		t.Errorf("fingerprint %q is not hex sha256", a.Fingerprint())
	}
}

func TestFingerprintSeparatesContent(t *testing.T) {
	seen := map[string]string{}
	for _, test := range PaperTests() {
		fp := test.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("paper tests %s and %s collide on %s", prev, test.Name, fp)
		}
		seen[fp] = test.Name
	}

	base := MustParse(CoRR().String())
	flipped := MustParse(CoRR().String())
	flipped.MemInit["x"] = 7
	if base.Fingerprint() == flipped.Fingerprint() {
		t.Error("changing an initial value must change the fingerprint")
	}
	shared := MustParse(CoRR().String())
	shared.MemMap["x"] = Shared
	if base.Fingerprint() == shared.Fingerprint() {
		t.Error("changing a memory space must change the fingerprint")
	}
}

func TestFingerprintRoundTripsThroughParse(t *testing.T) {
	for _, test := range PaperTests() {
		back, err := Parse(test.String())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if back.Fingerprint() != test.Fingerprint() {
			t.Errorf("%s: fingerprint changes across Parse(String())", test.Name)
		}
	}
}

// fingerprintOracle is the fmt-based canonical-form renderer Fingerprint
// replaced, kept as the oracle the append encoder must match byte for byte.
func fingerprintOracle(t *Test) string {
	var sb strings.Builder
	decls := make([]string, 0, len(t.Decls))
	for _, d := range t.Decls {
		decls = append(decls, fmt.Sprintf("%d:.%s %s=%s", d.Thread, d.Type, d.Reg, d.Loc))
	}
	sort.Strings(decls)
	sb.WriteString("decls:")
	sb.WriteString(strings.Join(decls, ";"))
	sb.WriteString("\ninit:")
	inits := make([]string, 0, len(t.MemInit))
	for l, v := range t.MemInit {
		inits = append(inits, fmt.Sprintf("%s=%d", l, v))
	}
	sort.Strings(inits)
	sb.WriteString(strings.Join(inits, ";"))
	sb.WriteString("\nmem:")
	spaces := make([]string, 0, len(t.MemMap))
	for l, sp := range t.MemMap {
		spaces = append(spaces, fmt.Sprintf("%s=%s", l, sp))
	}
	sort.Strings(spaces)
	sb.WriteString(strings.Join(spaces, ";"))
	sb.WriteString("\nthreads:")
	for _, th := range t.Threads {
		fmt.Fprintf(&sb, "T%d{", th.ID)
		for _, inst := range th.Prog {
			sb.WriteString(oracleInstr(inst))
			sb.WriteString(";")
		}
		sb.WriteString("}")
	}
	fmt.Fprintf(&sb, "\nscope:%s\nexists:%s\n", oracleScope(t.Scope), oracleCond(t.Exists))
	return sb.String()
}

// oracleInstr is the fmt-based instruction renderer the ptx AppendTo
// methods replaced.
func oracleInstr(inst ptx.Instr) string {
	prefix := func(g *ptx.Guard) string {
		if g == nil {
			return ""
		}
		if g.Neg {
			return "@!" + string(g.Reg) + " "
		}
		return "@" + string(g.Reg) + " "
	}(inst.Pred())
	typ := func(t ptx.Type) string {
		if t == ptx.TypeNone {
			return ""
		}
		return "." + t.String()
	}
	mem := func(volatile bool, c ptx.CacheOp) string {
		s := ""
		if volatile {
			s = ".volatile"
		}
		if c != ptx.CacheDefault {
			s += "." + c.String()
		}
		return s
	}
	op := func(o ptx.Operand) string {
		if i, ok := o.(ptx.Imm); ok {
			if uint64(i) >= 0x10000 && i > 0 {
				return fmt.Sprintf("0x%x", int64(i))
			}
			return fmt.Sprintf("%d", int64(i))
		}
		return fmt.Sprintf("%s", o)
	}
	addr := func(a ptx.Operand) string { return "[" + op(a) + "]" }
	switch i := inst.(type) {
	case ptx.Ld:
		return fmt.Sprintf("%sld%s%s %s,%s", prefix, mem(i.Volatile, i.CacheOp), typ(i.Type), i.Dst, addr(i.Addr))
	case ptx.St:
		return fmt.Sprintf("%sst%s%s %s,%s", prefix, mem(i.Volatile, i.CacheOp), typ(i.Type), addr(i.Addr), op(i.Src))
	case ptx.AtomCAS:
		return fmt.Sprintf("%satom.cas%s %s,%s,%s,%s", prefix, typ(i.Type), i.Dst, addr(i.Addr), op(i.Cmp), op(i.New))
	case ptx.AtomExch:
		return fmt.Sprintf("%satom.exch%s %s,%s,%s", prefix, typ(i.Type), i.Dst, addr(i.Addr), op(i.Src))
	case ptx.AtomAdd:
		return fmt.Sprintf("%satom.add%s %s,%s,%s", prefix, typ(i.Type), i.Dst, addr(i.Addr), op(i.Src))
	case ptx.AtomInc:
		return fmt.Sprintf("%satom.inc%s %s,%s,%s", prefix, typ(i.Type), i.Dst, addr(i.Addr), op(i.Bound))
	case ptx.Membar:
		return fmt.Sprintf("%smembar.%s", prefix, i.Scope)
	case ptx.Mov:
		return fmt.Sprintf("%smov%s %s,%s", prefix, typ(i.Type), i.Dst, op(i.Src))
	case ptx.Add:
		return fmt.Sprintf("%sadd%s %s,%s,%s", prefix, typ(i.Type), i.Dst, op(i.A), op(i.B))
	case ptx.And:
		return fmt.Sprintf("%sand%s %s,%s,%s", prefix, typ(i.Type), i.Dst, op(i.A), op(i.B))
	case ptx.Xor:
		return fmt.Sprintf("%sxor%s %s,%s,%s", prefix, typ(i.Type), i.Dst, op(i.A), op(i.B))
	case ptx.Cvt:
		return fmt.Sprintf("%scvt.%s.%s %s,%s", prefix, i.DstType, i.SrcType, i.Dst, op(i.Src))
	case ptx.SetpEq:
		return fmt.Sprintf("%ssetp.eq%s %s,%s,%s", prefix, typ(i.Type), i.P, op(i.A), op(i.B))
	case ptx.Bra:
		return fmt.Sprintf("%sbra %s", prefix, i.Target)
	case ptx.LabelDef:
		return i.Name + ":"
	}
	panic(fmt.Sprintf("oracleInstr: unknown instruction %T", inst))
}

// oracleScope is the fmt-based scope-tree renderer ScopeTree.AppendTo
// replaced.
func oracleScope(s ScopeTree) string {
	ctas := make([]string, len(s.CTAs))
	for i, c := range s.CTAs {
		warps := make([]string, len(c.Warps))
		for j, w := range c.Warps {
			tids := make([]string, len(w.Threads))
			for k, t := range w.Threads {
				tids[k] = fmt.Sprintf("T%d", t)
			}
			warps[j] = "(warp " + strings.Join(tids, " ") + ")"
		}
		ctas[i] = "cta" + strings.Join(warps, " ")
	}
	return "grid(" + strings.Join(ctas, ") (") + ")"
}

// oracleCond is the fmt-based condition renderer the Cond AppendTo methods
// replaced.
func oracleCond(c Cond) string {
	paren := func(c Cond) string {
		switch c.(type) {
		case CondAnd, CondOr:
			return "(" + oracleCond(c) + ")"
		}
		return oracleCond(c)
	}
	switch v := c.(type) {
	case RegEq:
		return fmt.Sprintf("%d:%s=%d", v.Thread, v.Reg, v.Val)
	case MemEq:
		return fmt.Sprintf("%s=%d", v.Loc, v.Val)
	case CondAnd:
		return fmt.Sprintf("%s /\\ %s", oracleCond(v.L), paren(v.R))
	case CondOr:
		return fmt.Sprintf("(%s \\/ %s)", oracleCond(v.L), oracleCond(v.R))
	case CondNot:
		return "~" + paren(v.C)
	}
	return fmt.Sprintf("%s", c)
}

// canonicalOf returns the append encoder's canonical form of t.
func canonicalOf(t *Test) string {
	return string((&canonicalEncoder{}).canonical(t))
}

// checkAgainstOracle fails unless the append encoder's canonical form, and
// every String rendering built on the same AppendTo methods, equals the
// fmt oracle's.
func checkAgainstOracle(t *testing.T, test *Test) {
	t.Helper()
	if got, want := canonicalOf(test), fingerprintOracle(test); got != want {
		t.Fatalf("%s: canonical form differs from the oracle\ngot:\n%s\nwant:\n%s", test.Name, got, want)
	}
	for _, th := range test.Threads {
		for _, inst := range th.Prog {
			if got, want := inst.String(), oracleInstr(inst); got != want {
				t.Fatalf("%s: instruction renders %q, oracle %q", test.Name, got, want)
			}
		}
	}
	if got, want := test.Scope.String(), oracleScope(test.Scope); got != want {
		t.Fatalf("%s: scope renders %q, oracle %q", test.Name, got, want)
	}
	if got, want := test.Exists.String(), oracleCond(test.Exists); got != want {
		t.Fatalf("%s: condition renders %q, oracle %q", test.Name, got, want)
	}
}

// TestFingerprintMatchesOracle: on the paper corpus and on hand-built
// shapes that reach every instruction, operand, guard and connective, the
// append encoder produces the oracle's canonical form byte for byte.
func TestFingerprintMatchesOracle(t *testing.T) {
	for _, test := range PaperTests() {
		checkAgainstOracle(t, test)
	}
	p := &ptx.Guard{Reg: "p"}
	np := &ptx.Guard{Reg: "p", Neg: true}
	prog := ptx.Program{
		setType(ptx.Ld{Dst: "r0", Addr: ptx.Sym("x"), CacheOp: ptx.CacheCA, Volatile: true}, ptx.TypeS32),
		ptx.St{Addr: ptx.Reg("ra"), Src: ptx.Imm(-7), CacheOp: ptx.CacheCG},
		setType(ptx.AtomCAS{Dst: "r1", Addr: ptx.Sym("x"), Cmp: ptx.Imm(0), New: ptx.Imm(0x10000)}, ptx.TypeB32),
		ptx.AtomExch{Dst: "r2", Addr: ptx.Sym("y"), Src: ptx.Reg("r1")},
		ptx.AtomAdd{Dst: "r3", Addr: ptx.Sym("y"), Src: ptx.Imm(0xffff)},
		ptx.AtomInc{Dst: "r4", Addr: ptx.Sym("y"), Bound: ptx.Imm(0x80000000)},
		ptx.Membar{Scope: ptx.ScopeSys}.WithGuard(np),
		ptx.Mov{Dst: "r5", Src: ptx.Sym("x")},
		setType(ptx.Add{Dst: "r6", A: ptx.Reg("r5"), B: ptx.Imm(1)}, ptx.TypeU64),
		ptx.And{Dst: "r7", A: ptx.Reg("r6"), B: ptx.Imm(0x80000000)},
		ptx.Xor{Dst: "r8", A: ptx.Reg("r7"), B: ptx.Reg("r7")},
		ptx.Cvt{DstType: ptx.TypeU64, SrcType: ptx.TypeU32, Dst: "r9", Src: ptx.Reg("r8")},
		setType(ptx.SetpEq{P: "p", A: ptx.Reg("r0"), B: ptx.Imm(1)}, ptx.TypeS32),
		ptx.Bra{Target: "L"}.WithGuard(p),
		ptx.LabelDef{Name: "L"},
		ptx.St{Addr: ptx.Sym("x")}, // nil source renders like fmt's %s
	}
	shape := &Test{
		Threads: []Thread{{ID: 0, Prog: prog}, {ID: 1, Prog: ptx.Program{ptx.Membar{Scope: ptx.ScopeCTA}}}},
		Decls: []RegDecl{
			{Thread: 0, Type: ptx.TypeB64, Reg: "ra", Loc: "y"},
			{Thread: 1, Type: ptx.TypeS32, Reg: "r0"},
			{Thread: 0, Type: ptx.TypePred, Reg: "p"},
		},
		MemInit: map[ptx.Sym]int64{"y": -3, "x": 1 << 40, "z": 0},
		MemMap:  map[ptx.Sym]Space{"y": Shared, "x": Global},
		Scope:   ScopeTree{CTAs: []CTAScope{{Warps: []WarpScope{{Threads: []int{0, 1}}, {}}}, {}}},
		Exists: CondOr{
			L: CondNot{C: And(RegEq{Thread: 0, Reg: "r0", Val: -1}, MemEq{Loc: "x", Val: 2})},
			R: CondAnd{L: MemEq{Loc: "y", Val: 0}, R: CondOr{L: RegEq{Reg: "r1"}, R: CondNot{C: MemEq{Loc: "z"}}}},
		},
	}
	checkAgainstOracle(t, shape)
	shape.Exists = nil
	if got, want := canonicalOf(shape), fingerprintOracle(shape); got != want {
		t.Fatalf("nil condition: canonical form differs from the oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// setType returns inst with its type specifier set.
func setType(inst ptx.Instr, ty ptx.Type) ptx.Instr {
	switch v := inst.(type) {
	case ptx.Ld:
		v.Type = ty
		return v
	case ptx.AtomCAS:
		v.Type = ty
		return v
	case ptx.Add:
		v.Type = ty
		return v
	case ptx.SetpEq:
		v.Type = ty
		return v
	}
	panic(fmt.Sprintf("setType: unhandled %T", inst))
}

// FuzzFingerprint: for every source Parse accepts, the append encoder's
// canonical form — and so the fingerprint — equals the fmt oracle's, on
// the parsed test and on its Parse(String()) round trip.
func FuzzFingerprint(f *testing.F) {
	for _, t := range PaperTests() {
		f.Add(t.String())
	}
	f.Add("GPU_PTX t\n{ x=0; }\nP0 | P1 ;\nld.cg r1,[x] | st.cg [x],65536 ;\nexists (0:r1=-1 \\/ ~(x=2 /\\ 0:r1=0))")

	f.Fuzz(func(t *testing.T, src string) {
		tst, err := Parse(src)
		if err != nil {
			return
		}
		checkAgainstOracle(t, tst)
		if again, err := Parse(tst.String()); err == nil {
			checkAgainstOracle(t, again)
		}
	})
}

// BenchmarkTestFingerprint measures Fingerprint over the paper corpus and
// fails when a call averages 16 allocations or more: the service and the
// campaign memo fingerprint every test they are handed.
func BenchmarkTestFingerprint(b *testing.B) {
	tests := PaperTests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tests[i%len(tests)].Fingerprint()
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(10, func() {
		for _, t := range tests {
			_ = t.Fingerprint()
		}
	}) / float64(len(tests))
	b.ReportMetric(allocs, "allocs/call")
	if allocs >= 16 {
		b.Fatalf("Fingerprint allocates %.1f times a call on the paper corpus, want under 16", allocs)
	}
}

// TestFingerprintAllocatesOnlyItsString: the canonical form is built in a
// pooled encoder, so a call allocates the returned string and nothing
// else, on the paper tests and on a test whose canonical form outgrows a
// fresh encoder's buffers.
func TestFingerprintAllocatesOnlyItsString(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	tests := PaperTests()
	b := NewTest("wide").Global("x", 0)
	for i := 0; i < 40; i++ {
		b = b.Thread("st.cg [x],1", "ld.cg r0,[x]", "membar.gl", "ld.cg r1,[x]")
	}
	tests = append(tests, b.Exists("0:r0=1").MustBuild())
	for _, tst := range tests {
		tst.Fingerprint() // warm the pool with an encoder that fits
		if allocs := testing.AllocsPerRun(20, func() { _ = tst.Fingerprint() }); allocs != 1 {
			t.Errorf("%s: Fingerprint allocates %.1f times a call, want 1 (the string)", tst.Name, allocs)
		}
	}
}
