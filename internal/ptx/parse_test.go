package ptx_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// diffInstr parses line with ParseInstr and with the oracle under isReg
// and reports a difference: both must fail with the same error text, or
// both return equal instructions.
func diffInstr(t *testing.T, line string, isReg ptx.RegClassifier) {
	t.Helper()
	got, err := ptx.ParseInstr(line, isReg)
	want, werr := ptx.ParseInstrOracle(line, isReg)
	switch {
	case err != nil || werr != nil:
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Errorf("ParseInstr(%q): error %v, oracle error %v", line, err, werr)
		}
	case !reflect.DeepEqual(got, want):
		t.Errorf("ParseInstr(%q) = %#v, oracle %#v", line, got, want)
	}
}

// TestParseInstrMatchesOracle checks ParseInstr against the splitting
// parser it replaced on every instruction cell of the paper tests and the
// 776 diy cycles, on every prefix of each distinct cell and every cell
// with one byte dropped, and on a table of hand-written and malformed
// forms, under the default register classifier and under one that also
// takes a few location and opcode names for registers.
func TestParseInstrMatchesOracle(t *testing.T) {
	tests := slices.Concat(litmustest.Paper(), litmustest.Cycles())
	seen := make(map[string]bool)
	var cells []string
	for _, test := range tests {
		for _, th := range test.Threads {
			for _, inst := range th.Prog {
				if s := inst.String(); !seen[s] {
					seen[s] = true
					cells = append(cells, s)
				}
			}
		}
	}
	table := []string{
		"", "  ", "// only a comment", "st.cg [x],1 // note", ":", "END:", "a b:", "x]:",
		"!p4 ld.cg r1,[d]", "@!p4 membar.gl", "@p", "p", "@@p ld r1,[x]", "!ld r1,[x]",
		"ld", "ld.", "ld..cg r1,[x]", ".ld r1,[x]", "ld.cg.s32.u64 r1,[x]", "ld.volatile.global.a r1,[x]",
		"ld.cg r1", "ld.cg r1,x", "ld.cg r1,[]", "ld.cg r1,[ x ]", "ld.cg r1,[1x]", "ld.cg x,[x]",
		"ld.cg r1 , [x]", "ld.cg\tr1,[x]", "ld.cg r1,[x],", "ld.bogus r1,[x]",
		"st.cg [x]", "st.cg [x],-1", "st.cg [x],+7", "st.cg [x],0x1f", "st.cg [x],0b101", "st.cg [x],1_000",
		"st.cg [x],9223372036854775808", "st.cg [x],-9223372036854775809", "st.cg [x],y", "st.cg [x],r1",
		"st.cg [x],1a", "st.cg [x],", "st.cg [x],-", "st.cg [x],a-b",
		"atom", "atom.cas r0,[h],0", "atom.cas r0,[h],0,1", "atom.cas.global.b32 r0,[h],0,1,2",
		"atom.exch r0,[m],0", "atom.add r0,[m],r1", "atom.inc r2,[t],1", "atom.global r0,[m],0", "atom.max r0,[m],0",
		"membar", "membar.cta", "membar.gl", "membar.sys", "membar.gpu", "membar.gl.sys", "membar.gl r1,r2",
		"mov r2,1", "mov.s32 r2,r1", "mov.s32.b64 r2,r1", "mov.bad r2,1", "mov r2", "mov 1,r2",
		"add r2,r2,1", "and.b32 r1,r1,0x80000000", "xor r3,r2,r2", "add r2,r2", "xor r3,r2,r2,r2",
		"cvt.u64.u32 r3,r2", "cvt.u64 r3,r2", "cvt.u64.u32.s32 r3,r2", "cvt.u64.bad r3,r2", "cvt.u64.u32 r3",
		"setp.eq p4,r0,0", "setp.eq.s32 p4,r0,0", "setp.lt p,r0,0", "setp p,r0,0", "setp.eq p4,r0",
		"bra END", "bra", "bra END,ELSE", "@p bra END", "frobnicate r0,r1",
		"ld.cg r1,[x]\u00a0", "\u3000ld.cg r1,[x]", "ld.cg r1,[x]\u2028", "st.cg [x],1\xff", "ld.cg r\xff,[x]",
	}
	declared := map[string]bool{"x": true, "ld": true, "END": true, "m1": true}
	classifiers := []ptx.RegClassifier{nil, func(name string) bool {
		return declared[name] || ptx.DefaultRegClassifier(name)
	}}
	for _, isReg := range classifiers {
		for _, line := range append(table, cells...) {
			diffInstr(t, line, isReg)
		}
		for _, cell := range cells {
			for i := 0; i < len(cell); i++ {
				diffInstr(t, cell[:i], isReg)
				diffInstr(t, cell[:i]+cell[i+1:], isReg)
			}
		}
	}
}
