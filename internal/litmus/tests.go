package litmus

import (
	"fmt"
	"sync"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Fence selects the fence instruction inserted at a test's fence slots.
type Fence string

// Fence choices matching the rows of Figs. 3 and 4.
const (
	NoFence  Fence = ""           // "no-op" row
	FenceCTA Fence = "membar.cta" // membar.cta row
	FenceGL  Fence = "membar.gl"  // membar.gl row
	FenceSys Fence = "membar.sys" // membar.sys row
)

// Fences lists the fence rows of Figs. 3 and 4 in paper order.
var Fences = []Fence{NoFence, FenceCTA, FenceGL, FenceSys}

// Name returns the row label used by the paper ("no-op" for the empty
// fence).
func (f Fence) Name() string {
	if f == NoFence {
		return "no-op"
	}
	return string(f)
}

// Scope returns the PTX scope of the fence (ScopeNone for NoFence).
func (f Fence) Scope() ptx.Scope {
	switch f {
	case FenceCTA:
		return ptx.ScopeCTA
	case FenceGL:
		return ptx.ScopeGL
	case FenceSys:
		return ptx.ScopeSys
	default:
		return ptx.ScopeNone
	}
}

// CoRR is the read-read coherence test of Fig. 1: one thread stores 1 to x;
// another, in the same CTA, loads x twice. The weak outcome r1=1 ∧ r2=0
// sees the new value then the old.
func CoRR() *Test {
	return NewTest("coRR").
		Doc("PTX test for coherent reads (Fig. 1)").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]", "ld.cg r2,[x]").
		IntraCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
}

// MPL1 is the message-passing test with L1 cache operators of Fig. 3:
// inter-CTA, .cg stores, .ca loads, with the given fence between both the
// stores and the loads.
func MPL1(f Fence) *Test {
	name := "mp-L1"
	if f != NoFence {
		name += "+" + string(f) + "s"
	}
	return NewTest(name).
		Doc("PTX mp with L1 cache operators (Fig. 3)").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", string(f), "st.cg [y],1").
		Thread("ld.ca r1,[y]", string(f), "ld.ca r2,[x]").
		InterCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
}

// CoRRL2L1 is the coRR variant of Fig. 4 mixing cache operators: the first
// load targets the L2 (.cg), the second the L1 (.ca), with the given fence
// between them.
func CoRRL2L1(f Fence) *Test {
	name := "coRR-L2-L1"
	if f != NoFence {
		name += "+" + string(f)
	}
	return NewTest(name).
		Doc("PTX coRR mixing cache operators (Fig. 4)").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]", string(f), "ld.ca r2,[x]").
		IntraCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
}

// MPVolatile is the mp variant of Fig. 5 with every access .volatile and
// both locations in shared memory, threads intra-CTA (different warps).
func MPVolatile() *Test {
	return NewTest("mp-volatile").
		Doc("PTX mp with volatiles (Fig. 5)").
		SharedLoc("x", 0).SharedLoc("y", 0).
		Thread("st.volatile [x],1", "st.volatile [y],1").
		Thread("ld.volatile r1,[y]", "ld.volatile r2,[x]").
		IntraCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
}

// DlbMP is the dynamic-load-balancing message-passing test of Fig. 7,
// distilled from the Cederman–Tsigas work-stealing deque: T0 writes a task
// then increments tail; T1 reads tail then the task. fenced inserts the
// (+)-prefixed membar.gl lines.
func DlbMP(fenced bool) *Test {
	name := "dlb-mp"
	if fenced {
		name += "+membar.gls"
	}
	fence0, fence1 := "", ""
	if fenced {
		fence0 = "membar.gl"
		fence1 = "@!p4 membar.gl"
	}
	return NewTest(name).
		Doc("PTX mp from load-balancing (Fig. 7)").
		Global("t", 0).Global("d", 0).
		Thread(
			"st.cg [d],1",
			fence0,
			"ld.volatile r2,[t]",
			"add r2,r2,1",
			"st.volatile [t],r2",
		).
		Thread(
			"ld.volatile r0,[t]",
			"setp.eq p4,r0,0",
			fence1,
			"@!p4 ld.cg r1,[d]",
		).
		InterCTA().
		Exists("1:r0=1 /\\ 1:r1=0").
		MustBuild()
}

// DlbLB is the dynamic-load-balancing load-buffering test of Fig. 8: two
// CAS/store/load threads forming an lb cycle; the weak outcome corresponds
// to a steal reading a value pushed by a later pop.
func DlbLB(fenced bool) *Test {
	name := "dlb-lb"
	if fenced {
		name += "+membar.gls"
	}
	fence := ""
	if fenced {
		fence = "membar.gl"
	}
	return NewTest(name).
		Doc("PTX lb from load-balancing (Fig. 8)").
		Global("t", 0).Global("h", 0).
		Thread(
			"atom.cas r0,[h],0,1",
			fence,
			"mov r2,1",
			"st.cg [t],r2",
		).
		Thread(
			"ld.cg r1,[t]",
			fence,
			"atom.cas r3,[h],0,1",
		).
		InterCTA().
		Exists("0:r0=1 /\\ 1:r1=1").
		MustBuild()
}

// CasSL is the compare-and-swap spin-lock test of Fig. 9, distilled from
// the CUDA by Example lock: T0 stores to the protected data then releases
// the mutex with an exchange; T1 acquires with a CAS and, if successful,
// loads the data. The weak outcome acquires the lock yet reads a stale
// value.
func CasSL(fenced bool) *Test {
	name := "cas-sl"
	if fenced {
		name += "+membar.gls"
	}
	fence0, fence1 := "", ""
	if fenced {
		fence0 = "membar.gl"
		fence1 = "@p membar.gl"
	}
	return NewTest(name).
		Doc("PTX compare-and-swap spin lock (Fig. 9)").
		Global("x", 0).Global("m", 1).
		Thread(
			"st.cg [x],1",
			fence0,
			"atom.exch r0,[m],0",
		).
		Thread(
			"atom.cas r1,[m],0,1",
			"setp.eq p,r1,0",
			fence1,
			"@p ld.cg r3,[x]",
		).
		InterCTA().
		Exists("1:r1=0 /\\ 1:r3=0").
		MustBuild()
}

// SlFuture is the spin-lock future-value test of Fig. 11, distilled from
// the He–Yu transaction lock: can a critical section read a value written
// by the *next* critical section? fixed applies the paper's repair (fences
// at entry and exit, release via atomic exchange instead of a plain store).
func SlFuture(fixed bool) *Test {
	name := "sl-future"
	if fixed {
		name += "+fixed"
	}
	b := NewTest(name).
		Doc("PTX spin lock future value test (Fig. 11)").
		Global("x", 0).Global("m", 1)
	if fixed {
		b = b.Thread(
			"ld.cg r0,[x]",
			"membar.gl",
			"atom.exch r1,[m],0",
		).Thread(
			"atom.cas r2,[m],0,1",
			"setp.eq p,r2,0",
			"@p membar.gl",
			"@p st.cg [x],1",
		)
	} else {
		b = b.Thread(
			"ld.cg r0,[x]",
			"st.cg [m],0",
			"membar.gl",
		).Thread(
			"atom.cas r2,[m],0,1",
			"setp.eq p,r2,0",
			"@p st.cg [x],1",
		)
	}
	return b.
		InterCTA().
		Exists("0:r0=1 /\\ 1:r2=0").
		MustBuild()
}

// SB is the store-buffering test of Fig. 12 (the x86-TSO idiom): each
// thread stores to one location then loads the other. The concrete test in
// the figure keeps x in shared and y in global memory and uses address
// registers.
func SB() *Test {
	t := MustParse(`GPU_PTX SB
{0:.reg .s32 r0; 0:.reg .s32 r2;
 0:.reg .b64 r1 = x; 0:.reg .b64 r3 = y;
 1:.reg .s32 r0; 1:.reg .s32 r2;
 1:.reg .b64 r1 = y; 1:.reg .b64 r3 = x;}
 T0              | T1              ;
 mov.s32 r0,1    | mov.s32 r0,1    ;
 st.cg.s32 [r1],r0 | st.cg.s32 [r1],r0 ;
 ld.cg.s32 r2,[r3] | ld.cg.s32 r2,[r3] ;
ScopeTree(grid(cta(warp T0) (warp T1)))
x: shared, y: global
exists (0:r2=0 /\ 1:r2=0)
`)
	return t
}

// SBGlobal is the plain inter-CTA store-buffering test on global memory
// used in Table 6.
func SBGlobal() *Test {
	return NewTest("sb").
		Doc("store buffering, inter-CTA, global memory (Table 6)").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", "ld.cg r1,[y]").
		Thread("st.cg [y],1", "ld.cg r2,[x]").
		InterCTA().
		Exists("0:r1=0 /\\ 1:r2=0").
		MustBuild()
}

// MP is the classic message-passing test, inter-CTA, global memory, with
// an optional fence on both sides (Table 6 and the AMD experiments of
// Sec. 3.1.2).
func MP(f Fence) *Test {
	name := "mp"
	if f != NoFence {
		name += "+" + string(f) + "s"
	}
	return NewTest(name).
		Doc("message passing, inter-CTA, global memory").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1", string(f), "st.cg [y],1").
		Thread("ld.cg r1,[y]", string(f), "ld.cg r2,[x]").
		InterCTA().
		Exists("1:r1=1 /\\ 1:r2=0").
		MustBuild()
}

// LB is the classic load-buffering test, inter-CTA, global memory, with an
// optional fence between each thread's load and store (Table 6; with
// FenceCTA this is the lb+membar.ctas test that refutes the operational
// model of Sorensen et al., Sec. 6).
func LB(f Fence) *Test {
	name := "lb"
	if f != NoFence {
		name += "+" + string(f) + "s"
	}
	return NewTest(name).
		Doc("load buffering, inter-CTA, global memory").
		Global("x", 0).Global("y", 0).
		Thread("ld.cg r1,[x]", string(f), "st.cg [y],1").
		Thread("ld.cg r2,[y]", string(f), "st.cg [x],1").
		InterCTA().
		Exists("0:r1=1 /\\ 1:r2=1").
		MustBuild()
}

// paperTests constructs the tests of the paper's figures, in figure order:
// one constructor per test, so a named test is built alone.
var paperTests = []func() *Test{
	CoRR,
	func() *Test { return MPL1(NoFence) },
	func() *Test { return MPL1(FenceCTA) },
	func() *Test { return MPL1(FenceGL) },
	func() *Test { return MPL1(FenceSys) },
	func() *Test { return CoRRL2L1(NoFence) },
	func() *Test { return CoRRL2L1(FenceCTA) },
	func() *Test { return CoRRL2L1(FenceGL) },
	func() *Test { return CoRRL2L1(FenceSys) },
	MPVolatile,
	func() *Test { return DlbMP(false) },
	func() *Test { return DlbMP(true) },
	func() *Test { return DlbLB(false) },
	func() *Test { return DlbLB(true) },
	func() *Test { return CasSL(false) },
	func() *Test { return CasSL(true) },
	func() *Test { return SlFuture(false) },
	func() *Test { return SlFuture(true) },
	SB,
	SBGlobal,
	func() *Test { return MP(NoFence) },
	func() *Test { return MP(FenceGL) },
	func() *Test { return LB(NoFence) },
	func() *Test { return LB(FenceCTA) },
}

// paperNames lists the paper tests' names in figure order, with each name's
// first index, built once from the constructor table.
var paperNames = sync.OnceValues(func() ([]string, map[string]int) {
	names := make([]string, len(paperTests))
	index := make(map[string]int, len(paperTests))
	for i, build := range paperTests {
		names[i] = build().Name
		if _, dup := index[names[i]]; !dup {
			index[names[i]] = i
		}
	}
	return names, index
})

// ByName returns the paper test with the given name (as printed by each
// test's header), e.g. "coRR", "mp-L1+membar.gls" or "cas-sl". It builds
// only the named test; each call returns a fresh value.
func ByName(name string) (*Test, error) {
	names, index := paperNames()
	if i, ok := index[name]; ok {
		return paperTests[i](), nil
	}
	return nil, fmt.Errorf("litmus: unknown test %q (known: %v)", name, names)
}

// PaperTests returns every litmus test that appears in the paper's figures,
// in figure order, for exercising parsers, the simulator and the model.
func PaperTests() []*Test {
	ts := make([]*Test, len(paperTests))
	for i, build := range paperTests {
		ts[i] = build()
	}
	return ts
}
