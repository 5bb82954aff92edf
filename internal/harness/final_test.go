package harness

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/ptx"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// stateNames lists every name a final state of t can hold, thread by
// thread: the registers a thread declares, names in its program or the
// condition gives it, sorted; then t.Locations().
func stateNames(t *litmus.Test) ([][]ptx.Reg, []ptx.Sym) {
	regs := make([][]ptx.Reg, len(t.Threads))
	for tid, th := range t.Threads {
		regs[tid] = append(regs[tid], t.DeclaredRegs(tid)...)
		for _, inst := range th.Prog {
			if d, ok := ptx.DstOf(inst); ok {
				regs[tid] = append(regs[tid], d)
			}
			regs[tid] = append(regs[tid], ptx.SrcRegs(inst)...)
		}
	}
	for _, a := range litmus.CondAtoms(t.Exists) {
		if ra, ok := a.(litmus.RegEq); ok && ra.Thread >= 0 && ra.Thread < len(regs) {
			regs[ra.Thread] = append(regs[ra.Thread], ra.Reg)
		}
	}
	for tid := range regs {
		slices.Sort(regs[tid])
		regs[tid] = slices.Compact(regs[tid])
	}
	return regs, t.Locations()
}

// hashState writes every register and location of s by name, with its
// presence, to h.
func hashState(h hash.Hash, regs [][]ptx.Reg, locs []ptx.Sym, s litmus.State) {
	for tid, rs := range regs {
		for _, r := range rs {
			v, ok := s.Reg(tid, r)
			fmt.Fprintf(h, "%d:%s=%d/%t ", tid, r, v, ok)
		}
	}
	for _, loc := range locs {
		v, ok := s.Mem(loc)
		fmt.Fprintf(h, "%s=%d/%t ", loc, v, ok)
	}
	h.Write([]byte{'\n'})
}

// finalStateDigest hashes the whole final state, every register and
// location by name with its presence, of sim.Run at fixed seeds over the
// paper tests, 120 random tests and the guarded-register test, and of
// every candidate execution of the enumerable corpus.
func finalStateDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	simTests := append(append(litmustest.Paper(), litmustest.Random(120)...), guardedRegTest())
	for ti, test := range simTests {
		regs, locs := stateNames(test)
		for i := 0; i < 8; i++ {
			res, err := sim.Run(test, chip.GTXTitan, paperIncant(test), int64(ti)*101+int64(i))
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			fmt.Fprintf(h, "sim %s %d: ", test.Name, i)
			hashState(h, regs, locs, res.State)
		}
	}
	for _, test := range slices.Concat(litmustest.Paper(), litmustest.Cycles()) {
		regs, locs := stateNames(test)
		xs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for i, x := range xs {
			fmt.Fprintf(h, "axiom %s %d: ", test.Name, i)
			hashState(h, regs, locs, x.Final)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFinalStateDigest pins whole final states, not only their observable
// slots (TestLayoutMatchesOracle): the registers outside the condition,
// absent ones included, of the simulator and of the enumerator.
func TestFinalStateDigest(t *testing.T) {
	const want = "77ddc7b0b627a13431438a6de21329f62dd589d7618bc341c048a2a217ddfc60"
	if got := finalStateDigest(t); got != want {
		t.Errorf("final-state digest = %s, want %s", got, want)
	}
}
