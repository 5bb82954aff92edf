package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// soundnessProfiles are the most relaxed simulated chips.
var soundnessProfiles = []*chip.Profile{chip.TeslaC2075, chip.GTXTitan, chip.HD7970}

// TestSimulatorSoundness is the Sec. 5.4 property scaled down: every final
// state the simulator produces for a model-covered test must be the final
// state of some model-allowed candidate execution. It runs each covered
// paper test and hand-written shape on the most relaxed profiles.
func TestSimulatorSoundness(t *testing.T) {
	litmustest.Run(t, slices.Concat(litmustest.Paper(), litmustest.Shapes()), checkSimulatorSound)
}

// TestSimulatorSoundnessDiyCorpus widens the Sec. 5.4 property to the
// diy cycles of litmustest.Diy.
func TestSimulatorSoundnessDiyCorpus(t *testing.T) {
	litmustest.Run(t, litmustest.Diy(t), checkSimulatorSound)
}

// checkSimulatorSound runs a model-covered test for 400 seeds on each
// soundness profile, on one compiled machine per profile, and fails on the
// first final state no PTX-allowed execution reaches.
func checkSimulatorSound(t *testing.T, test *litmus.Test) {
	t.Helper()
	if ok, _ := Covers(test); !ok {
		return
	}
	execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
	if err != nil {
		t.Fatalf("%s: %v", test.Name, err)
	}
	m := PTX()
	allowed := make(map[string]bool)
	for _, x := range execs {
		if m.prog.RunExec(x, nil).Allowed() {
			allowed[stateKey(test, x.Final)] = true
		}
	}
	for _, p := range soundnessProfiles {
		c, err := sim.Compile(test, litmus.NewSlots(test), p, chip.Default())
		if err != nil {
			t.Fatalf("%s on %s: %v", test.Name, p.ShortName, err)
		}
		mach := c.NewMachine()
		for i := 0; i < 400; i++ {
			if _, err := mach.Run(int64(i)*31 + 7); err != nil {
				t.Fatalf("%s on %s: %v", test.Name, p.ShortName, err)
			}
			if key := stateKey(test, mach.Final()); !allowed[key] {
				t.Errorf("%s on %s seed %d: simulator state %s not allowed by the model", test.Name, p.ShortName, i, key)
				break
			}
		}
	}
}

// stateKey projects a final state onto the registers read by the test's
// condition atoms plus final memory, giving a comparable fingerprint.
func stateKey(test *litmus.Test, s litmus.State) string {
	key := ""
	for _, a := range litmus.CondAtoms(test.Exists) {
		switch at := a.(type) {
		case litmus.RegEq:
			v, _ := s.Reg(at.Thread, at.Reg)
			key += fmt.Sprintf("%d:%s=%d;", at.Thread, at.Reg, v)
		case litmus.MemEq:
			v, _ := s.Mem(at.Loc)
			key += fmt.Sprintf("%s=%d;", at.Loc, v)
		}
	}
	for _, loc := range test.Locations() {
		v, _ := s.Mem(loc)
		key += fmt.Sprintf("%s=%d;", loc, v)
	}
	return key
}
