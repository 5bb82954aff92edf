package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

func TestRunBasics(t *testing.T) {
	o, err := Run(litmus.MP(litmus.NoFence), Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Runs != 2000 {
		t.Errorf("Runs = %d", o.Runs)
	}
	if !o.Observed() {
		t.Error("mp must be observed on Titan under stress")
	}
	total := 0
	for _, c := range o.Histogram {
		total += c
	}
	if total != o.Runs {
		t.Errorf("histogram total %d != runs %d", total, o.Runs)
	}
	if o.Per100k() <= 0 || o.Rate() <= 0 {
		t.Error("rates must be positive when observed")
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	test := litmus.SBGlobal()
	a, err := Run(test, Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 1000, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(test, Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 1000, Seed: 7, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matches != b.Matches {
		t.Errorf("parallelism changed results: %d vs %d", a.Matches, b.Matches)
	}
	for k, v := range a.Histogram {
		if b.Histogram[k] != v {
			t.Errorf("histogram differs at %q: %d vs %d", k, v, b.Histogram[k])
		}
	}
}

// TestSeedIndependencePin regression-pins the documented contract of Run
// ("Iterations are deterministic in cfg.Seed and independent of
// parallelism", harness.go): for several tests, the full outcome —
// histogram, matches, and rendered form — is identical at every worker
// count. The campaign engine's own determinism guarantee is built on this
// property, so it must never regress.
func TestSeedIndependencePin(t *testing.T) {
	tests := []*litmus.Test{litmus.MP(litmus.NoFence), litmus.CoRR(), litmus.LB(litmus.NoFence)}
	for _, test := range tests {
		var ref *Outcome
		for _, par := range []int{1, 2, 3, 8} {
			o, err := Run(test, Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 1200, Seed: 99, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = o
				continue
			}
			if o.Matches != ref.Matches {
				t.Errorf("%s: parallelism %d changed matches: %d vs %d", test.Name, par, o.Matches, ref.Matches)
			}
			if len(o.Histogram) != len(ref.Histogram) {
				t.Errorf("%s: parallelism %d changed histogram size", test.Name, par)
			}
			for k, v := range ref.Histogram {
				if o.Histogram[k] != v {
					t.Errorf("%s: parallelism %d histogram differs at %q: %d vs %d", test.Name, par, k, o.Histogram[k], v)
				}
			}
			if o.String() != ref.String() {
				t.Errorf("%s: parallelism %d changed rendered outcome", test.Name, par)
			}
		}
	}
}

func TestNeverOnStrongChip(t *testing.T) {
	o, err := Run(litmus.CoRR(), Config{Chip: chip.GTX280, Incant: chip.Default(), Runs: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o.Observed() {
		t.Errorf("GTX 280 observed coRR %d times", o.Matches)
	}
	if !strings.Contains(o.String(), "Observation coRR Never") {
		t.Errorf("String: %s", o)
	}
}

func TestStringHistogram(t *testing.T) {
	o, err := Run(litmus.MP(litmus.NoFence), Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 1500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := o.String()
	if !strings.Contains(s, "Histogram") {
		t.Errorf("missing histogram header:\n%s", s)
	}
	if !strings.Contains(s, "*>") {
		t.Errorf("weak state not starred:\n%s", s)
	}
	if !strings.Contains(s, "Observation mp Sometimes") {
		t.Errorf("missing observation line:\n%s", s)
	}
}

// TestFingerprintRoundTrip: a fingerprint the layout renders reads back
// into a key whose values are the state's, and the condition holds on it
// as on the state.
func TestFingerprintRoundTrip(t *testing.T) {
	test := litmus.MP(litmus.NoFence)
	slots := litmus.NewSlots(test)
	s := slots.NewFinal()
	s.Set(s.Slots().Reg(1, "r1"), 1)
	s.Set(s.Slots().Reg(1, "r2"), 0)
	s.Set(s.Slots().Loc("x"), 1)
	s.Set(s.Slots().Loc("y"), 1)
	fp := Fingerprint(test, s)
	re := slots.NewFinal()
	if !NewLayout(test, slots).read(re, fp) {
		t.Fatalf("%q does not read back", fp)
	}
	if v, ok := re.Reg(1, "r1"); !ok || v != 1 {
		t.Errorf("r1 lost: %v %v", v, ok)
	}
	if v, ok := re.Mem("x"); !ok || v != 1 {
		t.Errorf("x lost: %v %v", v, ok)
	}
	if !test.Exists.Eval(re) {
		t.Error("weak state must evaluate true after round trip")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Run(litmus.MP(litmus.NoFence), Config{}); err == nil {
		t.Error("missing chip must error")
	}
}

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, litmus.CoRR(), Config{Chip: chip.GTXTitan, Runs: 100000, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Background ctx matches Run exactly.
	a, err := Run(litmus.CoRR(), Config{Chip: chip.GTXTitan, Runs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), litmus.CoRR(), Config{Chip: chip.GTXTitan, Runs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("RunCtx with background context must match Run byte for byte")
	}
}
