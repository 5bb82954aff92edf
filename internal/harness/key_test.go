package harness

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// guardedRegTest writes its condition register only behind a predicate and
// leaves it undeclared, so the register is absent in some final states and
// 0 in others: both render as "1:r1=0" in the fingerprint, but only the
// second satisfies the condition.
func guardedRegTest() *litmus.Test {
	test := litmus.NewTest("guarded-reg").
		Global("x", 0).Global("y", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r0,[x]", "setp.eq p1,r0,1", "@p1 ld.cg r1,[y]").
		InterCTA().
		Exists("1:r1=0").
		MustBuild()
	decls := test.Decls[:0]
	for _, d := range test.Decls {
		if d.Reg != "r1" {
			decls = append(decls, d)
		}
	}
	test.Decls = decls
	return test
}

// referenceRun is harness.Run written as the plain per-iteration loop:
// sim.Run, then the oracle fingerprint and the condition on every final
// state.
func referenceRun(t *testing.T, test *litmus.Test, cfg Config) *Outcome {
	t.Helper()
	out := &Outcome{Test: test, Config: cfg, Histogram: make(map[string]int), Runs: cfg.Runs}
	for i := 0; i < cfg.Runs; i++ {
		res, err := sim.Run(test, cfg.Chip, cfg.Incant, cfg.Seed+int64(i))
		if err != nil {
			t.Fatalf("%s on %s: %v", test.Name, cfg.Chip.ShortName, err)
		}
		out.Histogram[oracleFingerprint(test, res.State)]++
		if test.Exists.Eval(res.State) {
			out.Matches++
		}
	}
	return out
}

// TestKeyedHistogramMatchesReference checks the integer-keyed histogram
// against the per-iteration fingerprint loop over the digest corpus and
// the guarded-register test, at several worker counts.
func TestKeyedHistogramMatchesReference(t *testing.T) {
	cells := append(digestCorpus(), digestCell{guardedRegTest(), chip.GTXTitan, chip.Default()})
	runs := 60
	if testing.Short() {
		runs = 20
	}
	for ci, c := range cells {
		cfg := Config{Chip: c.chip, Incant: c.inc, Runs: runs, Seed: int64(ci) * 7_919}
		ref := referenceRun(t, c.test, cfg)
		for _, par := range []int{1, 2, 3} {
			cfg.Parallelism = par
			o, err := Run(c.test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o.Matches != ref.Matches || len(o.Histogram) != len(ref.Histogram) {
				t.Fatalf("%s on %s at parallelism %d: %d matches over %d states, reference %d over %d",
					c.test.Name, c.chip.ShortName, par, o.Matches, len(o.Histogram), ref.Matches, len(ref.Histogram))
			}
			for k, v := range ref.Histogram {
				if o.Histogram[k] != v {
					t.Fatalf("%s on %s at parallelism %d: %q counted %d, reference %d", c.test.Name, c.chip.ShortName, par, k, o.Histogram[k], v)
				}
			}
			if o.String() != oracleString(ref) {
				t.Fatalf("%s on %s at parallelism %d: rendered outcome differs", c.test.Name, c.chip.ShortName, par)
			}
		}
	}
}

// TestAbsentRegisterIsNotZero pins that the key tells an unwritten
// register from one holding 0: the guarded-register test must see both,
// merged under one fingerprint, with only the written ones matching.
func TestAbsentRegisterIsNotZero(t *testing.T) {
	test := guardedRegTest()
	o, err := Run(test, Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 400, Seed: 5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.Matches == 0 || o.Matches == o.Runs {
		t.Fatalf("want some runs with 1:r1 written and some without, got %d of %d matching", o.Matches, o.Runs)
	}
	absent := 0
	for k, n := range o.Histogram {
		if k == "1:r1=0 x=1 y=0" {
			absent = n
		}
	}
	if absent <= o.Matches {
		t.Errorf("fingerprint %q counts %d runs, want the %d matching runs plus the unwritten ones", "1:r1=0 x=1 y=0", absent, o.Matches)
	}
}

// TestRunAllocations is the allocation gate of the harness loop: after
// compiling the test, building its layout and allocating one machine,
// iterations allocate nothing, and each distinct key costs its string, its
// counter and its fingerprint. A 2000-run cell of mp made 202 allocations when every
// key was decoded into a map-backed state; with the layout it makes 84.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	const runs, limit = 2000, 100
	test := litmus.MP(litmus.NoFence)
	cfg := Config{Chip: chip.GTXTitan, Incant: chip.Default(), Runs: runs, Seed: 1, Parallelism: 1}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(test, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("harness.Run of %d iterations allocates %.0f objects, want at most %d", runs, allocs, limit)
	}
	t.Logf("%.0f allocations for %d iterations", allocs, runs)
}

// TestStringAllocations gates Outcome.String on mp's four-key histogram:
// one layout reads every key back without a map-backed state. It makes 25
// allocations; the fmt-based reader made 145.
func TestStringAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race instrumentation")
	}
	const limit = 35
	o := &Outcome{Test: litmus.MP(litmus.NoFence), Config: Config{Chip: chip.GTXTitan, Incant: chip.Default()}, Runs: 100, Matches: 3,
		Histogram: map[string]int{"1:r1=0 1:r2=0 x=1 y=1": 40, "1:r1=0 1:r2=1 x=1 y=1": 7, "1:r1=1 1:r2=0 x=1 y=1": 3, "1:r1=1 1:r2=1 x=1 y=1": 50}}
	if !strings.Contains(o.String(), "3        *> 1:r1=1 1:r2=0 x=1 y=1\n") {
		t.Fatalf("weak state not starred:\n%s", o)
	}
	allocs := testing.AllocsPerRun(20, func() { _ = o.String() })
	if allocs > limit {
		t.Errorf("Outcome.String of %d keys allocates %.0f objects, want at most %d", len(o.Histogram), allocs, limit)
	}
	t.Logf("%.0f allocations for %d keys", allocs, len(o.Histogram))
}
