package harness

import (
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// enumerableCorpus is the paper tests and the 776 diy cycles of up to
// four edges: the tests whose candidate executions campaigns analyse.
func enumerableCorpus(t *testing.T) []*litmus.Test {
	t.Helper()
	tests := litmus.PaperTests()
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	if len(gen) != 776 {
		t.Fatalf("diy generated %d cycles, want 776", len(gen))
	}
	for _, g := range gen {
		tests = append(tests, g.Test)
	}
	return tests
}

// checkKey fails unless fp, which the layout rendered, reads back and is
// starred as the oracle stars it.
func checkKey(t *testing.T, test *litmus.Test, l *Layout, fp string) {
	t.Helper()
	st := newKeyState(l)
	if !st.read(fp) {
		t.Fatalf("%s: rendered %q does not read back", test.Name, fp)
	}
	if got, want := test.Exists.Eval(st), oracleStars(test, fp); got != want {
		t.Fatalf("%s: %q starred %v, oracle %v", test.Name, fp, got, want)
	}
}

// TestLayoutMatchesOracle is the layout's differential against the
// fmt-based fingerprint and reader it replaced, over the enumerable
// corpus, 120 random tests and the guarded-register test: every simulated
// final state renders as the oracle renders it, harness.Run's histogram
// is the oracle's per-iteration histogram, every key reads back and is
// starred as the oracle stars it, and String is the oracle's rendering.
// The final state of every candidate execution of the enumerable corpus
// renders and reads back the same way.
func TestLayoutMatchesOracle(t *testing.T) {
	runs := 30
	if testing.Short() {
		runs = 8
	}
	enumerable := enumerableCorpus(t)
	tests := append(append(enumerable, litmustest.Corpus(120)...), guardedRegTest())
	for ti, test := range tests {
		l := NewLayout(test)
		cfg := Config{Chip: chip.GTXTitan, Incant: paperIncant(test), Runs: runs, Seed: int64(ti) * 31, Parallelism: 2}
		o, err := Run(test, cfg)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		ref := &Outcome{Test: test, Config: cfg, Histogram: make(map[string]int), Runs: runs}
		for i := 0; i < runs; i++ {
			res, err := sim.Run(test, cfg.Chip, cfg.Incant, cfg.Seed+int64(i))
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			fp := oracleFingerprint(test, res.State)
			if got := Fingerprint(test, res.State); got != fp {
				t.Fatalf("%s: fingerprint %q, oracle %q", test.Name, got, fp)
			}
			ref.Histogram[fp]++
			if test.Exists.Eval(res.State) {
				ref.Matches++
			}
		}
		if o.Matches != ref.Matches || len(o.Histogram) != len(ref.Histogram) {
			t.Fatalf("%s: %d matches over %d keys, oracle %d over %d", test.Name, o.Matches, len(o.Histogram), ref.Matches, len(ref.Histogram))
		}
		for k, n := range ref.Histogram {
			if o.Histogram[k] != n {
				t.Fatalf("%s: %q counted %d, oracle %d", test.Name, k, o.Histogram[k], n)
			}
			checkKey(t, test, l, k)
		}
		if got, want := o.String(), oracleString(o); got != want {
			t.Fatalf("%s: String\n%s\noracle\n%s", test.Name, got, want)
		}
	}
	for _, test := range enumerable {
		l := NewLayout(test)
		xs, err := axiom.Enumerate(test, axiom.DefaultOpts())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, x := range xs {
			fp := oracleFingerprint(test, x.Final)
			if got := string(l.AppendFingerprint(nil, x.Final)); got != fp {
				t.Fatalf("%s: candidate fingerprint %q, oracle %q", test.Name, got, fp)
			}
			checkKey(t, test, l, fp)
		}
	}
}

// TestLayoutSlotOrder pins the register order to sort.Strings over the
// "t:r=v" parts, which is the order of "t:r=", not of "t:r": 0:r10 comes
// before 0:r1, and threads order by their decimal rendering.
func TestLayoutSlotOrder(t *testing.T) {
	test := litmus.NewTest("order").
		Global("x", 0).Global("y", 0).
		Thread("ld.cg r1,[x]", "ld.cg r10,[y]", "ld.cg r2,[x]").
		Thread("st.cg [x],1", "st.cg [y],1").
		InterCTA().
		Exists("0:r1=1 /\\ 0:r2=0 /\\ 0:r10=1 /\\ 0:r1=0").
		MustBuild()
	s := litmus.NewMapState()
	s.SetReg(0, "r1", 1)
	s.SetReg(0, "r10", 7)
	s.SetMem("x", 1)
	const want = "0:r10=7 0:r1=1 0:r2=0 x=1 y=0"
	if got := Fingerprint(test, s); got != want || oracleFingerprint(test, s) != want {
		t.Errorf("fingerprint %q, oracle %q, want %q", got, oracleFingerprint(test, s), want)
	}
}

// FuzzReadKey drives the layout's reader with arbitrary histogram keys,
// as POST /v1/object and peers can deliver them, under the paper tests'
// layouts: it never panics, a key it accepts renders back byte for byte,
// it accepts exactly the keys the oracle reads back to themselves, and on
// those it stars as the oracle does.
func FuzzReadKey(f *testing.F) {
	tests := litmus.PaperTests()
	for i, test := range tests {
		o, err := Run(test, Config{Chip: chip.GTXTitan, Incant: paperIncant(test), Runs: 20, Seed: int64(i), Parallelism: 1})
		if err != nil {
			f.Fatal(err)
		}
		for k := range o.Histogram {
			f.Add(uint8(i), k)
		}
	}
	f.Add(uint8(0), "")
	f.Add(uint8(1), "1:r1=+1 1:r2=0 x=1 y=1")
	f.Add(uint8(1), "1:r1=01 1:r2=0 x=1 y=1")
	f.Add(uint8(1), "1:r1=1  1:r2=0 x=1 y=1")
	f.Add(uint8(1), "1:r1=-0 1:r2=0 x=1 y=1")
	f.Add(uint8(1), "1:r1=1 1:r2=0 x=1 y=1 ")
	f.Add(uint8(1), "1:r1=1 1:r2=0 x=1")
	f.Fuzz(func(t *testing.T, ti uint8, key string) {
		test := tests[int(ti)%len(tests)]
		st := newKeyState(NewLayout(test))
		ok := st.read(key)
		if ok {
			if back := string(st.l.AppendFingerprint(nil, st)); back != key {
				t.Fatalf("%s: accepted %q renders back as %q", test.Name, key, back)
			}
		}
		s, err := parseFingerprint(key)
		canonical := err == nil && oracleFingerprint(test, s) == key
		if ok != canonical {
			t.Fatalf("%s: %q accepted %v, oracle reads it back to itself %v", test.Name, key, ok, canonical)
		}
		if got, want := ok && test.Exists.Eval(st), ok && test.Exists.Eval(s); got != want {
			t.Fatalf("%s: %q starred %v, oracle %v", test.Name, key, got, want)
		}
	})
}
