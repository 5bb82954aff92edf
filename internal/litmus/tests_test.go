package litmus

import (
	"testing"
)

// TestByNameMatchesPaperTests pins ByName's one-constructor build against
// the full table: every paper test comes back with the same text and the
// same fingerprint.
func TestByNameMatchesPaperTests(t *testing.T) {
	for _, want := range PaperTests() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.Name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: ByName text differs from PaperTests:\n%s\nvs\n%s", want.Name, got, want)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: ByName fingerprint differs from PaperTests", want.Name)
		}
	}
}

// TestByNameFresh pins that ByName returns a new value per call: Test is
// mutable, so a caller's edits must not reach the next caller.
func TestByNameFresh(t *testing.T) {
	pristine := MP(NoFence).String()
	a, err := ByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two ByName calls returned the same pointer")
	}
	a.Name = "mutated"
	a.MemInit["x"] = 7
	a.Threads[1].Prog = a.Threads[1].Prog[:1]
	a.Threads[0].Prog[0] = a.Threads[1].Prog[0]
	for _, u := range []*Test{b, mustByName(t, "mp")} {
		if u.String() != pristine {
			t.Errorf("a mutation leaked into another ByName value:\n%s", u)
		}
	}
}

func mustByName(t *testing.T, name string) *Test {
	t.Helper()
	u, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestByNameUnknown pins the unknown-name error text, list of known names
// included.
func TestByNameUnknown(t *testing.T) {
	_, err := ByName("nope")
	const want = `litmus: unknown test "nope" (known: [coRR mp-L1 mp-L1+membar.ctas mp-L1+membar.gls mp-L1+membar.syss ` +
		`coRR-L2-L1 coRR-L2-L1+membar.cta coRR-L2-L1+membar.gl coRR-L2-L1+membar.sys mp-volatile ` +
		`dlb-mp dlb-mp+membar.gls dlb-lb dlb-lb+membar.gls cas-sl cas-sl+membar.gls sl-future sl-future+fixed ` +
		`SB sb mp mp+membar.gls lb lb+membar.ctas])`
	if err == nil || err.Error() != want {
		t.Errorf("ByName(nope) error:\n%v\nwant:\n%s", err, want)
	}
}

// TestByNameBuildsOneTest bounds a warm ByName's allocations: it builds the
// named test alone, not all of the paper's tests (2,250 allocations for
// coRR when it built the whole table).
func TestByNameBuildsOneTest(t *testing.T) {
	if _, err := ByName("coRR"); err != nil { // build the name index
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ByName("coRR"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 200 {
		t.Errorf("ByName(coRR) allocates %.0f times per call, want < 200", allocs)
	}
}
