package litmus

import (
	"testing"
)

// FuzzParse throws arbitrary bytes at the litmus parser. The invariants:
// Parse never panics; it agrees with parseOracle, the parser it replaced
// (the same error text, or an equal test); and an accepted source
// round-trips — the canonical String rendering parses again to a test
// with the same fingerprint (content identity) and the same canonical
// rendering (String is a fixed point after one iteration). The corpus
// seeds with every paper test's canonical source, the lenient forms
// TestParseLenientForms pins, and a few deliberately hostile fragments.
func FuzzParse(f *testing.F) {
	for _, t := range PaperTests() {
		f.Add(t.String())
	}
	f.Add("")
	f.Add("GPU_PTX broken\n{}\nP0 @ cta 0;\nexists (1:r1=1)")
	f.Add("GPU_PTX x\n{ x=0; }\nP0 | P1 ;\nld.cg r1,[x] | st.cg [x],1 ;\nexists (0:r1=9999999999999999999)")
	f.Add("GPU_PTX t\n{ [x]=0; }\nP0;\nmembar.sys;\nexists (x=0)")
	for _, c := range lenientCases() {
		f.Add(c.src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if err := diffOracle(src); err != nil {
			t.Fatal(err)
		}
		tst, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		canon := tst.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\nsource:\n%s\ncanonical:\n%s", err, src, canon)
		}
		if again.Fingerprint() != tst.Fingerprint() {
			t.Fatalf("fingerprint changed across round-trip\nsource:\n%s\ncanonical:\n%s", src, canon)
		}
		if again.String() != canon {
			t.Fatalf("String is not a fixed point\nfirst:\n%s\nsecond:\n%s", canon, again.String())
		}
	})
}
