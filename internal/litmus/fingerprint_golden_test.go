package litmus_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// TestFingerprintGolden pins every Test.Fingerprint value the service's
// cache keys and store records are built from: a sha256 over the
// fingerprints of the paper corpus and the 776 diy cycles of up to four
// edges, each followed by the fingerprint of its Parse(String()) round
// trip. The literal must only change with a deliberate change of the
// canonical form.
func TestFingerprintGolden(t *testing.T) {
	const want = "57229b7f9001939a350a4a5ddb1b5dde4ce3ec73141f9b49291b0d852a224d75"
	corpus := slices.Concat(litmustest.Paper(), litmustest.Cycles())
	h := sha256.New()
	for _, c := range corpus {
		back, err := litmus.Parse(c.String())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", c.Fingerprint(), back.Fingerprint())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("fingerprint corpus digest = %s, want %s", got, want)
	}
}
