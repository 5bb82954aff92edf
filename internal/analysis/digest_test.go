package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// TestAnalysisDigest pins every static answer the analyzer gives on the
// paper corpus, the 776 diy cycles of up to four edges and the §6
// application tests (whose spin loops branch): a sha256 over
// each test's Analyze report as JSON, its Prefilter verdict and reason
// under every policy, and whether /v1/sweep skips it (a Forbidden
// Prefilter under PolicyNone). gpulint, /v1/analyze and the prefilter's
// skips are all built from these answers, so the literal must only change
// with a deliberate change of the analysis.
func TestAnalysisDigest(t *testing.T) {
	const want = "9f10d1c6a228f374f1d3aad1ac657f924b68e26d6c78f68ded4416400c4efccb"
	corpus := slices.Concat(litmustest.Paper(), litmustest.Cycles(), litmustest.Apps())
	h := sha256.New()
	for _, c := range corpus {
		js, err := json.Marshal(Analyze(c))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n", js)
		for _, p := range []Policy{PolicyNone, PolicySC, PolicyFence, PolicyScoped} {
			res := prefilterTest(c, p)
			fmt.Fprintf(h, "%s %s %s\n", p, res.Verdict, res.Reason)
		}
		fmt.Fprintf(h, "unsat %v\n", prefilterTest(c, PolicyNone).Verdict == Forbidden)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("analysis corpus digest = %s, want %s", got, want)
	}
}
