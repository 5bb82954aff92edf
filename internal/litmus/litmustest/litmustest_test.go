package litmustest

import (
	"slices"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// TestCorpusPinned pins the corpus the differentials share: its sizes,
// names unique across All, Random(600) and LongPath, distinct content
// within each hand-written sub-corpus, and the -short sample of the diy
// cycles.
func TestCorpusPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		tests []*litmus.Test
		want  int
	}{
		{"Paper", Paper(), 24},
		{"Cycles", Cycles(), 776},
		{"Random(600)", Random(600), 600},
		{"Producer", Producer(), 4},
		{"Symmetric", Symmetric(), 16},
		{"Blind", Blind(), 12},
		{"Apps", Apps(), 6},
	} {
		if len(c.tests) != c.want {
			t.Errorf("%s has %d tests, want %d", c.name, len(c.tests), c.want)
		}
	}
	random := Random(600)
	for i, test := range Random(120) {
		if test.String() != random[i].String() {
			t.Errorf("Random(120)[%d] = %s, Random(600)[%d] = %s", i, test.Name, i, random[i].Name)
		}
	}

	for _, c := range []struct {
		name  string
		tests []*litmus.Test
	}{{"Producer", Producer()}, {"Symmetric", Symmetric()}, {"Blind", Blind()}} {
		seen := make(map[string]string)
		for _, test := range c.tests {
			fp := test.Fingerprint()
			if prev, ok := seen[fp]; ok {
				t.Errorf("%s: %s has the content of %s", c.name, test.Name, prev)
			}
			seen[fp] = test.Name
		}
	}

	names := make(map[string]bool)
	for _, test := range slices.Concat(All(), Random(600)[120:], []*litmus.Test{LongPath()}) {
		if names[test.Name] {
			t.Errorf("two tests are named %s", test.Name)
		}
		names[test.Name] = true
	}

	want := 776
	if testing.Short() {
		want = 149
	}
	if n := len(Diy(t)); n != want {
		t.Errorf("Diy has %d cycles, want %d", n, want)
	}
	if n := len(All()); n != 24+776+120+4+16+12+6 {
		t.Errorf("All has %d tests", n)
	}
}
