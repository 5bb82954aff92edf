package litmus_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// fuzzSeeds returns the checked-in FuzzParse regression inputs.
func fuzzSeeds(t *testing.T) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, ok := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		if !ok || !strings.HasSuffix(arg, ")") {
			t.Fatalf("%s: not a one-string fuzz input", f)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		srcs = append(srcs, src)
	}
	if len(srcs) == 0 {
		t.Fatal("no FuzzParse regression inputs")
	}
	return srcs
}

// TestParseMatchesOracle checks Parse against the parser it replaced on
// every paper test and diy cycle, on the canonical rendering of the test
// each of those parses back to, on the checked-in fuzz inputs, and on
// every source that drops one line of a paper test or cuts it short after
// a line: the same error text, or tests equal by String, Fingerprint and
// content.
func TestParseMatchesOracle(t *testing.T) {
	seen := make(map[string]bool)
	var srcs []string
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			srcs = append(srcs, src)
		}
	}
	for _, test := range slices.Concat(litmustest.Paper(), litmustest.Cycles()) {
		src := test.String()
		add(src)
		twin, err := litmus.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		add(twin.String())
	}
	for _, src := range fuzzSeeds(t) {
		add(src)
	}
	for _, test := range litmus.PaperTests() {
		lines := strings.SplitAfter(test.String(), "\n")
		for i := range lines {
			add(strings.Join(lines[:i], ""))
			add(strings.Join(lines[:i], "") + strings.Join(lines[i+1:], ""))
		}
	}
	for _, src := range srcs {
		if err := litmus.DiffOracle(src); err != nil {
			t.Error(err)
		}
	}
}

// TestLocationsMatchesOracle pins Test.Locations against the map-and-sort
// implementation it replaced, on the paper tests and the diy cycles.
func TestLocationsMatchesOracle(t *testing.T) {
	for _, test := range slices.Concat(litmustest.Paper(), litmustest.Cycles()) {
		if got, want := test.Locations(), litmus.LocationsOracle(test); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Locations = %v, want %v", test.Name, got, want)
		}
	}
}

// BenchmarkParse measures Parse over the paper tests' canonical sources
// and reports the allocations of one parse on the paper corpus and on the
// diy corpus. It fails when a paper test averages 60 allocations or more:
// every test the judge and the daemon are sent as text is parsed first.
func BenchmarkParse(b *testing.B) {
	var paper, cycles []string
	for _, t := range litmustest.Paper() {
		paper = append(paper, t.String())
	}
	for _, t := range litmustest.Cycles() {
		cycles = append(cycles, t.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := litmus.Parse(paper[i%len(paper)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perParse := func(srcs []string) float64 {
		return testing.AllocsPerRun(5, func() {
			for _, src := range srcs {
				_, _ = litmus.Parse(src)
			}
		}) / float64(len(srcs))
	}
	perPaper, perCycle := perParse(paper), perParse(cycles)
	b.ReportMetric(perPaper, "allocs/paper-test")
	b.ReportMetric(perCycle, "allocs/diy-cycle")
	if perPaper >= 60 {
		b.Fatalf("Parse allocates %.1f times a paper test, want under 60", perPaper)
	}
}
