package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample is a module with one deliberate violation per critical-function
// kind, one sorted exemption, one ignore-directive exemption, and one
// range in a non-critical function that must not be flagged.
const sample = `package sample

import (
	"fmt"
	"sort"
)

type T struct{ m map[string]int }

func (t T) String() string {
	s := ""
	for k, v := range t.m { // finding: String method
		s += fmt.Sprintf("%s=%d;", k, v)
	}
	return s
}

func Fingerprint(m map[string]int) string {
	out := ""
	for k := range m { // finding: fingerprint path
		out += k
	}
	return out
}

func Canonical(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func renderCount(m map[string]bool) int {
	n := 0
	//detmap:ignore
	for range m {
		n++
	}
	return n
}

func irrelevant(m map[string]int) int {
	x := 0
	for _, v := range m {
		x += v
	}
	return x
}

func buildCondition(m map[string]int) []string {
	var out []string
	for k := range m { // finding: test generation path
		out = append(out, k)
	}
	return out
}

func synthesizeRepair(m map[string]int) string {
	out := ""
	for k := range m { // finding: repair path
		out += k
	}
	return out
}
`

func TestCheckFindsMapRangesInCriticalFuncs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module sample\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sample.go"), []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	findings, err := check([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want 4:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	var hasString, hasFingerprint, hasRepair, hasBuild bool
	for _, f := range findings {
		if strings.Contains(f, "func String") {
			hasString = true
		}
		if strings.Contains(f, "func Fingerprint") {
			hasFingerprint = true
		}
		if strings.Contains(f, "func synthesizeRepair") {
			hasRepair = true
		}
		if strings.Contains(f, "func buildCondition") {
			hasBuild = true
		}
		if strings.Contains(f, "Canonical") || strings.Contains(f, "renderCount") || strings.Contains(f, "irrelevant") {
			t.Errorf("exempt or non-critical function flagged: %s", f)
		}
	}
	if !hasString || !hasFingerprint || !hasRepair || !hasBuild {
		t.Errorf("missing expected findings (String %v, Fingerprint %v, synthesizeRepair %v, buildCondition %v):\n%s",
			hasString, hasFingerprint, hasRepair, hasBuild, strings.Join(findings, "\n"))
	}
}

// TestCheckCleanOnThisModule pins the repo itself clean: the CI step
// `go run ./ci/detmap ./...` must stay green.
func TestCheckCleanOnThisModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	// go test runs in this package's directory; reach the module root.
	findings, err := check([]string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("module has detmap findings:\n%s", strings.Join(findings, "\n"))
	}
}
