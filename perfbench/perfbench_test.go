package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload to a smoke-test size.
func tinySizes() sizes {
	return sizes{
		setupReps:     2,
		warmRuns:      5,
		figRuns:       5,
		judgeSample:   20,
		judgeTwinPct:  10,
		largeMaxExtra: 2,
		symWriters:    3,
		daemonScript:  300,
		daemonRuns:    5,
		probeIters:    20,
	}
}

func tinyEnv(t *testing.T, traced bool) *env {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return &env{
		ctx:    ctx,
		seed:   7,
		window: 300 * time.Millisecond,
		trace:  traced,
		tmp:    t.TempDir(),
		sz:     tinySizes(),
		out:    io.Discard,
		log:    io.Discard,
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json's workloads and
// metric lists to the ones the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []struct{ name, unit string }) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestWorkloadsReportEveryMetric runs every workload at a tiny size,
// untraced and traced, and checks that it reports every metric of its mode
// with no failed operation.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name, runner := range workloads {
		for _, traced := range []bool{false, true} {
			e := tinyEnv(t, traced)
			rep, err := runner(e)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			rep.finish(traced)
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d: %v", name, traced, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", name, traced, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s (traced=%v): metric %s missing or in the wrong unit: %+v", name, traced, m.name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestSeedsGenerateInputs checks that the seed alone decides each
// workload's generated inputs: equal seeds give equal digests, different
// seeds different ones.
func TestSeedsGenerateInputs(t *testing.T) {
	sz := tinySizes()
	gens := map[string]func(seed int64) string{
		"judge":       func(seed int64) string { return corpusDigest(judgeCorpus(seed, sz)) },
		"judge-large": func(seed int64) string { return shapesDigest(largeShapes(seed, sz)) },
		"daemon":      func(seed int64) string { return newScript(seed, sz).digest() },
	}
	// The figures workload's input is its seed; its round-0 histogram
	// digest must be a function of the seed alone.
	gens["figures"] = func(seed int64) string {
		var out strings.Builder
		e := tinyEnv(t, false)
		e.seed, e.out = seed, &out
		if _, err := runFigures(e); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "figures.histograms") {
				return l
			}
		}
		t.Fatal("no figures.histograms line")
		return ""
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if a != b {
			t.Errorf("%s: seed 1 generated two different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

// TestResultLine checks the command line: a bad workload is refused
// without a result, and a run ends with one JSON result line.
func TestResultLine(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	out.Reset()
	if code := run([]string{"--workload", "judge-large", "--seed", "3", "--seconds", "0.2"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	entries, err := os.ReadDir(dir + "/.bench_build")
	if err != nil || len(entries) != 0 {
		t.Errorf("temporary directory left behind: %v %v", entries, err)
	}
}

// TestSpansFile checks the --spans dump: every span names a parent that
// encloses it on the same track, or none.
func TestSpansFile(t *testing.T) {
	e := tinyEnv(t, true)
	e.spans = t.TempDir() + "/spans.jsonl"
	if _, err := runJudge(e); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(e.spans)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		Track, Index, Parent int
		Name                 string
		Start                int64 `json:"start_ns"`
		End                  int64 `json:"end_ns"`
	}
	byTrack := map[int][]span{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sp span
		if err := json.Unmarshal([]byte(l), &sp); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		byTrack[sp.Track] = append(byTrack[sp.Track], sp)
	}
	if len(byTrack) == 0 {
		t.Fatal("no spans written")
	}
	for _, spans := range byTrack {
		for _, sp := range spans {
			if sp.Parent < 0 {
				continue
			}
			p := spans[sp.Parent]
			if p.Start > sp.Start || p.End < sp.End || sp.Parent <= sp.Index {
				t.Fatalf("span %+v does not lie inside its parent %+v", sp, p)
			}
		}
	}
}
