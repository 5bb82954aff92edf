// Command perfbench is the repository's pipeline benchmark. One process runs
// one seeded workload through the public entry points of the testing side
// (experiments, campaign, harness, sim), the judging side (litmus, analysis,
// axiom, cat, core, campaign.Memo) or the daemon (service), checks every
// output it produces, and prints one JSON result line:
//
//	perfbench --workload figures --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation. With --trace 1 the run measures three windows — the
// workload untraced, the benchmark's own drive of the layers' public
// functions, and the same drive with a span around every call — and the
// result carries the per-layer metrics and the tracing overhead. The
// workloads, metrics and the layer map are recorded in design.json.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hardLimit bounds a whole invocation. Work still outstanding when it
// passes is abandoned and counted as failed, so a hang shows up as a
// failed result rather than a process that never exits.
const hardLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload receives: its seed and time budget, a temporary
// directory removed at exit, and the sizes it generates inputs at.
type env struct {
	ctx    context.Context // cancelled at the hard deadline or on interrupt
	seed   int64
	window time.Duration // measured time per run (split into windows when tracing)
	trace  bool
	spans  string // optional span dump path (traced runs only)
	tmp    string
	sz     sizes
	out    io.Writer // informational lines (digests, host record)
	log    io.Writer // diagnostics
}

// sizes fixes how much work each workload generates. The defaults are the
// benchmark; tinySizes is the smoke test's.
type sizes struct {
	setupReps     int // set-ups per run; setup_s is their median
	warmRuns      int // iterations per cell of the figures warm-up
	figRuns       int // iterations per figure cell
	judgeSample   int // diy cycles drawn into the judge corpus
	judgeTwinPct  int // renamed copies in the judge corpus, percent of it
	largeMaxExtra int // extra writer pairs of the largest inflated shape
	symWriters    int // interchangeable writers of the symmetric shape
	daemonScript  int // requests generated for the daemon script
	daemonRuns    int // iterations per /v1/run and per /v1/sweep cell
	probeIters    int // serial iterations of the allocation probes
}

func defaultSizes() sizes {
	return sizes{
		setupReps:     15,
		warmRuns:      200,
		figRuns:       200,
		judgeSample:   400,
		judgeTwinPct:  10,
		largeMaxExtra: 3,
		symWriters:    5,
		daemonScript:  30000,
		daemonRuns:    50,
		probeIters:    500,
	}
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"figures":     runFigures,
	"judge":       runJudge,
	"judge-large": runJudgeLarge,
	"daemon":      runDaemon,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: figures, judge, judge-large or daemon")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "with --trace 1, write every recorded span to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	tmp, err := makeTemp()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	// An interrupted run stops like one past its deadline: outstanding work
	// is abandoned and the temporary directory is still removed.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		ctx:    ctx,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		spans:  *spans,
		tmp:    tmp,
		sz:     defaultSizes(),
		out:    stdout,
		log:    stderr,
	}
	printHost(stdout, *workload, *seed)
	rep, err := runner(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.finish(e.trace)
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", *workload, n)
	}
	if rep.suppressed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d further failures not shown\n", *workload, rep.suppressed)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// makeTemp creates the run's temporary directory under .bench_build in the
// working directory, so the benchmark writes nowhere outside its checkout.
func makeTemp() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	base := filepath.Join(wd, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// report accumulates a workload's operation counts, failures and metrics.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	notes             []string
	suppressed        int
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// fail counts one failed operation and keeps its description (the first
// few are printed; the rest are only counted).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	} else {
		r.suppressed++
	}
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) result() result {
	failed := r.failed
	if failed > r.attempted {
		failed = r.attempted
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
		failed = 1
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// minTailGroup is the fewest operations one tail estimate covers: the
// group's p90 then leaves at least ten samples beyond it.
const minTailGroup = 100

// latency returns the median of samples (milliseconds, in completion
// order) and the tail: the p90 of every group of group consecutive samples
// (at least minTailGroup), median over the groups. A workload whose rounds
// are large enough passes its round size, so every group has the same
// mix of operations; a burst of interference from the host then moves a
// few groups rather than the whole tail.
func (e *env) latency(samples []float64, group int) (p50, tail float64) {
	group = max(group, minTailGroup)
	var tails []float64
	for g := 0; g+group <= len(samples); g += group {
		grp := append([]float64(nil), samples[g:g+group]...)
		sort.Float64s(grp)
		tails = append(tails, percentile(grp, 90))
	}
	all := append([]float64(nil), samples...)
	sort.Float64s(all)
	if len(tails) == 0 {
		tails = []float64{percentile(all, 90)}
	}
	fmt.Fprintf(e.out, "latency samples=%d tail_groups=%d p90=%.4g p99=%.4g p99.9=%.4g\n",
		len(all), len(tails), percentile(all, 90), percentile(all, 99), percentile(all, 99.9))
	return percentile(all, 50), median(tails)
}

// measure is one measured window: wall time, CPU time, heap allocations
// and resident memory (median slice peak and highest slice peak).
type measure struct {
	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	rss     *rssSampler
	elapsed time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	rssMB   float64
	peakMB  float64
}

func startMeasure() *measure {
	m := &measure{rss: startRSS()}
	runtime.ReadMemStats(&m.ms0)
	m.t0, m.cpu0 = time.Now(), cpuTime()
	return m
}

func (m *measure) stop() {
	m.elapsed, m.cpu = time.Since(m.t0), cpuTime()-m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.bytes = ms.Mallocs-m.ms0.Mallocs, ms.TotalAlloc-m.ms0.TotalAlloc
	m.rssMB, m.peakMB = m.rss.finish()
}

// setWindow reports what the measured window gives every workload. The
// end-to-end metrics are the set-up time, the resident memory, and the heap
// allocations and bytes per unit of work. Timings (work per CPU-second,
// the median and tail latency of one operation) go under pipeline.* in
// the traced run and on an informational line: on a shared virtual
// machine the host's speed can drift by a quarter over minutes, which no
// timing within one run can tell apart from a change to the program (see
// design.json).
func (e *env) setWindow(r *report, m *measure, setup, work float64, lat []float64, group int) {
	r.set("setup_s", setup, "s")
	r.set("rss_slice_p50_mb", m.rssMB, "MB")
	r.set("allocs_per_op", ratio(float64(m.mallocs), work), "count")
	r.set("bytes_per_op", ratio(float64(m.bytes), work), "B")
	r.set("pipeline.work_per_cpu_s", ratio(work, m.cpu.Seconds()), "1/cpu_s")
	p50, tail := e.latency(lat, group)
	r.set("pipeline.latency_p50_ms", p50, "ms")
	r.set("pipeline.latency_tail_ms", tail, "ms")
	fmt.Fprintf(e.out, "timing work=%.0f wall_s=%.3f cpu_s=%.3f work_per_s=%.6g work_per_cpu_s=%.6g p50_ms=%.6g tail_ms=%.6g peak_rss_mb=%.4g\n",
		work, m.elapsed.Seconds(), m.cpu.Seconds(), ratio(work, m.elapsed.Seconds()), ratio(work, m.cpu.Seconds()), p50, tail, m.peakMB)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// repeatSetup builds a workload's inputs reps times and returns the last
// build with the median build cost in CPU seconds (steal-free, like
// work_per_cpu_s). Earlier builds are released as soon as the next one
// exists, so only one is live during measurement.
func repeatSetup[T any](reps int, build func() (T, func(), error)) (T, float64, error) {
	var (
		val     T
		release func()
		times   []float64
	)
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0 := cpuTime()
		v, rel, err := build()
		times = append(times, (cpuTime() - c0).Seconds())
		if err != nil {
			if release != nil {
				release()
			}
			return val, 0, err
		}
		if release != nil {
			release()
		}
		val, release = v, rel
	}
	// Return the earlier builds' memory to the OS, so the measured window
	// starts from the live build alone.
	debug.FreeOSMemory()
	return val, median(times), nil
}

// rssSlice is the interval over which rssSampler takes one peak.
const rssSlice = 250 * time.Millisecond

// rssSampler measures resident memory over a measured window in slices:
// every rssSlice it reads the peak since the last reset (VmHWM) and resets
// it. It reports the median slice peak: the memory the workload typically
// holds, not its single highest point. The window's true peak moves by up
// to a fifth between runs of the same code (garbage-collection timing), too
// much for a bounded metric; it is printed on the timing line instead.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	last  float64 // peak of the partial slice the window ended in
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeak := func() bool { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil }
	go func() {
		defer close(s.done)
		if !resetPeak() {
			return
		}
		tick := time.NewTicker(rssSlice)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.last = peakRSSMB()
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetPeak()
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the median slice
// peak and the window's peak (the highest slice, the partial last one
// included), or the process peak for both when the peak cannot be reset.
func (s *rssSampler) finish() (p50, peak float64) {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		p := s.last
		if p == 0 { // the peak could not be reset
			p = peakRSSMB()
		}
		return p, p
	}
	return median(s.peaks), max(slices.Max(s.peaks), s.last)
}

// cpuTime is the CPU time the process has used, user plus system. Time
// the host steals from the machine's virtual CPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the Go
// runtime's reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// printHost writes the host record every run carries.
func printHost(w io.Writer, workload string, seed int64) {
	host := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(host) // a map of strings and numbers always marshals
	fmt.Fprintf(w, "host %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// expired reports whether the hard deadline has passed.
func (e *env) expired() bool { return e.ctx.Err() != nil }

// errDeadline marks work abandoned at the hard deadline.
var errDeadline = errors.New("hard deadline passed")
