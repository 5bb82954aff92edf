package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/experiments"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// The figures workload regenerates the paper's simulator figures and the
// Table 6 incantation grid through package experiments, round after round
// with a fresh seed per round, at a fixed run count per cell. Simulation
// and the harness loop do nearly all of the work and no model is judged,
// so a judge-side change must read "no change" here.

// figCell is one harness run of a figure: a test on a chip under an
// incantation. Its seed and run count come from the cell's campaign event.
type figCell struct {
	test *litmus.Test
	chip *chip.Profile
	inc  chip.Incant
}

// figureDef is one reproduced figure. cells rebuilds the figure's sweep
// matrix in the campaign's index order (test-major, then chip, then
// incantation), so a cell event's index names the run the correctness
// pass replays with harness.Run.
type figureDef struct {
	id    string
	run   func(experiments.Opts) (*experiments.Table, error)
	cells func(*experiments.Table) []figCell
}

// paperIncant is the incantation the figures use: the default stress,
// plus bank conflicts for intra-CTA tests (Table 6 columns 12 and 16).
func paperIncant(t *litmus.Test) chip.Incant {
	inc := chip.Default()
	if len(t.Scope.CTAs) == 1 {
		inc.BankConflicts = true
	}
	return inc
}

func gridCells(tests []*litmus.Test, chips []*chip.Profile) []figCell {
	var cells []figCell
	for _, t := range tests {
		for _, c := range chips {
			cells = append(cells, figCell{t, c, paperIncant(t)})
		}
	}
	return cells
}

func fenced(mk func(litmus.Fence) *litmus.Test) []*litmus.Test {
	var ts []*litmus.Test
	for _, f := range litmus.Fences {
		ts = append(ts, mk(f))
	}
	return ts
}

// testableCells are the cells of a programming-assumption figure: the
// chips whose column is not n/a, in column order.
func testableCells(t *litmus.Test) func(*experiments.Table) []figCell {
	return func(tab *experiments.Table) []figCell {
		var cells []figCell
		for j, c := range chip.ResultChips() {
			if tab.Meas[0][j] != experiments.NA {
				cells = append(cells, figCell{t, c, paperIncant(t)})
			}
		}
		return cells
	}
}

func table6Cells(p *chip.Profile) []figCell {
	tests := []*litmus.Test{litmus.CoRR(), litmus.LB(litmus.NoFence), litmus.MP(litmus.NoFence), litmus.SBGlobal()}
	var cells []figCell
	for _, t := range tests {
		for _, inc := range chip.AllIncants() {
			cells = append(cells, figCell{t, p, inc})
		}
	}
	return cells
}

// figureSet lists the figures one round regenerates, in order.
func figureSet() []figureDef {
	res, nv := chip.ResultChips(), chip.NvidiaResultChips()
	fixed := func(cells []figCell) func(*experiments.Table) []figCell {
		return func(*experiments.Table) []figCell { return cells }
	}
	return []figureDef{
		{"Fig. 1", experiments.Fig1, fixed(gridCells([]*litmus.Test{litmus.CoRR()}, res))},
		{"Fig. 3", experiments.Fig3, fixed(gridCells(fenced(litmus.MPL1), nv))},
		{"Fig. 4", experiments.Fig4, fixed(gridCells(fenced(litmus.CoRRL2L1), nv))},
		{"Fig. 5", experiments.Fig5, fixed(gridCells([]*litmus.Test{litmus.MPVolatile()}, nv))},
		{"Fig. 7", experiments.Fig7, testableCells(litmus.DlbMP(false))},
		{"Fig. 8", experiments.Fig8, testableCells(litmus.DlbLB(false))},
		{"Fig. 9", experiments.Fig9, testableCells(litmus.CasSL(false))},
		{"Fig. 11", experiments.Fig11, testableCells(litmus.SlFuture(false))},
		{"Table 6 (Titan)", func(o experiments.Opts) (*experiments.Table, error) { return experiments.Table6(chip.GTXTitan, o) }, fixed(table6Cells(chip.GTXTitan))},
		{"Table 6 (HD7970)", func(o experiments.Opts) (*experiments.Table, error) { return experiments.Table6(chip.HD7970, o) }, fixed(table6Cells(chip.HD7970))},
	}
}

// cellLog collects the campaign's cell events; the sink is called from
// the pool's workers concurrently.
type cellLog struct {
	mu  sync.Mutex
	evs []obs.CellEvent
}

func (l *cellLog) sink(ev obs.CellEvent) {
	if ev.Kind == obs.CellStart {
		return
	}
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *cellLog) take() []obs.CellEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.evs
	l.evs = nil
	return evs
}

// figOutcome is one regenerated figure and the events of its cells.
type figOutcome struct {
	def    int
	tab    *experiments.Table
	events []obs.CellEvent
}

// figTotals accumulates what the figure rounds measured.
type figTotals struct {
	iters   int64
	cellMs  []float64
	cellSum time.Duration
}

// figureRounds regenerates the figure set round after round until window
// has passed (always finishing round 0, which the correctness pass
// replays) and returns round 0's figures.
func figureRounds(e *env, r *report, defs []figureDef, window time.Duration, tot *figTotals) []figOutcome {
	var log cellLog
	var round0 []figOutcome
	start := time.Now()
	for round := 0; ; round++ {
		o := experiments.Opts{Runs: e.sz.figRuns, Seed: e.seed*1_000_003 + int64(round)*7_919, Sink: log.sink}
		for di, d := range defs {
			if (round > 0 && time.Since(start) >= window) || e.expired() {
				return round0
			}
			tab, err := d.run(o)
			evs := log.take()
			if err != nil && len(evs) == 0 {
				r.attempted++
				r.fail("%s round %d: %v", d.id, round, err)
				continue
			}
			for _, ev := range evs {
				r.attempted++
				if ev.Kind == obs.CellError {
					r.fail("%s round %d cell %d: %s", d.id, round, ev.Index, ev.Err)
					continue
				}
				tot.iters += int64(ev.Runs)
				tot.cellMs = append(tot.cellMs, float64(ev.Elapsed)/1e6)
				tot.cellSum += ev.Elapsed
			}
			if round == 0 && err == nil {
				round0 = append(round0, figOutcome{def: di, tab: tab, events: evs})
			}
		}
	}
}

func runFigures(e *env) (*report, error) {
	r := newReport()
	defs := figureSet()
	_, setup, err := repeatSetup(e.sz.setupReps, func() (struct{}, func(), error) {
		// Warm-up: one small figure pages in the simulator, the harness and
		// the campaign pool before anything is timed.
		_, err := experiments.Fig1(experiments.Opts{Runs: e.sz.warmRuns, Seed: e.seed})
		return struct{}{}, nil, err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	window := e.window
	if e.trace {
		window, _, _ = e.tracedWindows()
	}
	var tot figTotals
	m := startMeasure()
	round0 := figureRounds(e, r, defs, window, &tot)
	m.stop()
	e.setWindow(r, m, setup, float64(tot.iters), tot.cellMs, roundCells(round0))
	jobs, hists := replayRound0(e, r, defs, round0)
	if !e.trace {
		return r, nil
	}
	return r, traceFigures(e, r, jobs, hists, &tot, m)
}

// replayJob is one round-0 cell with the seed and run count its event
// reported.
type replayJob struct {
	fig   string
	index int
	cell  figCell
	ev    obs.CellEvent
}

// replayRound0 is the figures correctness pass, outside the timed window:
// every round-0 cell is re-run with harness.Run at the seed its event
// reported. The match count must equal the event's, every observed final
// state of a test the PTX model covers must be one the model allows (the
// paper's simulator ⊆ model property, Sec. 5.4), and a digest of every
// histogram is printed so two commits can be compared at one seed.
func replayRound0(e *env, r *report, defs []figureDef, round0 []figOutcome) ([]replayJob, []map[string]int) {
	var jobs []replayJob
	for _, fo := range round0 {
		d := defs[fo.def]
		cells := d.cells(fo.tab)
		evs := append([]obs.CellEvent(nil), fo.events...)
		sort.Slice(evs, func(i, j int) bool { return evs[i].Index < evs[j].Index })
		for _, ev := range evs {
			if ev.Kind != obs.CellFinish {
				continue
			}
			if ev.Index < 0 || ev.Index >= len(cells) {
				r.fail("%s: cell index %d outside the %d-cell matrix", d.id, ev.Index, len(cells))
				continue
			}
			jobs = append(jobs, replayJob{fig: d.id, index: ev.Index, cell: cells[ev.Index], ev: ev})
		}
	}

	allowed := ptxAllowedSets(e, r, jobs)
	hists := make([]map[string]int, len(jobs))
	bad := make([]string, len(jobs))
	err := campaign.ForEach(len(jobs), 0, func(i int) error {
		if e.expired() {
			return errDeadline
		}
		j := jobs[i]
		out, err := harness.Run(j.cell.test, harness.Config{Chip: j.cell.chip, Incant: j.cell.inc, Runs: j.ev.Runs, Seed: j.ev.Seed, Parallelism: 1})
		if err != nil {
			bad[i] = err.Error()
			return nil
		}
		hists[i] = out.Histogram
		if out.Matches != j.ev.Matches {
			bad[i] = fmt.Sprintf("replay matched %d, the figure's cell %d", out.Matches, j.ev.Matches)
			return nil
		}
		if set, ok := allowed[j.cell.test.Fingerprint()]; ok {
			for st := range out.Histogram {
				if !set[st] {
					bad[i] = fmt.Sprintf("observed %q, which the PTX model forbids", st)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		r.fail("figures replay: %v", err)
	}
	h := sha256.New()
	for i, j := range jobs {
		if bad[i] != "" {
			r.fail("%s cell %d (%s on %s, %s, seed %d): %s", j.fig, j.index, j.cell.test.Name, j.cell.chip.ShortName, j.cell.inc, j.ev.Seed, bad[i])
		}
		fmt.Fprintf(h, "%s|%d|%s|%s|%s|%d|%s\n", j.fig, j.index, j.cell.test.Name, j.cell.chip.ShortName, j.cell.inc, j.ev.Seed, histLine(hists[i]))
	}
	fmt.Fprintf(e.out, "figures.histograms cells=%d sha256=%x\n", len(jobs), h.Sum(nil))
	return jobs, hists
}

// roundCells is the number of cells one round of figures runs.
func roundCells(round0 []figOutcome) int {
	n := 0
	for _, fo := range round0 {
		n += len(fo.events)
	}
	return n
}

func histLine(h map[string]int) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s:%d;", k, h[k])
	}
	return sb.String()
}

// ptxAllowedSets computes, for every replayed test the PTX model covers,
// the harness fingerprints of the final states the model allows.
func ptxAllowedSets(e *env, r *report, jobs []replayJob) map[string]map[string]bool {
	m := core.PTX()
	sets := make(map[string]map[string]bool)
	for _, j := range jobs {
		t := j.cell.test
		fp := t.Fingerprint()
		if _, done := sets[fp]; done {
			continue
		}
		if ok, _ := core.Covers(t); !ok {
			continue
		}
		set := make(map[string]bool)
		_, err := m.ForEachVerdictCtx(e.ctx, t, 1, func(_ int, x *axiom.Execution, allowed bool) error {
			if allowed {
				set[harness.Fingerprint(t, x.Final)] = true
			}
			return nil
		})
		if err != nil {
			r.fail("PTX reference for %s: %v", t.Name, err)
			continue
		}
		sets[fp] = set
	}
	return sets
}

// figDrive accumulates what the benchmark's own figure drive measured.
type figDrive struct {
	iters, ticks, distinct, cells int64
	elapsed                       time.Duration
}

func (d *figDrive) perIter() float64 { return ratio(d.elapsed.Seconds(), float64(d.iters)) }

// ownFigureRounds runs the round-0 cells, at their seeds, on the campaign
// pool, pass after pass until window has passed, each driven by the
// benchmark's own sim.Run → harness.Fingerprint → Exists.Eval loop (with a
// span around every call when tr is set). Every first pass must reproduce
// harness.Run's histograms.
func ownFigureRounds(e *env, jobs []replayJob, hists []map[string]int, window time.Duration, tr *tracer, out *figDrive) error {
	workers := runtime.GOMAXPROCS(0)
	tracks := make(chan *track, workers)
	for i := 0; i < workers; i++ {
		tracks <- tr.newTrack()
	}
	var mu sync.Mutex
	start := time.Now()
	defer func() { out.elapsed = time.Since(start) }()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		if e.expired() {
			return errDeadline
		}
		err := campaign.ForEach(len(jobs), workers, func(i int) error {
			tk := <-tracks
			defer func() { tracks <- tk }()
			j := jobs[i]
			tk.setOp(int64(pass)<<32 | int64(i))
			tk.begin(spBench)
			hist, matches, ticks, err := tracedCell(tk, j.cell, j.ev.Seed, j.ev.Runs)
			tk.end()
			if err != nil {
				return err
			}
			if pass == 0 && (hists[i] == nil || histLine(hist) != histLine(hists[i]) || matches != j.ev.Matches) {
				return fmt.Errorf("%s cell %d: the benchmark's loop disagrees with harness.Run", j.fig, j.index)
			}
			mu.Lock()
			out.iters += int64(j.ev.Runs)
			out.ticks += ticks
			out.distinct += int64(len(hist))
			out.cells++
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// traceFigures is the figures traced run: the benchmark's own drive of the
// round-0 cells once without spans and once with them.
func traceFigures(e *env, r *report, jobs []replayJob, hists []map[string]int, tot *figTotals, pipeline *measure) error {
	_, driveWin, tracedWin := e.tracedWindows()
	var plain, traced figDrive
	tr := newTracer(e.spans != "")
	for _, p := range []struct {
		tr  *tracer
		win time.Duration
		out *figDrive
	}{{nil, driveWin, &plain}, {tr, tracedWin, &traced}} {
		r.attempted++
		if err := ownFigureRounds(e, jobs, hists, p.win, p.tr, p.out); err != nil {
			r.fail("figures own drive: %v", err)
		}
	}

	self, _ := tr.totals()
	r.set("sim.iter_us", tr.perCall(spSimRun), "us")
	r.set("sim.ticks_per_iter", ratio(float64(traced.ticks), float64(traced.iters)), "count")
	r.set("harness.fingerprint_us", tr.perCall(spHarnessFingerprint), "us")
	r.set("harness.cond_eval_us", tr.perCall(spHarnessCond), "us")
	r.set("harness.distinct_states", ratio(float64(traced.distinct), float64(traced.cells)), "count")
	cellTotal := float64(self[spHarnessCell] + self[spSimRun] + self[spHarnessFingerprint] + self[spHarnessCond])
	r.set("harness.overhead_share", 1-ratio(float64(self[spSimRun]), cellTotal), "ratio")
	workers := float64(runtime.GOMAXPROCS(0))
	r.set("campaign.cell_ms", ratio(float64(tot.cellSum)/1e6, float64(len(tot.cellMs))), "ms")
	r.set("campaign.busy_share", ratio(tot.cellSum.Seconds(), pipeline.elapsed.Seconds()*workers), "ratio")
	setOverhead(r, ratio(pipeline.elapsed.Seconds(), float64(tot.iters)), plain.perIter(), traced.perIter())

	allocs, bytes := simAllocProbe(e, jobs)
	r.set("sim.allocs_per_iter", allocs, "count")
	r.set("sim.bytes_per_iter", bytes, "B")
	return e.finishTrace(r, tr)
}

// tracedCell runs one cell with the benchmark's own harness loop, the same
// iteration seeds harness.Run uses (seed, seed+1, ...).
func tracedCell(tk *track, c figCell, seed int64, runs int) (map[string]int, int, int64, error) {
	tk.begin(spHarnessCell)
	defer tk.end()
	hist := make(map[string]int)
	matches := 0
	var ticks int64
	for i := 0; i < runs; i++ {
		tk.begin(spSimRun)
		res, err := sim.Run(c.test, c.chip, c.inc, seed+int64(i))
		tk.end()
		if err != nil {
			return nil, 0, 0, err
		}
		ticks += int64(res.Ticks)
		tk.begin(spHarnessFingerprint)
		fp := harness.Fingerprint(c.test, res.State)
		tk.end()
		hist[fp]++
		tk.begin(spHarnessCond)
		ok := c.test.Exists.Eval(res.State)
		tk.end()
		if ok {
			matches++
		}
	}
	return hist, matches, ticks, nil
}

// simAllocProbe counts heap allocations and bytes per sim.Run on one
// goroutine, over the Table 6 mp cells, with nothing else running: the
// counts are exact up to the runtime's own background allocations.
func simAllocProbe(e *env, jobs []replayJob) (allocs, bytes float64) {
	var probe []replayJob
	for _, j := range jobs {
		if strings.HasPrefix(j.fig, "Table 6") && j.cell.test.Name == "mp" {
			probe = append(probe, j)
		}
	}
	if len(probe) == 0 {
		return 0, 0
	}
	n := e.sz.probeIters
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		j := probe[i%len(probe)]
		if _, err := sim.Run(j.cell.test, j.cell.chip, j.cell.inc, j.ev.Seed+int64(i)); err != nil {
			return 0, 0
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
