package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// largeShape is one inflated test of phase B with the verdict the PTX
// model must give it.
type largeShape struct {
	test       *litmus.Test
	observable bool
}

// largeShapes builds phase B's family from the seed: mp and mp+membar.gl
// with 1..maxExtra extra pairs of solo writers of distinct values to x
// and y (36, 576 and 14,400 candidates), plus n interchangeable writers
// of one value and two readers, where symmetry pruning collapses orbits.
// The seed picks location names and written values only, so every seed
// costs the same.
func largeShapes(seed int64, sz sizes) []largeShape {
	rng := rand.New(rand.NewSource(seed))
	x, y := fmt.Sprintf("x%d", rng.Intn(1000)), fmt.Sprintf("y%d", rng.Intn(1000))
	base := 2 + rng.Intn(1000)
	var shapes []largeShape
	for _, fence := range []bool{false, true} {
		for k := 1; k <= sz.largeMaxExtra; k++ {
			name := fmt.Sprintf("mp+%dw-%d", k, seed)
			t0 := []string{fmt.Sprintf("st.cg [%s],1", x), fmt.Sprintf("st.cg [%s],1", y)}
			t1 := []string{fmt.Sprintf("ld.cg r1,[%s]", y), fmt.Sprintf("ld.cg r2,[%s]", x)}
			if fence {
				name = fmt.Sprintf("mp+membar.gl+%dw-%d", k, seed)
				t0 = []string{t0[0], "membar.gl", t0[1]}
				t1 = []string{t1[0], "membar.gl", t1[1]}
			}
			b := litmus.NewTest(name).Global(x, 0).Global(y, 0).Thread(t0...).Thread(t1...)
			for i := 0; i < k; i++ {
				b = b.Thread(fmt.Sprintf("st.cg [%s],%d", x, base+i)).Thread(fmt.Sprintf("st.cg [%s],%d", y, base+i))
			}
			shapes = append(shapes, largeShape{b.InterCTA().Exists("1:r1=1 /\\ 1:r2=0").MustBuild(), !fence})
		}
	}
	b := litmus.NewTest(fmt.Sprintf("sym%dw-%d", sz.symWriters, seed)).Global(x, 0)
	for i := 0; i < sz.symWriters; i++ {
		b = b.Thread(fmt.Sprintf("st.cg [%s],%d", x, base))
	}
	b = b.Thread(fmt.Sprintf("ld.cg r0,[%s]", x)).Thread(fmt.Sprintf("ld.cg r0,[%s]", x))
	sym := b.InterCTA().Exists(fmt.Sprintf("%d:r0=%d", sz.symWriters, base)).MustBuild()
	return append(shapes, largeShape{sym, true})
}

func shapesDigest(shapes []largeShape) string {
	h := sha256.New()
	for _, s := range shapes {
		h.Write([]byte(s.test.String()))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func runJudgeLarge(e *env) (*report, error) {
	r := newReport()
	type setupT struct {
		shapes []largeShape
		ptx    *core.Model
	}
	st, setup, err := repeatSetup(e.sz.setupReps, func() (setupT, func(), error) {
		s := setupT{shapes: largeShapes(e.seed, e.sz), ptx: core.PTX()}
		// Warm-up: every shape once through the parallel pipeline.
		for _, sh := range s.shapes {
			if _, err := core.JudgeP(s.ptx, sh.test, runtime.GOMAXPROCS(0)); err != nil {
				return s, nil, err
			}
		}
		return s, nil, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(e.out, "judge-large.shapes n=%d sha256=%s\n", len(st.shapes), shapesDigest(st.shapes))

	workers := runtime.GOMAXPROCS(0)
	window := e.window
	if e.trace {
		window, _, _ = e.tracedWindows()
	}
	ref := make([]*core.Verdict, len(st.shapes))
	var lat []float64
	var execs int64
	m := startMeasure()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < window; round++ {
		for i, s := range st.shapes {
			if e.expired() {
				break
			}
			r.attempted++
			t0 := time.Now()
			v, err := core.JudgeCtx(e.ctx, st.ptx, s.test, workers)
			if err != nil {
				r.fail("%s: %v", s.test.Name, err)
				continue
			}
			lat = append(lat, float64(time.Since(t0))/1e6)
			execs += int64(v.Candidates)
			switch {
			case round == 0:
				ref[i] = v
				if v.Observable != s.observable {
					r.fail("%s: observable=%v under PTX, want %v", s.test.Name, v.Observable, s.observable)
				}
			case summarize(v) != summarize(ref[i]):
				r.fail("%s round %d: verdict differs from round 0", s.test.Name, round)
			}
		}
	}
	m.stop()
	e.setWindow(r, m, setup, float64(execs), lat, len(lat))

	// Correctness pass: the serial pipeline must give every round-0
	// verdict, witness included.
	h := sha256.New()
	for i, s := range st.shapes {
		if ref[i] == nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", ref[i])
		serial, err := core.JudgeCtx(e.ctx, st.ptx, s.test, 1)
		if err != nil {
			r.fail("%s serial: %v", s.test.Name, err)
			continue
		}
		if serial.String() != ref[i].String() || witnessText(serial) != witnessText(ref[i]) {
			r.fail("%s: the serial verdict differs from the parallel one", s.test.Name)
		}
	}
	fmt.Fprintf(e.out, "judge-large.verdicts sha256=%x\n", h.Sum(nil))

	if !e.trace {
		return r, nil
	}
	return r, traceJudgeLarge(e, r, st.ptx, st.shapes, m.elapsed.Seconds()/float64(execs))
}

// largeDrive accumulates what the benchmark's own phase-B drive measured.
type largeDrive struct {
	totals  driveCounts
	elapsed time.Duration
}

// newLanes returns one lane per worker for a parallel drive, each with
// its own track of tr (nil: untraced), assembler and scratch.
func newLanes(tr *tracer, prog *cat.Program, workers int) chan *lane {
	lanes := make(chan *lane, workers)
	for i := 0; i < workers; i++ {
		lanes <- &lane{tk: tr.newTrack(), scratch: []*cat.Scratch{prog.NewScratch()}}
	}
	return lanes
}

// ownLargeRounds judges every shape, pass after pass until window has
// passed, with the benchmark's own parallel drive (spans around every call
// when tr is set).
func ownLargeRounds(e *env, shapes []largeShape, prog *cat.Program, window time.Duration, tr *tracer, out *largeDrive) error {
	lanes := newLanes(tr, prog, runtime.GOMAXPROCS(0))
	lead := &lane{tk: tr.newTrack()}
	start := time.Now()
	defer func() { out.elapsed = time.Since(start) }()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		for i, s := range shapes {
			if e.expired() {
				return errDeadline
			}
			op := int64(pass)<<32 | int64(i)
			lead.tk.setOp(op)
			c, err := driveParallel(e, lead, lanes, s.test, prog, op)
			if err != nil {
				return fmt.Errorf("%s: %w", s.test.Name, err)
			}
			out.totals.add(c)
		}
	}
	return nil
}

// traceJudgeLarge is phase B's traced run: the own parallel drive once
// without spans and once with them, then a reference pass outside both
// windows. Each shape is judged, alternately, by the untraced own drive
// and by core.JudgeCtx at the same parallelism (timed: core.judge_ms and
// the merge share), whose counts must be equal; the static prefilter is
// timed on every shape and must agree with it.
func traceJudgeLarge(e *env, r *report, ptx *core.Model, shapes []largeShape, pipelinePerExec float64) error {
	progs, err := programs([]*core.Model{ptx})
	if err != nil {
		return err
	}
	prog := progs[0]
	workers := runtime.GOMAXPROCS(0)
	_, driveWin, tracedWin := e.tracedWindows()
	tr := newTracer(e.spans != "")
	var plain, traced largeDrive
	for _, p := range []struct {
		tr  *tracer
		win time.Duration
		out *largeDrive
	}{{nil, driveWin, &plain}, {tr, tracedWin, &traced}} {
		r.attempted++
		if err := ownLargeRounds(e, shapes, prog, p.win, p.tr, p.out); err != nil {
			r.fail("judge-large own drive: %v", err)
		}
	}

	lanes := newLanes(nil, prog, workers)
	lead := &lane{}
	var ownTime, judgeTime, preTime time.Duration
	decided := 0
	for _, s := range shapes {
		r.attempted++
		t0 := time.Now()
		c, err := driveParallel(e, lead, lanes, s.test, prog, 0)
		ownTime += time.Since(t0)
		if err != nil {
			r.fail("%s own drive: %v", s.test.Name, err)
			continue
		}
		t0 = time.Now()
		v, err := core.JudgeCtx(e.ctx, ptx, s.test, workers)
		judgeTime += time.Since(t0)
		if err != nil {
			r.fail("%s: %v", s.test.Name, err)
			continue
		}
		if !c.matches(v) {
			r.fail("%s: drive counted %+v, core.Judge %s", s.test.Name, c, v)
		}
		t0 = time.Now()
		pre := ptx.Prefilter(s.test)
		preTime += time.Since(t0)
		if pre.Verdict != analysis.Unknown {
			decided++
			if (pre.Verdict == analysis.Allowed) != v.Observable {
				r.fail("%s: prefilter says %s, core.Judge observable=%v", s.test.Name, pre.Verdict, v.Observable)
			}
		}
	}

	self, count := tr.totals()
	tot := traced.totals
	n := float64(len(shapes))
	r.set("analysis.prefilter_us", ratio(float64(preTime)/1e3, n), "us")
	r.set("analysis.decided_share", ratio(float64(decided), n), "ratio")
	r.set("axiom.prepare_us", tr.perCall(spPrepare), "us")
	r.set("axiom.enumerate_us_per_exec", ratio(float64(self[spEnumerate])/1e3, float64(tot.visited)), "us")
	r.set("axiom.visited_share", ratio(float64(tot.visited), float64(tot.candidates)), "ratio")
	r.set("cat.eval_us_per_exec", ratio(float64(self[spEval])/1e3, float64(count[spEval])), "us")
	r.set("cat.allowed_share", ratio(float64(tot.allowed), float64(tot.candidates)), "ratio")
	r.set("core.judge_ms", ratio(float64(judgeTime)/1e6, n), "ms")
	r.set("core.merge_share", 1-ratio(float64(ownTime), float64(judgeTime)), "ratio")
	var big []*litmus.Test
	for _, s := range shapes {
		if strings.HasPrefix(s.test.Name, fmt.Sprintf("mp+%dw", e.sz.largeMaxExtra)) {
			big = append(big, s.test)
		}
	}
	r.set("axiom.allocs_per_exec", enumAllocProbe(e, big), "count")
	setOverhead(r, pipelinePerExec, ratio(plain.elapsed.Seconds(), float64(plain.totals.candidates)), ratio(traced.elapsed.Seconds(), float64(tot.candidates)))
	return e.finishTrace(r, tr)
}

// driveParallel judges t with the benchmark's own parallel drive. Prepare
// runs on the calling goroutine; production and evaluation fan out over
// path combinations, or over the rf chunks of a single combination.
func driveParallel(e *env, lead *lane, lanes chan *lane, t *litmus.Test, prog *cat.Program, op int64) (driveCounts, error) {
	var total driveCounts
	lead.tk.begin(spPrepare)
	en, err := axiom.PrepareCtx(e.ctx, t, axiom.DefaultOpts())
	lead.tk.end()
	if err != nil {
		return total, err
	}
	units, perCombo := en.Combos(), true
	if units == 1 {
		if chunks, _ := en.ComboChunks(0, &lead.asm); chunks > 1 {
			units, perCombo = chunks, false
		}
	}
	var mu sync.Mutex
	err = campaign.ForEach(units, len(lanes), func(u int) error {
		d := <-lanes
		defer func() { lanes <- d }()
		d.tk.setOp(op)
		var c driveCounts
		emit := emitter(d.tk, t, prog, d.scratch[0], &c)
		d.tk.begin(spEnumerate)
		var err error
		if perCombo {
			err = en.StreamCombo(u, &d.asm, emit)
		} else {
			err = en.StreamComboChunk(0, u, &d.asm, emit)
		}
		d.tk.end()
		mu.Lock()
		total.add(c)
		mu.Unlock()
		return err
	})
	return total, err
}

func witnessText(v *core.Verdict) string {
	if v.Witness == nil {
		return ""
	}
	return v.Witness.String()
}
