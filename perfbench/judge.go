package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// The judge workloads time cold judging in two shapes. judge (phase A)
// parses and judges a seed-selected corpus of small tests — diy cycles,
// the paper's tests and renamed copies — under four models with a fresh
// campaign.Memo per round: per-test fixed cost dominates (parse, prepare,
// dispatch, memo). judge-large (phase B) judges a family of inflated
// shapes at GOMAXPROCS parallelism: enumeration and evaluation dominate.
// The simulator is reached by neither.

// judgeModels are the four models every corpus test is judged under, in
// the service's naming order: ptx, sc, rmo, op.
func judgeModels() []*core.Model {
	return []*core.Model{core.PTX(), core.SC(), core.RMO(), core.SorensenOp()}
}

const (
	modelPTX = 0
	modelSC  = 1
)

// corpusEntry is one test of the judge corpus as source text, the form
// the timed loop starts from.
type corpusEntry struct {
	name string
	src  string
}

// diyPool returns the diy cycles of up to four edges that the judge corpus
// and the daemon script draw from, each with the conjuncts of its exists
// clause sorted. diy.Generate collects the final-memory conjuncts by
// ranging over a map, so one cycle can come out with its conjuncts in a
// different order, and so a different fingerprint, in each process;
// sorting them makes the generated inputs a function of the seed alone.
// Different cycles can give the same test content; the pool keeps the
// first of each, so a test drawn from it is new content.
func diyPool() []*litmus.Test {
	gen := diy.Generate(diy.DefaultPool(), 4, 1<<20)
	pool := make([]*litmus.Test, 0, len(gen))
	seen := make(map[string]bool, len(gen))
	for _, g := range gen {
		t := sortedConjuncts(g.Test)
		if fp := t.Fingerprint(); !seen[fp] {
			seen[fp] = true
			pool = append(pool, t)
		}
	}
	return pool
}

func sortedConjuncts(t *litmus.Test) *litmus.Test {
	if !conjunction(t.Exists) {
		return t
	}
	atoms := litmus.CondAtoms(t.Exists)
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].String() < atoms[j].String() })
	c := t.Clone()
	c.Exists = litmus.And(atoms...)
	return c
}

// conjunction reports whether c is a conjunction of atoms.
func conjunction(c litmus.Cond) bool {
	switch v := c.(type) {
	case litmus.CondAnd:
		return conjunction(v.L) && conjunction(v.R)
	case litmus.RegEq, litmus.MemEq:
		return true
	}
	return false
}

// judgeCorpus draws the phase-A corpus from the seed: a sample of diy
// cycles (up to four edges) plus every paper test, shuffled, followed by
// renamed copies of earlier entries that a content-addressed memo answers
// without judging.
func judgeCorpus(seed int64, sz sizes) []corpusEntry {
	rng := rand.New(rand.NewSource(seed))
	pool := diyPool()
	var tests []*litmus.Test
	for _, i := range rng.Perm(len(pool))[:min(sz.judgeSample, len(pool))] {
		tests = append(tests, pool[i])
	}
	tests = append(tests, litmus.PaperTests()...)
	rng.Shuffle(len(tests), func(i, j int) { tests[i], tests[j] = tests[j], tests[i] })
	twins := len(tests) * sz.judgeTwinPct / 100
	for k := 0; k < twins; k++ {
		twin := tests[rng.Intn(len(tests))].Clone()
		twin.Name = fmt.Sprintf("%s+twin%d", twin.Name, k)
		tests = append(tests, twin)
	}
	corpus := make([]corpusEntry, len(tests))
	for i, t := range tests {
		corpus[i] = corpusEntry{name: t.Name, src: t.String()}
	}
	return corpus
}

// corpusDigest identifies a generated corpus: equal seeds must give equal
// digests and different seeds different ones.
func corpusDigest(c []corpusEntry) string {
	h := sha256.New()
	for _, e := range c {
		fmt.Fprintf(h, "%s\x00%s\x00", e.name, e.src)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// verdictSum is the part of a verdict every round must reproduce.
type verdictSum struct {
	candidates, allowed, witnesses int
	observable                     bool
}

func summarize(v *core.Verdict) verdictSum {
	return verdictSum{v.Candidates, v.Allowed, v.Witnesses, v.Observable}
}

// judgeSetup is what phase A needs before timing: the corpus and the
// compiled models.
type judgeSetup struct {
	corpus []corpusEntry
	models []*core.Model
}

func runJudge(e *env) (*report, error) {
	r := newReport()
	st, setup, err := repeatSetup(e.sz.setupReps, func() (judgeSetup, func(), error) {
		s := judgeSetup{corpus: judgeCorpus(e.seed, e.sz), models: judgeModels()}
		// Warm-up: judge the paper's mp under every model once.
		for _, m := range s.models {
			if _, err := core.Judge(m, litmus.MP(litmus.NoFence)); err != nil {
				return s, nil, err
			}
		}
		return s, nil, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(e.out, "judge.corpus tests=%d sha256=%s\n", len(st.corpus), corpusDigest(st.corpus))

	window := e.window
	if e.trace {
		window, _, _ = e.tracedWindows()
	}
	m := startMeasure()
	lat, judged, memo := judgeRounds(e, r, st, window)
	m.stop()
	e.setWindow(r, m, setup, float64(judged), lat, len(st.corpus))
	if !e.trace {
		return r, nil
	}
	r.set("campaign.memo_hit_share", ratio(float64(memo.hits), float64(memo.lookups)), "ratio")
	return r, traceJudge(e, r, st, m.elapsed.Seconds()/float64(judged))
}

// judgeRounds parses and judges the corpus under every model with a fresh
// memo per round, on the campaign pool, until window has passed. Round 0's
// verdicts are the reference later rounds must reproduce; its verdict lines
// are digested, and any test observable under SC but not under PTX fails
// (SC is stronger than the PTX model). It returns the per-test latencies,
// the number of tests judged, and the memos' lookups and hits: a memoised
// verdict carries the first requester's *Test, so a verdict for another
// *Test is one the memo answered without judging.
func judgeRounds(e *env, r *report, st judgeSetup, window time.Duration) ([]float64, int64, memoCounts) {
	n := len(st.corpus)
	var ref [][]verdictSum
	var lat []float64
	var judged int64
	var memoHits, memoLookups atomic.Int64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < window; round++ {
		if e.expired() {
			break
		}
		memo := campaign.NewMemo()
		sums := make([][]verdictSum, n)
		lines := make([]string, n)
		roundLat := make([]float64, n)
		errs := make([]error, n)
		_ = campaign.ForEach(n, 0, func(i int) error {
			if e.expired() {
				errs[i] = errDeadline
				return nil
			}
			t0 := time.Now()
			t, err := litmus.Parse(st.corpus[i].src)
			if err != nil {
				errs[i] = err
				return nil
			}
			vs := make([]verdictSum, len(st.models))
			var line []byte
			for mi, m := range st.models {
				v, err := memo.Verdict(m, t)
				if err != nil {
					errs[i] = err
					return nil
				}
				memoLookups.Add(1)
				if v.Test != t {
					memoHits.Add(1)
				}
				vs[mi] = summarize(v)
				if round == 0 {
					own := *v
					own.Test = t // memo hits carry the first requester's test
					line = fmt.Appendf(line, "%s\n", own.String())
				}
			}
			roundLat[i] = float64(time.Since(t0)) / 1e6
			sums[i], lines[i] = vs, string(line)
			return nil
		})
		for i := 0; i < n; i++ {
			r.attempted++
			switch {
			case errs[i] != nil:
				r.fail("judge round %d %s: %v", round, st.corpus[i].name, errs[i])
				continue
			case round == 0:
				if sums[i][modelSC].observable && !sums[i][modelPTX].observable {
					r.fail("%s: observable under SC but not under PTX", st.corpus[i].name)
				}
			default:
				if ref[i] == nil || !equalSums(sums[i], ref[i]) {
					r.fail("judge round %d %s: verdicts differ from round 0", round, st.corpus[i].name)
				}
			}
			judged++
			lat = append(lat, roundLat[i])
		}
		if round == 0 {
			ref = sums
			h := sha256.New()
			for _, l := range lines {
				h.Write([]byte(l))
			}
			fmt.Fprintf(e.out, "judge.verdicts lines=%d sha256=%x\n", n*len(st.models), h.Sum(nil))
		}
	}
	return lat, judged, memoCounts{lookups: memoLookups.Load(), hits: memoHits.Load()}
}

// memoCounts is how often campaign.Memo was asked for a verdict and how
// often it answered from an earlier judgement.
type memoCounts struct{ lookups, hits int64 }

func equalSums(a, b []verdictSum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lane is one worker's state for the benchmark's own judge drive: a
// span track, an assembler, and an evaluation scratch per program.
type lane struct {
	tk      *track
	asm     axiom.Assembler
	scratch []*cat.Scratch
}

// driveCounts is what the own drive computes for one judgement; it must
// equal core.Judge's counts.
type driveCounts struct {
	candidates, allowed, witnesses, visited int
}

func (d *driveCounts) add(o driveCounts) {
	d.candidates += o.candidates
	d.allowed += o.allowed
	d.witnesses += o.witnesses
	d.visited += o.visited
}

func (d driveCounts) matches(v *core.Verdict) bool {
	return d.candidates == v.Candidates && d.allowed == v.Allowed && d.witnesses == v.Witnesses && d.visited == v.Visited
}

// programs compiles each model's public .cat source into the slot program
// core evaluates it with.
func programs(models []*core.Model) ([]*cat.Program, error) {
	progs := make([]*cat.Program, len(models))
	for i, m := range models {
		parsed, err := cat.Parse(m.Source)
		if err != nil {
			return nil, err
		}
		if progs[i], err = parsed.Compile(); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// emitter returns the per-execution callback of the own drive: evaluate
// the candidate verdict-only under a span, then count it by weight the
// way core.Judge does.
func emitter(tk *track, t *litmus.Test, prog *cat.Program, sc *cat.Scratch, c *driveCounts) func(*axiom.Execution) error {
	return func(x *axiom.Execution) error {
		tk.begin(spEval)
		ok, err := prog.RunExecVerdict(x, sc)
		tk.end()
		if err != nil {
			return err
		}
		w := x.Weight()
		c.candidates += w
		c.visited++
		if ok {
			c.allowed += w
			if t.Exists.Eval(x.Final) {
				c.witnesses += w
			}
		}
		return nil
	}
}

// driveSerial judges t with the benchmark's own serial drive:
// axiom.Prepare, then the enumeration stream with every candidate
// evaluated by the model's compiled program.
func driveSerial(ctx context.Context, d *lane, t *litmus.Test, prog *cat.Program, sc *cat.Scratch) (driveCounts, error) {
	var c driveCounts
	d.tk.begin(spPrepare)
	en, err := axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
	d.tk.end()
	if err != nil {
		return c, err
	}
	d.tk.begin(spEnumerate)
	err = en.StreamCtx(ctx, emitter(d.tk, t, prog, sc, &c))
	d.tk.end()
	return c, err
}

// pairKey identifies a (model, test content) judgement.
type pairKey struct {
	model int
	fp    string
}

// judgeDrive accumulates what the benchmark's own phase-A drive measured.
type judgeDrive struct {
	tests   int64
	totals  driveCounts
	elapsed time.Duration
}

// ownJudgeRounds runs the corpus, round after round until window has
// passed, through the benchmark's own drive of the layers: litmus.Parse,
// the content fingerprint a memo keys on, then per model axiom.Prepare and
// the enumeration stream with cat evaluation of every candidate (a span
// around every call when tr is set). Content already judged in the round
// is answered from the round's fingerprint table, as campaign.Memo would;
// the table is the benchmark's own code, so its time is charged to bench,
// and the memo's real cost stays in trace.drive_gap_share. Round 0's first judgements are recorded in first, when it is non-nil.
func ownJudgeRounds(e *env, st judgeSetup, progs []*cat.Program, window time.Duration, tr *tracer, out *judgeDrive, first map[pairKey]*litmus.Test) error {
	workers := runtime.GOMAXPROCS(0)
	lanes := make(chan *lane, workers)
	for i := 0; i < workers; i++ {
		d := &lane{tk: tr.newTrack()}
		for _, p := range progs {
			d.scratch = append(d.scratch, p.NewScratch())
		}
		lanes <- d
	}
	var mu sync.Mutex
	start := time.Now()
	defer func() { out.elapsed = time.Since(start) }()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		if e.expired() {
			return errDeadline
		}
		seen := make(map[pairKey]bool)
		err := campaign.ForEach(len(st.corpus), workers, func(i int) error {
			d := <-lanes
			defer func() { lanes <- d }()
			tk := d.tk
			tk.setOp(int64(pass)<<32 | int64(i))
			tk.begin(spBench)
			defer tk.end()
			tk.begin(spParse)
			t, err := litmus.Parse(st.corpus[i].src)
			tk.end()
			if err != nil {
				return err
			}
			tk.begin(spTestFingerprint)
			fp := t.Fingerprint()
			tk.end()
			for mi := range st.models {
				key := pairKey{mi, fp}
				mu.Lock()
				hit := seen[key]
				seen[key] = true
				if !hit && pass == 0 && first != nil {
					first[key] = t
				}
				mu.Unlock()
				if hit {
					continue
				}
				c, err := driveSerial(e.ctx, d, t, progs[mi], d.scratch[mi])
				if err != nil {
					return err
				}
				mu.Lock()
				out.totals.add(c)
				mu.Unlock()
			}
			mu.Lock()
			out.tests++
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// traceJudge is phase A's traced run: the own drive once without spans and
// once with them, then a reference pass outside both windows. Every first
// judgement of round 0 is judged, serially and alternately, by the
// untraced own drive and by core.Judge (timed: core.judge_us and the merge
// share), whose counts must be equal; the static prefilter is timed on the
// same judgements and must agree with them.
func traceJudge(e *env, r *report, st judgeSetup, pipelinePerTest float64) error {
	progs, err := programs(st.models)
	if err != nil {
		return err
	}
	_, driveWin, tracedWin := e.tracedWindows()
	first := make(map[pairKey]*litmus.Test)
	tr := newTracer(e.spans != "")
	var plain, traced judgeDrive
	for _, p := range []struct {
		tr    *tracer
		win   time.Duration
		out   *judgeDrive
		first map[pairKey]*litmus.Test
	}{{nil, driveWin, &plain, first}, {tr, tracedWin, &traced, nil}} {
		r.attempted++
		if err := ownJudgeRounds(e, st, progs, p.win, p.tr, p.out, p.first); err != nil {
			r.fail("judge own drive: %v", err)
		}
	}

	d := &lane{}
	for _, p := range progs {
		d.scratch = append(d.scratch, p.NewScratch())
	}
	var ownTime, judgeTime, preTime time.Duration
	decided := 0
	for _, key := range sortedPairs(first) {
		if e.expired() {
			r.fail("judge reference pass: %v", errDeadline)
			break
		}
		t, m := first[key], st.models[key.model]
		r.attempted++
		t0 := time.Now()
		c, err := driveSerial(e.ctx, d, t, progs[key.model], d.scratch[key.model])
		ownTime += time.Since(t0)
		if err != nil {
			r.fail("own drive %s under %s: %v", t.Name, m.Name, err)
			continue
		}
		t0 = time.Now()
		v, err := core.Judge(m, t)
		judgeTime += time.Since(t0)
		if err != nil {
			r.fail("core.Judge %s under %s: %v", t.Name, m.Name, err)
			continue
		}
		if !c.matches(v) {
			r.fail("%s under %s: drive counted %+v, core.Judge %s", t.Name, m.Name, c, v)
		}
		t0 = time.Now()
		pre := m.Prefilter(t)
		preTime += time.Since(t0)
		if pre.Verdict != analysis.Unknown {
			decided++
			if (pre.Verdict == analysis.Allowed) != v.Observable {
				r.fail("%s under %s: prefilter says %s, core.Judge observable=%v", t.Name, m.Name, pre.Verdict, v.Observable)
			}
		}
	}

	self, count := tr.totals()
	pairs := float64(len(first))
	tot := traced.totals
	r.set("litmus.parse_us", tr.perCall(spParse), "us")
	r.set("litmus.fingerprint_us", tr.perCall(spTestFingerprint), "us")
	r.set("analysis.prefilter_us", ratio(float64(preTime)/1e3, pairs), "us")
	r.set("analysis.decided_share", ratio(float64(decided), pairs), "ratio")
	r.set("axiom.prepare_us", tr.perCall(spPrepare), "us")
	r.set("axiom.enumerate_us_per_exec", ratio(float64(self[spEnumerate])/1e3, float64(tot.visited)), "us")
	r.set("axiom.visited_share", ratio(float64(tot.visited), float64(tot.candidates)), "ratio")
	r.set("cat.eval_us_per_exec", ratio(float64(self[spEval])/1e3, float64(count[spEval])), "us")
	r.set("cat.allowed_share", ratio(float64(tot.allowed), float64(tot.candidates)), "ratio")
	r.set("core.judge_us", ratio(float64(judgeTime)/1e3, pairs), "us")
	r.set("core.merge_share", 1-ratio(float64(ownTime), float64(judgeTime)), "ratio")
	r.set("axiom.allocs_per_exec", enumAllocProbe(e, firstTests(first, 64)), "count")
	setOverhead(r, pipelinePerTest, ratio(plain.elapsed.Seconds(), float64(plain.tests)), ratio(traced.elapsed.Seconds(), float64(traced.tests)))
	return e.finishTrace(r, tr)
}

// sortedPairs returns a judgement table's keys in a deterministic order.
func sortedPairs(m map[pairKey]*litmus.Test) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fp != keys[j].fp {
			return keys[i].fp < keys[j].fp
		}
		return keys[i].model < keys[j].model
	})
	return keys
}

// firstTests returns up to n distinct tests of a judgement table, in a
// deterministic order.
func firstTests(tests map[pairKey]*litmus.Test, n int) []*litmus.Test {
	byFP := make(map[string]*litmus.Test)
	var fps []string
	for k, t := range tests {
		if _, ok := byFP[k.fp]; !ok {
			byFP[k.fp] = t
			fps = append(fps, k.fp)
		}
	}
	sort.Strings(fps)
	var out []*litmus.Test
	for _, fp := range fps[:min(n, len(fps))] {
		out = append(out, byFP[fp])
	}
	return out
}

// enumAllocProbe counts heap allocations per produced execution of the
// enumeration stream alone (Prepare runs before counting), on one
// goroutine with nothing else running.
func enumAllocProbe(e *env, tests []*litmus.Test) float64 {
	var ens []*axiom.Enumeration
	for _, t := range tests {
		en, err := axiom.Prepare(t, axiom.DefaultOpts())
		if err != nil {
			return 0
		}
		ens = append(ens, en)
	}
	visited := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, en := range ens {
		if err := en.StreamCtx(e.ctx, func(*axiom.Execution) error { visited++; return nil }); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-before.Mallocs), float64(visited))
}
