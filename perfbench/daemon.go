package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/service"
)

// The daemon workload drives an in-process gpulitmusd (service.New with a
// store in the run's temporary directory, served on a loopback listener at
// an ephemeral port) with a closed loop of one client goroutine per CPU:
// daemon callers such as gpuherd wait for each reply before sending the
// next request. The seeded script mixes /v1/judge requests whose content
// is new (compute and store append: the write path) with requests that
// re-send earlier content under a new name (content-addressed memory
// hits: the read path), and small /v1/run and /v1/sweep requests. Every
// response is checked against core.Judge and harness.Run references
// computed after the measured window.

// Request classes and their shares of the script, in percent. The classes
// are the ones the workload is defined by: single judges of new content
// (the write path) and of re-sent content (the read path), batch judges,
// and small runs and sweeps. No caller in the repository fixes a traffic
// mix, so the shares are assumptions, recorded with their reasons in
// design.json: read and write paths get equal shares so neither hides the
// other, and runs plus sweeps (15%) exceed the 10% above the p90 with a
// margin, so the tail falls inside them and the median inside the judges.
const (
	reqJudgeTwin = iota
	reqJudgeFirst
	reqJudgeBatch
	reqRun
	reqSweep
)

var reqShares = []int{reqJudgeTwin: 30, reqJudgeFirst: 30, reqJudgeBatch: 25, reqRun: 10, reqSweep: 5}

// twinDistance is how many requests back a twin's original must be, so
// that two clients rarely race a twin against its original.
const twinDistance = 16

// twinWindow is how many of the most recent contents a twin is drawn from.
// The script adds about 0.75 contents and 1.05 cache entries per request
// (judge contents plus run and sweep cells), so the last 1000 contents
// span about 1,400 entries: well inside the service's default 4096-entry memory cache,
// however far into the script a run gets. Twins are therefore memory hits
// throughout the window.
const twinWindow = 1000

var daemonModels = []string{"ptx", "sc", "rmo", "op"}

// judgeItem is one test of a judge request.
type judgeItem struct {
	name    string
	src     string
	content int // index of the content in the script's content table
}

// daemonReq is one scripted request.
type daemonReq struct {
	kind  int
	model int         // judge requests: index into daemonModels
	items []judgeItem // judge requests
	run   service.RunRequest
	sweep service.SweepRequest
}

// daemonScript is the seeded request script plus the content table its
// judge items index.
type daemonScript struct {
	reqs     []daemonReq
	contents []string // canonical source of each first-seen content, by index
}

var identToken = regexp.MustCompile(`\b[A-Za-z_][A-Za-z0-9_]*\b`)

// locMark stands for the variant suffix in a variantTemplate.
const locMark = "\x01"

// variantTemplate returns the body of t's source (everything after the
// name line) with every location name followed by locMark. Replacing the
// mark with a variant suffix renames the locations: distinct content,
// hence a distinct fingerprint, for the same verdict.
func variantTemplate(t *litmus.Test) string {
	locs := make(map[string]bool)
	for _, l := range t.Locations() {
		locs[string(l)] = true
	}
	src := t.String()
	return identToken.ReplaceAllStringFunc(src[strings.IndexByte(src, '\n'):], func(tok string) string {
		if locs[tok] {
			return tok + locMark
		}
		return tok
	})
}

// newScript generates the request script from the seed.
func newScript(seed int64, sz sizes) *daemonScript {
	rng := rand.New(rand.NewSource(seed))
	pool := diyPool()
	order := rng.Perm(len(pool))
	templates := make([]string, len(pool))
	// Runs and sweeps use the tests and chips of API.md's /v1/run and
	// /v1/sweep examples (coRR and mp on Titan and GTX660) plus the
	// paper's lb and sb.
	runTests := []string{litmus.CoRR().Name, litmus.MP(litmus.NoFence).Name, litmus.LB(litmus.NoFence).Name, litmus.SBGlobal().Name}
	chips := []string{chip.GTXTitan.ShortName, chip.GTX660.ShortName}
	s := &daemonScript{}
	var firstReq []int // request index of each content's first use
	var firstModel []int
	fresh := func(i, model int) judgeItem {
		c := len(s.contents)
		b := order[c%len(pool)]
		if templates[b] == "" {
			templates[b] = variantTemplate(pool[b])
		}
		name := fmt.Sprintf("d%d-%s", c, pool[b].Name)
		src := "GPU_PTX " + name + strings.ReplaceAll(templates[b], locMark, fmt.Sprintf("v%d", c/len(pool)))
		s.contents = append(s.contents, src)
		firstReq = append(firstReq, i)
		firstModel = append(firstModel, model)
		return judgeItem{name: name, src: src, content: c}
	}
	// twin re-sends one of the twinWindow most recent contents old enough
	// under a new name with its model, or returns false when no content is
	// old enough yet.
	eligible := 0 // contents first used at least twinDistance requests ago
	twin := func(i, k int) (judgeItem, int, bool) {
		for eligible < len(firstReq) && firstReq[eligible] <= i-twinDistance {
			eligible++
		}
		if eligible == 0 {
			return judgeItem{}, 0, false
		}
		lo := max(0, eligible-twinWindow)
		c := lo + rng.Intn(eligible-lo)
		name := fmt.Sprintf("t%d.%d", i, k)
		src := s.contents[c]
		return judgeItem{name: name, src: "GPU_PTX " + name + src[strings.IndexByte(src, '\n'):], content: c}, firstModel[c], true
	}
	// Classes come in shuffled blocks of 20 requests holding each class's
	// exact share, so every stretch of the script has the same mix and a
	// window's allocations per request do not depend on how the draws fell.
	var block []int
	for kind, share := range reqShares {
		for k := 0; k < share/5; k++ {
			block = append(block, kind)
		}
	}
	for i := 0; i < sz.daemonScript; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(block)]
		req := daemonReq{kind: kind, model: rng.Intn(len(daemonModels))}
		switch kind {
		case reqJudgeTwin:
			it, model, ok := twin(i, 0)
			if !ok {
				req.kind = reqJudgeFirst
				it = fresh(i, req.model)
			} else {
				req.model = model
			}
			req.items = []judgeItem{it}
		case reqJudgeFirst:
			req.items = []judgeItem{fresh(i, req.model)}
		case reqJudgeBatch:
			// A batch holds two tests, like API.md's batch example, judged
			// under one model: one fresh content and a twin of earlier
			// content first judged under the same model (or a second fresh
			// one when there is none).
			req.items = []judgeItem{fresh(i, req.model)}
			if it, model, ok := twin(i, 1); ok && model == req.model {
				req.items = append(req.items, it)
			} else {
				req.items = append(req.items, fresh(i, req.model))
			}
		case reqRun:
			req.run = service.RunRequest{
				TestRef: service.TestRef{Test: runTests[rng.Intn(len(runTests))]},
				Chip:    chips[rng.Intn(len(chips))],
				Runs:    sz.daemonRuns,
				Seed:    seed*10_000_000 + int64(i),
			}
		case reqSweep:
			a := rng.Intn(len(runTests))
			req.sweep = service.SweepRequest{
				Tests:    []service.TestRef{{Test: runTests[a]}, {Test: runTests[(a+1)%len(runTests)]}},
				Chips:    chips,
				Runs:     sz.daemonRuns,
				Seed:     seed*10_000_000 + int64(i),
				SeedMode: "fixed",
			}
		}
		s.reqs = append(s.reqs, req)
	}
	return s
}

// digest identifies the script: equal seeds give equal digests.
func (s *daemonScript) digest() string {
	h := sha256.New()
	for _, r := range s.reqs {
		fmt.Fprintf(h, "%d|%d|", r.kind, r.model)
		for _, it := range r.items {
			fmt.Fprintf(h, "%s|%d|%s|", it.name, it.content, it.src)
		}
		b, _ := json.Marshal([]any{r.run, r.sweep}) // plain structs always marshal
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// daemon is one running in-process service.
type daemon struct {
	srv    *service.Server
	client *service.Client
	hc     *http.Client
	cancel context.CancelFunc
	done   chan error
	dir    string
}

// startDaemon opens a store in a fresh directory under the run's scratch
// directory and serves it on a loopback listener at an ephemeral port.
func startDaemon(e *env, clients int) (*daemon, error) {
	dir, err := os.MkdirTemp(e.tmp, "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{StoreDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(e.ctx)
	d := &daemon{srv: srv, cancel: cancel, done: make(chan error, 1), dir: dir}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	d.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	d.client = service.NewClient("http://" + ln.Addr().String()).WithHTTPClient(d.hc)
	return d, nil
}

// stop shuts the server down, waits for it, and removes its store.
func (d *daemon) stop() {
	d.cancel()
	<-d.done
	d.hc.CloseIdleConnections()
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// daemonResp is what one scripted request got back.
type daemonResp struct {
	err   error
	judge []service.JudgeResult
	run   *service.RunResponse
	rows  []service.SweepRow
}

// send issues one scripted request and waits for its reply.
func (d *daemon) send(ctx context.Context, req *daemonReq) daemonResp {
	var out daemonResp
	switch req.kind {
	case reqJudgeTwin, reqJudgeFirst:
		var res *service.JudgeResult
		res, out.err = d.client.Judge(ctx, service.JudgeRequest{TestRef: service.TestRef{Source: req.items[0].src}, Model: daemonModels[req.model]})
		if res != nil {
			out.judge = []service.JudgeResult{*res}
		}
	case reqJudgeBatch:
		refs := make([]service.TestRef, len(req.items))
		for i, it := range req.items {
			refs[i] = service.TestRef{Source: it.src}
		}
		out.judge, out.err = d.client.JudgeBatch(ctx, refs, daemonModels[req.model], 0)
	case reqRun:
		out.run, out.err = d.client.Run(ctx, req.run)
	case reqSweep:
		out.err = d.client.Sweep(ctx, req.sweep, func(row service.SweepRow) error {
			out.rows = append(out.rows, row)
			return nil
		})
	}
	return out
}

var spanOfReq = []spanKind{reqJudgeTwin: spServiceJudge, reqJudgeFirst: spServiceJudge, reqJudgeBatch: spServiceJudge, reqRun: spServiceRun, reqSweep: spServiceSweep}

// closedLoop runs the script from request next onwards with one goroutine
// per client, each sending its next request only after the previous reply,
// until window has passed or the script is exhausted. With a tracer, each
// request is a span. It returns the index after the last request taken.
func (d *daemon) closedLoop(e *env, s *daemonScript, next, clients int, window time.Duration, resps []daemonResp, lat []float64, tr *tracer) int {
	var cursor atomic.Int64
	cursor.Store(int64(next))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		tk := tr.newTrack()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.begin(spBench)
			defer tk.end()
			for time.Since(start) < window && !e.expired() {
				i := int(cursor.Add(1) - 1)
				if i >= len(s.reqs) {
					return
				}
				t0 := time.Now()
				tk.setOp(int64(i))
				tk.begin(spanOfReq[s.reqs[i].kind])
				resps[i] = d.send(e.ctx, &s.reqs[i])
				tk.end()
				lat[i] = float64(time.Since(t0)) / 1e6
			}
		}()
	}
	wg.Wait()
	return min(int(cursor.Load()), len(s.reqs))
}

func runDaemon(e *env) (*report, error) {
	r := newReport()
	clients := runtime.NumCPU()
	type setupT struct {
		script *daemonScript
		d      *daemon
	}
	st, setup, err := repeatSetup(e.sz.setupReps, func() (setupT, func(), error) {
		script := newScript(e.seed, e.sz)
		d, err := startDaemon(e, clients)
		if err != nil {
			return setupT{}, nil, err
		}
		// Warm-up: content and run seeds the script never uses.
		if _, err := d.client.Judge(e.ctx, service.JudgeRequest{TestRef: service.TestRef{Test: litmus.MP(litmus.NoFence).Name}}); err != nil {
			d.stop()
			return setupT{}, nil, err
		}
		if _, err := d.client.Run(e.ctx, service.RunRequest{TestRef: service.TestRef{Test: litmus.MP(litmus.NoFence).Name}, Chip: chip.GTXTitan.ShortName, Runs: e.sz.daemonRuns, Seed: -1}); err != nil {
			d.stop()
			return setupT{}, nil, err
		}
		return setupT{script, d}, d.stop, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.d.stop()
	s := st.script
	fmt.Fprintf(e.out, "daemon.script requests=%d sha256=%s\n", len(s.reqs), s.digest())

	resps := make([]daemonResp, len(s.reqs))
	lat := make([]float64, len(s.reqs))
	// A traced run measures the loop untraced and traced; the benchmark's
	// own drive of the service is the closed loop itself, so there is no
	// separate drive window.
	untracedWin, tracedWin := e.window, time.Duration(0)
	if e.trace {
		untracedWin, tracedWin = e.window/2, e.window/2
	}
	m := startMeasure()
	issued := st.d.closedLoop(e, s, 0, clients, untracedWin, resps, lat, nil)
	m.stop()
	if issued == len(s.reqs) {
		fmt.Fprintf(e.log, "perfbench: daemon script exhausted after %v\n", m.elapsed)
	}
	e.setWindow(r, m, setup, float64(issued), lat[:issued], minTailGroup)
	untracedIssued := issued

	var tr *tracer
	var tracedElapsed time.Duration
	if e.trace {
		tr = newTracer(e.spans != "")
		t1 := time.Now()
		issued = st.d.closedLoop(e, s, issued, clients, tracedWin, resps, lat, tr)
		tracedElapsed = time.Since(t1)
	}

	stats, err := st.d.client.Stats(e.ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	checkDaemon(e, r, s, resps[:issued])

	printClasses(e, s, lat[:issued], resps[:issued])
	fmt.Fprintf(e.out, "daemon.stats hits=%d misses=%d computations=%d store_hits=%d\n", stats.Cache.Hits, stats.Cache.Misses, stats.Computations, storeHits(stats))
	if !e.trace {
		return r, nil
	}
	lookups := float64(stats.Cache.Hits + stats.Cache.Misses)
	r.set("service.hit_share", ratio(float64(stats.Cache.Hits), lookups), "ratio")
	r.set("service.compute_share", ratio(float64(stats.Computations), lookups), "ratio")
	r.set("service.rejected", float64(stats.Inflight.Rejected), "count")
	if stats.Store != nil {
		r.set("service.store_bytes", float64(stats.Store.Bytes), "B")
	}
	if err := handlerProbe(e, r, st.d, s, issued); err != nil {
		return nil, err
	}
	perReq := ratio(m.elapsed.Seconds(), float64(untracedIssued))
	setOverhead(r, perReq, perReq, ratio(tracedElapsed.Seconds(), float64(issued-untracedIssued)))
	return r, e.finishTrace(r, tr)
}

// handlerProbe times the same memory-hit judge requests through the
// service's Handler() directly and through the loopback client: the
// difference is the HTTP stack's share of a cache hit. It re-sends the
// last 200 re-sent judges of the window, each once untimed first so that
// both timed calls find it in memory.
func handlerProbe(e *env, r *report, d *daemon, s *daemonScript, issued int) error {
	var bodies []service.JudgeRequest
	for i := issued - 1; i >= 0 && len(bodies) < 200; i-- {
		if req := s.reqs[i]; req.kind == reqJudgeTwin {
			bodies = append(bodies, service.JudgeRequest{TestRef: service.TestRef{Source: req.items[0].src}, Model: daemonModels[req.model]})
		}
	}
	if len(bodies) == 0 {
		return nil
	}
	h := d.srv.Handler()
	direct := make([]float64, 0, len(bodies))
	loop := make([]float64, 0, len(bodies))
	for _, b := range bodies {
		body, err := json.Marshal(b)
		if err != nil {
			return err
		}
		if _, err := d.client.Judge(e.ctx, b); err != nil {
			return err
		}
		r.attempted++
		t0 := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/judge", bytes.NewReader(body)))
		direct = append(direct, float64(time.Since(t0))/1e3)
		if rec.Code != http.StatusOK {
			r.fail("direct handler judge: status %d", rec.Code)
		}
		r.attempted++
		t0 = time.Now()
		_, err = d.client.Judge(e.ctx, b)
		loop = append(loop, float64(time.Since(t0))/1e3)
		if err != nil {
			r.fail("loopback judge: %v", err)
		}
	}
	hd := median(direct)
	r.set("service.handler_us", hd, "us")
	r.set("service.http_overhead_us", median(loop)-hd, "us")
	return nil
}

// checkDaemon verifies every issued response after the window: judge
// results byte for byte against core.Judge rendered the way the service
// renders it (renamed twins carry their original's fingerprint and
// verdict), run and sweep outcomes against harness.Run at the same seed.
// Any error, 429s included, fails the request.
func checkDaemon(e *env, r *report, s *daemonScript, resps []daemonResp) {
	models := map[string]*core.Model{"ptx": core.PTX(), "sc": core.SC(), "rmo": core.RMO(), "op": core.SorensenOp()}

	// One reference verdict per (model, content), computed in parallel.
	type vkey struct{ model, content int }
	var keys []vkey
	seen := make(map[vkey]bool)
	for i := range resps {
		for _, it := range s.reqs[i].items {
			k := vkey{s.reqs[i].model, it.content}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	verdicts := make(map[vkey]*core.Verdict, len(keys))
	vlist := make([]*core.Verdict, len(keys))
	verrs := make([]error, len(keys))
	_ = campaign.ForEach(len(keys), 0, func(i int) error {
		if e.expired() {
			verrs[i] = errDeadline
			return nil
		}
		t, err := litmus.Parse(s.contents[keys[i].content])
		if err == nil {
			var v *core.Verdict
			if v, err = core.JudgeCtx(e.ctx, models[daemonModels[keys[i].model]], t, 1); err == nil {
				v.Witness = nil // only the counts are compared; witnesses are large
				vlist[i] = v
			}
		}
		verrs[i] = err
		return nil
	})
	for i, k := range keys {
		if verrs[i] == nil {
			verdicts[k] = vlist[i]
		}
	}

	bad := make([]string, len(resps))
	_ = campaign.ForEach(len(resps), 0, func(i int) error {
		if e.expired() {
			bad[i] = errDeadline.Error()
			return nil
		}
		req, resp := &s.reqs[i], resps[i]
		if resp.err != nil {
			bad[i] = resp.err.Error()
			return nil
		}
		switch req.kind {
		case reqJudgeTwin, reqJudgeFirst, reqJudgeBatch:
			bad[i] = checkJudge(req, resp.judge, models, func(content int) *core.Verdict { return verdicts[vkey{req.model, content}] }, s)
		case reqRun:
			bad[i] = checkRun(req.run, resp.run)
		case reqSweep:
			bad[i] = checkSweep(req.sweep, resp.rows)
		}
		return nil
	})
	for i := range resps {
		r.attempted++
		if bad[i] != "" {
			r.fail("daemon request %d: %s", i, bad[i])
		}
	}
}

// checkJudge compares judge results to the reference rendering.
func checkJudge(req *daemonReq, got []service.JudgeResult, models map[string]*core.Model, ref func(int) *core.Verdict, s *daemonScript) string {
	if len(got) != len(req.items) {
		return fmt.Sprintf("%d judge results for %d tests", len(got), len(req.items))
	}
	m := models[daemonModels[req.model]]
	for j, it := range req.items {
		v := ref(it.content)
		if v == nil {
			return "no reference verdict"
		}
		t, err := litmus.Parse(it.src)
		if err != nil {
			return err.Error()
		}
		own := *v
		own.Test = t
		want := service.JudgeResult{
			Test: t.Name, Model: m.Name, Fingerprint: t.Fingerprint(),
			Candidates: v.Candidates, Allowed: v.Allowed, Witnesses: v.Witnesses, Pruned: v.Pruned(),
			Observable: v.Observable, Verdict: own.String(),
		}
		want.Covered, want.CoverageNote = core.Covers(t)
		g := got[j]
		g.Cached, g.Source, g.Trace = false, "", nil
		if !sameJSON(g, want) {
			return fmt.Sprintf("judge result for %s differs from core.Judge: got %+v want %+v", it.name, g, want)
		}
		if orig, err := litmus.Parse(s.contents[it.content]); err != nil || orig.Fingerprint() != g.Fingerprint {
			return fmt.Sprintf("%s does not carry its original's fingerprint", it.name)
		}
	}
	return ""
}

func referenceRun(ref service.TestRef, chipName string, runs int, seed int64) (*harness.Outcome, *chip.Profile, error) {
	t, err := litmus.ByName(ref.Test)
	if err != nil {
		return nil, nil, err
	}
	p, err := chip.ByName(chipName)
	if err != nil {
		return nil, nil, err
	}
	out, err := harness.Run(t, harness.Config{Chip: p, Incant: chip.Default(), Runs: runs, Seed: seed, Parallelism: 1})
	return out, p, err
}

// checkRun compares a /v1/run response to harness.Run at the same seed.
func checkRun(req service.RunRequest, got *service.RunResponse) string {
	out, p, err := referenceRun(req.TestRef, req.Chip, req.Runs, req.Seed)
	if err != nil {
		return err.Error()
	}
	want := service.RunResponse{
		Test: out.Test.Name, Chip: p.ShortName, Incant: chip.Default().String(), Runs: out.Runs, Seed: req.Seed,
		Histogram: out.Histogram, Matches: out.Matches, Per100k: out.Per100k(), Observed: out.Observed(), Output: out.String(),
	}
	g := *got
	g.Cached, g.Source = false, ""
	if !sameJSON(g, want) {
		return fmt.Sprintf("run response differs from harness.Run: got %+v want %+v", g, want)
	}
	return ""
}

// checkSweep compares every cell of a fixed-seed /v1/sweep to harness.Run.
func checkSweep(req service.SweepRequest, rows []service.SweepRow) string {
	cells, done := 0, false
	for _, row := range rows {
		switch {
		case row.Done:
			done = true
			continue
		case row.Error != "":
			return "sweep cell error: " + row.Error
		case row.Event != "":
			continue
		}
		cells++
		if row.TestIndex < 0 || row.TestIndex >= len(req.Tests) || row.ChipIndex < 0 || row.ChipIndex >= len(req.Chips) {
			return "sweep row outside the matrix"
		}
		out, _, err := referenceRun(req.Tests[row.TestIndex], req.Chips[row.ChipIndex], req.Runs, req.Seed)
		if err != nil {
			return err.Error()
		}
		if row.Seed != req.Seed || row.Runs != out.Runs || row.Matches != out.Matches || row.Output != out.String() {
			return fmt.Sprintf("sweep cell %d differs from harness.Run", row.Index)
		}
	}
	if want := len(req.Tests) * len(req.Chips); cells != want || !done {
		return fmt.Sprintf("sweep delivered %d of %d cells (done=%v)", cells, want, done)
	}
	return ""
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

var reqNames = []string{reqJudgeTwin: "judge-twin", reqJudgeFirst: "judge-first", reqJudgeBatch: "judge-batch", reqRun: "run", reqSweep: "sweep"}

// printClasses writes, for each request class, its count, median and p90
// latency, its share of the window's requests slower than the overall
// p90, and the cache tiers that answered it (from each response's
// source field, one count per judged test or run cell), so a run shows
// which class holds the median and the tail and that re-sent content is
// answered from memory.
func printClasses(e *env, s *daemonScript, lat []float64, resps []daemonResp) {
	all := append([]float64(nil), lat...)
	sort.Float64s(all)
	p90 := percentile(all, 90)
	byKind := make([][]float64, len(reqNames))
	beyond := make([]int, len(reqNames))
	nBeyond := 0
	sources := make([]map[string]int, len(reqNames))
	for i, l := range lat {
		k := s.reqs[i].kind
		byKind[k] = append(byKind[k], l)
		if l > p90 {
			beyond[k]++
			nBeyond++
		}
		if sources[k] == nil {
			sources[k] = make(map[string]int)
		}
		for _, j := range resps[i].judge {
			sources[k][j.Source]++
		}
		if resps[i].run != nil {
			sources[k][resps[i].run.Source]++
		}
		for _, row := range resps[i].rows {
			if row.Source != "" {
				sources[k][row.Source]++
			}
		}
	}
	for k, ls := range byKind {
		sorted := append([]float64(nil), ls...)
		sort.Float64s(sorted)
		fmt.Fprintf(e.out, "daemon.class %s n=%d p50_ms=%.4g p90_ms=%.4g share_beyond_p90=%.3f memory=%d disk=%d compute=%d\n",
			reqNames[k], len(ls), percentile(sorted, 50), percentile(sorted, 90), ratio(float64(beyond[k]), float64(nBeyond)),
			sources[k]["memory"], sources[k]["disk"], sources[k]["compute"])
	}
}

func storeHits(st *service.StatsResponse) int64 {
	if st.Store == nil {
		return 0
	}
	return st.Store.Hits
}
