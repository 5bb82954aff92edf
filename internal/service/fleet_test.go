package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// newFleetServer builds a Server over httptest and returns it with its
// base URL and a client. Peers are wired afterwards via SetPeers once
// every replica's URL is known.
func newFleetServer(t *testing.T, cfg Config) (*Server, string, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL, NewClient(ts.URL)
}

// corpusNames returns the paper corpus by test name — the overlapping
// workload labs re-judge constantly.
func corpusNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, test := range litmus.PaperTests() {
		names = append(names, test.Name)
	}
	if len(names) < 12 {
		t.Fatalf("paper corpus has only %d tests", len(names))
	}
	return names
}

// TestStoreWarmRestartServesFromDisk is the persistence acceptance pin:
// a killed-and-restarted replica serves its pre-restart verdicts from
// disk byte-identically with zero re-enumeration. It also pins the
// renamed-twin path — the same content as inline source under another
// name — for a judge, a run and a sweep cell: each is served from memory
// before the restart and from disk after it, and renders exactly what a
// cold computation under the twin's own name renders.
func TestStoreWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	names := []string{"coRR", "mp", "sb"}
	runReq := RunRequest{TestRef: TestRef{Test: "coRR"}, Chip: "Titan", Runs: 500, Seed: 9}

	// Twins are of keys the plain requests above never touch, so each
	// twin's post-restart answer is its key's first read from disk.
	twin := func(name string) TestRef {
		t.Helper()
		test, err := litmus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		test.Name = name + "-twin"
		return TestRef{Source: test.String()}
	}
	twinJudge := JudgeRequest{TestRef: twin("lb")}
	twinRun := RunRequest{TestRef: twin("mp"), Chip: "Titan", Runs: 500, Seed: 9}
	sweepOf := func(ref TestRef) SweepRequest {
		return SweepRequest{Tests: []TestRef{ref}, Chips: []string{"Titan"}, Runs: 500, Seed: 10, SeedMode: "fixed"}
	}
	twinSweep := sweepOf(twin("sb"))
	const twinKeys = 3

	sweepRow := func(c *Client, req SweepRequest) SweepRow {
		t.Helper()
		var rows []SweepRow
		if err := c.Sweep(context.Background(), req, func(row SweepRow) error {
			if !row.Done {
				rows = append(rows, row)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("sweep returned %d rows, want 1", len(rows))
		}
		return rows[0]
	}
	type twinResults struct {
		judge JudgeResult
		run   RunResponse
		row   SweepRow
	}
	askTwins := func(c *Client) twinResults {
		t.Helper()
		ctx := context.Background()
		judge, err := c.Judge(ctx, twinJudge)
		if err != nil {
			t.Fatal(err)
		}
		run, err := c.Run(ctx, twinRun)
		if err != nil {
			t.Fatal(err)
		}
		return twinResults{*judge, *run, sweepRow(c, twinSweep)}
	}
	// checkTwins compares twin answers served from tier src with a cold
	// computation under the twin names, ignoring only cached and source.
	checkTwins := func(when string, got, cold twinResults, src source) {
		t.Helper()
		if got.judge.Source != src.String() || got.run.Source != src.String() || got.row.Source != src.String() {
			t.Errorf("%s: twin sources = judge %q, run %q, sweep cell %q; want %s",
				when, got.judge.Source, got.run.Source, got.row.Source, src)
		}
		if !got.judge.Cached || !got.run.Cached || !got.row.Cached {
			t.Errorf("%s: twins must be cached: judge %v, run %v, sweep cell %v", when, got.judge.Cached, got.run.Cached, got.row.Cached)
		}
		got.judge.Cached, got.judge.Source = cold.judge.Cached, cold.judge.Source
		got.run.Cached, got.run.Source = cold.run.Cached, cold.run.Source
		got.row.Cached, got.row.Source = cold.row.Cached, cold.row.Source
		if got.judge != cold.judge {
			t.Errorf("%s: twin judge differs from a cold judge:\n got %+v\nwant %+v", when, got.judge, cold.judge)
		}
		if !reflect.DeepEqual(got.run, cold.run) {
			t.Errorf("%s: twin run differs from a cold run:\n got %+v\nwant %+v", when, got.run, cold.run)
		}
		if got.row != cold.row {
			t.Errorf("%s: twin sweep cell differs from a cold one:\n got %+v\nwant %+v", when, got.row, cold.row)
		}
	}
	_, coldClient := newTestService(t, Config{})
	cold := askTwins(coldClient)
	if cold.judge.Source != srcCompute.String() || cold.run.Source != srcCompute.String() || cold.row.Source != srcCompute.String() {
		t.Fatalf("cold twins must be computed: %+v", cold)
	}
	if !strings.HasPrefix(cold.judge.Verdict, "Test lb-twin:") || cold.run.Test != "mp-twin" || cold.row.Test != "sb-twin" {
		t.Fatalf("cold twins must carry the twin names: %q, %q, %q", cold.judge.Verdict, cold.run.Test, cold.row.Test)
	}

	verdicts := map[string]JudgeResult{}
	var runOutput string
	{
		s1, _, c1 := newFleetServer(t, Config{StoreDir: dir})
		ctx := context.Background()
		for _, name := range names {
			res, err := c1.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Fatalf("%s: cold judge cannot be cached", name)
			}
			verdicts[name] = *res
		}
		run, err := c1.Run(ctx, runReq)
		if err != nil {
			t.Fatal(err)
		}
		runOutput = run.Output
		// The twins' originals, then the twins themselves from memory.
		if _, err := c1.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "lb"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Run(ctx, RunRequest{TestRef: TestRef{Test: "mp"}, Chip: "Titan", Runs: 500, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		sweepRow(c1, sweepOf(TestRef{Test: "sb"}))
		checkTwins("before restart", askTwins(c1), cold, srcMemory)
		st, err := c1.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Computations != int64(len(names))+1+twinKeys {
			t.Fatalf("pre-restart computations = %d, want %d", st.Computations, len(names)+1+twinKeys)
		}
		if st.Store == nil || st.Store.Entries != len(names)+1+twinKeys {
			t.Fatalf("store stats = %+v, want %d entries", st.Store, len(names)+1+twinKeys)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a fresh Server over the same store directory. Every
	// answer must come from disk — byte-identical, zero enumeration.
	s2, _, c2 := newFleetServer(t, Config{StoreDir: dir})
	ctx := context.Background()
	for _, name := range names {
		res, err := c2.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Errorf("%s: warm-restart judge must be served from disk", name)
		}
		if res.Source != srcDisk.String() {
			t.Errorf("%s: warm-restart judge source = %q, want disk", name, res.Source)
		}
		want := verdicts[name]
		got := *res
		got.Cached, want.Cached = false, false
		got.Source, want.Source = "", ""
		if got != want {
			t.Errorf("%s: post-restart result differs:\n got %+v\nwant %+v", name, got, want)
		}
	}
	run, err := c2.Run(ctx, runReq)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Cached || run.Output != runOutput {
		t.Errorf("post-restart run: cached=%v, output identical=%v", run.Cached, run.Output == runOutput)
	}
	if run.Source != srcDisk.String() {
		t.Errorf("post-restart run source = %q, want disk", run.Source)
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Computations != 0 {
		t.Errorf("warm restart re-enumerated: computations = %d, want 0", st.Computations)
	}
	if st.Store == nil || st.Store.Hits != int64(len(names))+1 {
		t.Errorf("store stats = %+v, want %d disk hits", st.Store, len(names)+1)
	}
	if got := metricValue(t, s2.renderMetrics(), "gpulitmusd_disk_hits_total"); got != int64(len(names))+1 {
		t.Errorf("disk_hits_total = %d", got)
	}

	checkTwins("after restart", askTwins(c2), cold, srcDisk)
	if st, err := c2.Stats(ctx); err != nil {
		t.Fatal(err)
	} else if st.Computations != 0 || st.Store.Hits != int64(len(names))+1+twinKeys {
		t.Errorf("post-restart twins: computations = %d, disk hits = %d; want 0, %d",
			st.Computations, st.Store.Hits, len(names)+1+twinKeys)
	}
}

// TestStoreDisabledPureMemory: without StoreDir the service runs the
// pre-fleet pure-memory path — no store section in stats, no store
// series on /metrics, caching still intact.
func TestStoreDisabledPureMemory(t *testing.T) {
	_, client := newTestService(t, Config{})
	ctx := context.Background()
	if _, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil || !res.Cached {
		t.Fatalf("memory path broken: %+v, %v", res, err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store != nil {
		t.Errorf("store stats present without a store: %+v", st.Store)
	}
	if st.Peer != nil {
		t.Errorf("peer stats present without a fleet: %+v", st.Peer)
	}
}

// TestFleetConvergesToNearZeroRecomputation is the load-test acceptance
// pin: three in-process replicas with disk stores and a consistent-hash
// ring serve an overlapping litmus corpus; on the second pass — every
// replica judging the full corpus — at least 95% of answers come from
// a non-compute layer (memory, disk or peer), and every replica's
// verdicts are byte-identical.
func TestFleetConvergesToNearZeroRecomputation(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	clients := make([]*Client, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i], urls[i], clients[i] = newFleetServer(t, Config{StoreDir: t.TempDir(), MaxInFlight: 32})
	}
	for i := 0; i < n; i++ {
		servers[i].SetPeers(urls[i], urls)
	}
	names := corpusNames(t)
	ctx := context.Background()

	judge := func(i int, name string) JudgeResult {
		t.Helper()
		res, err := clients[i].Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
		if err != nil {
			t.Fatalf("replica %d judging %s: %v", i, name, err)
		}
		return *res
	}
	computations := func() int64 {
		var total int64
		for _, s := range servers {
			total += s.met.computations.Load()
		}
		return total
	}

	// Pass 1: overlapping slices — each replica serves two thirds of the
	// corpus, so every test is judged by exactly two replicas.
	sliceLen := 2 * len(names) / 3
	want := map[string]string{}
	for i := 0; i < n; i++ {
		for k := 0; k < sliceLen; k++ {
			name := names[(i*len(names)/n+k)%len(names)]
			res := judge(i, name)
			if prev, ok := want[name]; ok && prev != res.Verdict {
				t.Fatalf("%s: replica %d verdict %q differs from %q", name, i, res.Verdict, prev)
			}
			want[name] = res.Verdict
		}
	}
	if got := computations(); got > int64(len(names)) {
		t.Errorf("pass 1 computed %d times for %d distinct tests — fleet singleflight leaked", got, len(names))
	}

	// Pass 2: every replica judges the full corpus. Memory (pass-1 keys),
	// disk (own store) and peers (the owner got every record pushed)
	// must absorb nearly everything.
	before := computations()
	total, computed := 0, 0
	bySource := map[string]int{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			res := judge(i, name)
			total++
			if !res.Cached {
				computed++
			}
			bySource[res.Source]++
			if res.Cached == (res.Source == srcCompute.String()) {
				t.Errorf("%s: replica %d cached=%v contradicts source=%q", name, i, res.Cached, res.Source)
			}
			if res.Verdict != want[name] {
				t.Errorf("%s: replica %d pass-2 verdict %q differs from %q", name, i, res.Verdict, want[name])
			}
		}
	}
	delta := computations() - before
	nonCompute := float64(total-computed) / float64(total)
	t.Logf("pass 2: %d answers, %d computed (%.1f%% non-compute), computations delta %d", total, computed, 100*nonCompute, delta)
	if nonCompute < 0.95 {
		t.Errorf("pass 2 non-compute rate %.1f%% < 95%%", 100*nonCompute)
	}
	if delta != int64(computed) {
		t.Errorf("cached markers (%d computed) disagree with computation counters (%d)", computed, delta)
	}

	// The fleet actually exchanged records: peer hits and pushes are
	// visible on /metrics across the replicas.
	var peerHits, peerPushes int64
	for i := range servers {
		text, err := clients[i].MetricsText(ctx)
		if err != nil {
			t.Fatal(err)
		}
		peerHits += metricValue(t, text, "gpulitmusd_peer_hits_total")
		peerPushes += metricValue(t, text, "gpulitmusd_peer_pushes_total")
	}
	if peerHits == 0 {
		t.Error("no peer hits across the fleet — sharding never engaged")
	}
	// The per-result source markers agree with the fleet-level counters:
	// peer-tier answers were reported, and every tier name is legal.
	t.Logf("pass 2 sources: %v", bySource)
	if bySource[srcPeer.String()] == 0 {
		t.Error("no pass-2 result reported source=peer despite peer hits on /metrics")
	}
	for src := range bySource {
		switch src {
		case srcMemory.String(), srcDisk.String(), srcPeer.String(), srcCompute.String():
		default:
			t.Errorf("illegal source marker %q", src)
		}
	}
	if peerPushes == 0 {
		t.Error("no peer pushes across the fleet — computed records were not replicated to their owners")
	}
}

// TestPeerDownDegradesToLocalCompute: with one replica in the ring dead,
// every request still succeeds (local compute), errors are counted, and
// nothing surfaces as a 5xx.
func TestPeerDownDegradesToLocalCompute(t *testing.T) {
	// The live replica binds first, so a dead one's port, freed below,
	// cannot be handed to it.
	s, selfURL, client := newFleetServer(t, Config{StoreDir: t.TempDir()})
	ctx := context.Background()
	names := corpusNames(t)
	m, err := s.model("ptx")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, name := range names {
		test, err := litmus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, "judge|"+m.Fingerprint()+"|"+test.Fingerprint())
	}
	// Placement depends on the dead replica's port: take the first port
	// whose ring places some judged key on it.
	var deadURL string
	for try := 0; try < 16 && deadURL == ""; try++ {
		dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		u := dead.URL
		dead.Close() // connection refused from here on
		if u == selfURL {
			t.Fatalf("dead and live replicas share %s", u)
		}
		r := buildRing(selfURL, []string{selfURL, u})
		for _, key := range keys {
			if r.owner(key) == u {
				deadURL = u
				break
			}
		}
	}
	if deadURL == "" {
		t.Fatalf("no dead replica port of 16 owns any of the %d judged keys", len(keys))
	}
	s.SetPeers(selfURL, []string{selfURL, deadURL})

	for _, name := range names {
		res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
		if err != nil {
			t.Fatalf("judging %s with a dead peer: %v", name, err)
		}
		if res.Cached {
			t.Errorf("%s: cold judge cannot be cached", name)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peer == nil {
		t.Fatal("peer stats missing")
	}
	if st.Peer.Errors == 0 {
		t.Error("no peer errors counted — either the ring never placed a key on the dead replica or failures are invisible")
	}
	if st.Peer.Hits != 0 {
		t.Errorf("impossible peer hits from a dead replica: %d", st.Peer.Hits)
	}
	if st.Computations != int64(len(names)) {
		t.Errorf("computations = %d, want %d (every key computed locally)", st.Computations, len(names))
	}
}

// TestObjectEndpoint: the internal fleet endpoint serves and accepts raw
// records, answers 404 for unknown keys, and rejects keys or bodies it
// would never have produced.
func TestObjectEndpoint(t *testing.T) {
	s, base, client := newFleetServer(t, Config{StoreDir: t.TempDir()})
	ctx := context.Background()
	res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.model("ptx")
	if err != nil {
		t.Fatal(err)
	}
	test, err := litmus.ByName("coRR")
	if err != nil {
		t.Fatal(err)
	}
	key := "judge|" + m.Fingerprint() + "|" + test.Fingerprint()

	get := func(key string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(objectURL(base, key))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp, readAll(t, resp)
	}
	resp, body := get(key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object GET = %d", resp.StatusCode)
	}
	if !strings.Contains(body, fmt.Sprintf(`"candidates":%d`, res.Candidates)) {
		t.Errorf("object record %q missing candidates", body)
	}
	if resp, _ := get("judge|nope|nothere"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("malware|x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("foreign key prefix = %d, want 400", resp.StatusCode)
	}

	// Push a record for a different key and read it back.
	otherKey := "judge|" + m.Fingerprint() + "|0000synthetic"
	pushResp, err := http.Post(objectURL(base, otherKey), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pushResp.Body.Close()
	if pushResp.StatusCode != http.StatusNoContent {
		t.Fatalf("object POST = %d", pushResp.StatusCode)
	}
	if resp, got := get(otherKey); resp.StatusCode != http.StatusOK || got != body {
		t.Errorf("pushed record readback = %d, %q", resp.StatusCode, got)
	}
	// Garbage bodies are refused.
	badResp, err := http.Post(objectURL(base, otherKey), "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage POST = %d, want 400", badResp.StatusCode)
	}

	// Well-formed JSON the key kind's decoder refuses is refused too, and
	// never persisted: a verdict with more witnesses than candidates, a run
	// record under a judge key, outcomes whose counts no harness run
	// yields, an outcome that does not name its run, and records that
	// belong to another key — an SC verdict or repair under a PTX key, an
	// outcome whose runs differ from the key's, an outcome of another chip,
	// incantation and seed, and run keys whose chip or incantation runOne
	// never writes.
	sc, err := s.model("sc")
	if err != nil {
		t.Fatal(err)
	}
	scRec := `{"model":"SC","candidates":4,"allowed":3}`
	const run = `"chip":"Titan","incant":"ms+ts+tr","seed":1,`
	runRec := `{` + run + `"histogram":{"0:r1=1 x=1":3},"matches":3,"runs":3}`
	judgeKey := func(i int) string { return fmt.Sprintf("judge|%s|0000refused%d", m.Fingerprint(), i) }
	runKey := func(i int) string { return fmt.Sprintf("run|0000refused%d|Titan|ms+ts+tr|3|1", i) }
	for i, bad := range []struct{ key, body string }{
		{judgeKey(8), scRec},
		{fmt.Sprintf("repair|%s|0000refused9", m.Fingerprint()), `{"model":"SC","verified":false,"reason":"none"}`},
		{"run|0000refused10|Titan|ms+ts+tr|10|1", runRec},
		{"run|0000refused11|GTX Titan|ms+ts+tr|3|1", runRec},
		{"run|0000refused12|Titan|tr+ms+ts|3|1", runRec},
		{"run|0000refused13|Titan|ms+ts+tr|3", runRec},
		{judgeKey(0), `{"model":"PTX","candidates":2,"allowed":2,"witnesses":3,"observable":true}`},
		{judgeKey(1), runRec},
		{runKey(2), `{` + run + `"histogram":{"a":4,"b":-1},"matches":3,"runs":3}`},
		{runKey(3), `{` + run + `"histogram":{"a":2},"matches":2,"runs":3}`},
		{runKey(4), `{` + run + `"histogram":{"a":3},"matches":4,"runs":3}`},
		{runKey(5), `{` + run + `"histogram":{"a":3},"matches":-1,"runs":3}`},
		{runKey(6), `{` + run + `"histogram":{"a":9223372036854775807,"b":9223372036854775807,"c":3},"matches":1,"runs":1}`},
		{runKey(14), `{"histogram":{"0:r1=1 x=1":3},"matches":3,"runs":3}`},
		{"run|0000refused7|GTX280|none|3|9", runRec},
	} {
		resp, err := http.Post(objectURL(base, bad.key), "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: POST of invalid record %s = %d, want 400", i, bad.body, resp.StatusCode)
		}
		if resp, _ := get(bad.key); resp.StatusCode != http.StatusNotFound {
			t.Errorf("case %d: refused record %s was stored: GET = %d", i, bad.body, resp.StatusCode)
		}
	}
	// The same run record is accepted under its own run's key, of the
	// fingerprint it was just refused under, and the SC verdict under an SC
	// judge key.
	if resp, err := http.Post(objectURL(base, runKey(7)), "application/json", strings.NewReader(runRec)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNoContent {
		t.Errorf("run record POST under a run key = %d, want 204", resp.StatusCode)
	}
	scKey := "judge|" + sc.Fingerprint() + "|0000accepted"
	if resp, err := http.Post(objectURL(base, scKey), "application/json", strings.NewReader(scRec)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNoContent {
		t.Errorf("SC verdict POST under an SC key = %d, want 204", resp.StatusCode)
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
