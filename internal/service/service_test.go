package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/litmus/litmustest"
)

// newTestService spins a Server on httptest and returns it with a Client.
func newTestService(t *testing.T, cfg Config) (*Server, *Client) {
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
	return s, NewClient(ts.URL)
}

// TestJudgeMatchesCLIForEveryPaperTest is the acceptance pin: for every
// paper test the service's verdict line is byte-identical to what the
// gpuherd CLI prints (core.Judge's verdict String).
func TestJudgeMatchesCLIForEveryPaperTest(t *testing.T) {
	_, client := newTestService(t, Config{})
	m := core.PTX()
	for _, test := range litmus.PaperTests() {
		want, err := core.Judge(m, test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		res, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: test.Name}})
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if res.Verdict != want.String() {
			t.Errorf("%s:\nservice %q\ncli     %q", test.Name, res.Verdict, want.String())
		}
		if covered, note := core.Covers(test); res.Covered != covered || res.CoverageNote != note {
			t.Errorf("%s: coverage (%v, %q) differs from core (%v, %q)",
				test.Name, res.Covered, res.CoverageNote, covered, note)
		}
		if res.Fingerprint != test.Fingerprint() {
			t.Errorf("%s: fingerprint mismatch", test.Name)
		}
	}
}

// TestParallelIdenticalJudgeSingleComputation is the singleflight pin: N
// concurrent identical judge requests return byte-identical verdicts with
// exactly one underlying enumeration — one cache miss, N-1 hits.
func TestParallelIdenticalJudgeSingleComputation(t *testing.T) {
	srv, client := newTestService(t, Config{MaxInFlight: 64})
	const n = 24

	results := make([]*JudgeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Judge(context.Background(),
				JudgeRequest{TestRef: TestRef{Test: "coRR"}, Model: "ptx"})
		}(i)
	}
	wg.Wait()

	computed := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Verdict != results[0].Verdict {
			t.Errorf("request %d verdict %q differs from %q", i, results[i].Verdict, results[0].Verdict)
		}
		a, b := *results[i], *results[0]
		a.Cached, b.Cached = false, false
		a.Source, b.Source = "", ""
		if a != b {
			t.Errorf("request %d result differs beyond the cached marker: %+v vs %+v", i, results[i], results[0])
		}
		if !results[i].Cached {
			computed++
		}
	}
	if computed != 1 {
		t.Errorf("%d responses claim to have computed; singleflight wants exactly 1", computed)
	}
	st := srv.cache.Stats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 computation for %d identical requests", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.Hits, n-1)
	}
}

// TestJudgeCacheIsContentAddressed: an inline source that is semantically
// coRR (different name) must hit coRR's cache entry yet be rendered under
// its own name.
func TestJudgeCacheIsContentAddressed(t *testing.T) {
	srv, client := newTestService(t, Config{})
	first, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}

	alias := litmus.CoRR()
	alias.Name = "corr-alias"
	res, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Source: alias.String()}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("semantically identical source must hit the content-addressed cache")
	}
	if !strings.HasPrefix(res.Verdict, "Test corr-alias:") {
		t.Errorf("verdict %q must be rendered under the request's name", res.Verdict)
	}
	wantSuffix := strings.TrimPrefix(first.Verdict, "Test coRR:")
	if got := strings.TrimPrefix(res.Verdict, "Test corr-alias:"); got != wantSuffix {
		t.Errorf("verdict body %q differs from original %q", got, wantSuffix)
	}
	if st := srv.cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", st)
	}
}

func TestJudgeBatchAndModels(t *testing.T) {
	_, client := newTestService(t, Config{})
	refs := []TestRef{{Test: "coRR"}, {Test: "mp"}, {Test: "sb"}}
	results, err := client.JudgeBatch(context.Background(), refs, "sc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Test != refs[i].Test {
			t.Errorf("result %d is %q, want request order preserved", i, res.Test)
		}
		if res.Observable {
			t.Errorf("%s must be forbidden under SC", res.Test)
		}
	}

	if _, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: "coRR"}, Model: "nope"}); err == nil {
		t.Error("unknown model must fail")
	}
	if _, err := client.Judge(context.Background(), JudgeRequest{}); err == nil {
		t.Error("empty request must fail")
	}
	if _, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: "no-such-test"}}); err == nil {
		t.Error("unknown test must fail")
	}
}

func TestParseEndpoint(t *testing.T) {
	_, client := newTestService(t, Config{})
	src := litmus.MP(litmus.NoFence).String()
	res, err := client.Parse(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "mp" || res.Threads != 2 {
		t.Errorf("parse = %q/%d threads", res.Name, res.Threads)
	}
	if res.Fingerprint != litmus.MP(litmus.NoFence).Fingerprint() {
		t.Error("parse fingerprint differs from direct construction")
	}
	if res.Canonical != src {
		t.Error("canonical form must round-trip")
	}
	if _, err := client.Parse(context.Background(), "not litmus at all"); err == nil {
		t.Error("bad source must fail")
	}
}

// TestRunMatchesCLIAndCaches: the run endpoint's Output is byte-identical
// to a direct harness run (which is what the gpulitmus CLI prints), and a
// repeat request is served from cache.
func TestRunMatchesCLIAndCaches(t *testing.T) {
	_, client := newTestService(t, Config{})
	req := RunRequest{TestRef: TestRef{Test: "coRR"}, Chip: "Titan", Runs: 600, Seed: 7}

	want, err := harness.Run(litmus.CoRR(), harness.Config{
		Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 600, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != want.String() {
		t.Errorf("service output:\n%s\nwant:\n%s", res.Output, want.String())
	}
	if res.Cached {
		t.Error("first run cannot be cached")
	}
	again, err := client.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical run request must hit the cache")
	}
	if again.Output != res.Output {
		t.Error("cached output differs")
	}

	// Different seed: different entry.
	req.Seed = 8
	other, err := client.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different seed must not hit the cache")
	}
}

// TestSweepMatchesCLI: with seed_mode "fixed" the sweep's per-cell output
// is byte-identical to what the gpulitmus CLI prints for the same flags
// (every test from the same base seed on one chip).
func TestSweepMatchesCLI(t *testing.T) {
	_, client := newTestService(t, Config{})
	names := []string{"coRR", "mp", "sb"}
	req := SweepRequest{
		Tests:    []TestRef{{Test: "coRR"}, {Test: "mp"}, {Test: "sb"}},
		Chips:    []string{"Titan"},
		Runs:     500,
		Seed:     3,
		SeedMode: "fixed",
	}
	var rows []SweepRow
	var done bool
	err := client.Sweep(context.Background(), req, func(row SweepRow) error {
		if row.Done {
			done = true
			if row.Jobs != 3 {
				t.Errorf("done row reports %d jobs, want 3", row.Jobs)
			}
			return nil
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("completed sweep must end with a done row")
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	for i, row := range rows {
		test, err := litmus.ByName(names[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := harness.Run(test, harness.Config{
			Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 500, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if row.Output != want.String() {
			t.Errorf("row %d (%s):\n%s\nwant:\n%s", i, row.Test, row.Output, want.String())
		}
		if row.Seed != 3 {
			t.Errorf("row %d seed = %d, want the fixed base seed", i, row.Seed)
		}
	}
}

// TestSweepDerivedSeedsPreserved: default seed mode derives per-cell seeds
// exactly like the campaign engine, so rows carry the engine's seeds and
// outcomes.
func TestSweepDerivedSeedsPreserved(t *testing.T) {
	_, client := newTestService(t, Config{})
	req := SweepRequest{
		Tests: []TestRef{{Test: "coRR"}, {Test: "mp"}},
		Chips: []string{"Titan", "GTX280"},
		Runs:  300,
		Seed:  11,
	}
	var rows []SweepRow
	if err := client.Sweep(context.Background(), req, func(row SweepRow) error {
		if !row.Done {
			rows = append(rows, row)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 2×2", len(rows))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })

	// The same spec through the campaign engine directly.
	seen := make(map[int]SweepRow, len(rows))
	for _, row := range rows {
		seen[row.Index] = row
	}
	tests := []*litmus.Test{litmus.CoRR(), litmus.MP(litmus.NoFence)}
	chips := []*chip.Profile{chip.GTXTitan, chip.GTX280}
	idx := 0
	for range tests {
		for range chips {
			row := seen[idx]
			test := tests[row.TestIndex]
			profile := chips[row.ChipIndex]
			want, err := harness.Run(test, harness.Config{
				Chip: profile, Incant: chip.Default(), Runs: 300, Seed: row.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if row.Output != want.String() {
				t.Errorf("cell %d: output differs from engine outcome at its seed", idx)
			}
			idx++
		}
	}
}

// TestCancelledSweepStopsPromptly: cancelling the request context mid-
// stream stops row production and releases the in-flight slot well before
// the full campaign could have finished.
func TestCancelledSweepStopsPromptly(t *testing.T) {
	srv, client := newTestService(t, Config{MaxInFlight: 2})
	// 16 cells × 40k runs would take many seconds; cancellation after the
	// first row must end the request in a fraction of that.
	refs := make([]TestRef, 8)
	for i := range refs {
		refs[i] = TestRef{Test: "mp"}
	}
	req := SweepRequest{
		Tests:       refs,
		Chips:       []string{"Titan", "GTX6"},
		Runs:        40000,
		Seed:        5,
		Parallelism: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	err := client.Sweep(ctx, req, func(row SweepRow) error {
		if row.Done {
			t.Error("cancelled sweep must not report done")
			return nil
		}
		rows++
		if rows == 1 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled sweep must return an error")
	}
	if rows == 0 {
		t.Fatal("no row arrived before cancellation; the sweep never started")
	}
	if rows >= 16 {
		t.Fatalf("read %d of 16 rows; cancellation did not truncate the stream", rows)
	}
	// The handler must return and release its admission slot promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, err := srv.statsSnapshot(); err == nil && st.Inflight.Current == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot not released after cancellation")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// statsSnapshot reads the server's stats without HTTP (test helper).
func (s *Server) statsSnapshot() (*StatsResponse, error) {
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// TestAdmissionControl429: a saturated in-flight budget answers 429 with
// Retry-After, and the rejection is counted; a freed slot admits again.
func TestAdmissionControl429(t *testing.T) {
	srv, client := newTestService(t, Config{MaxInFlight: 1})
	srv.inflight <- struct{}{} // occupy the only slot

	body := strings.NewReader(`{"test": "coRR"}`)
	resp, err := http.Post(srvURL(t, client)+"/v1/judge", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// Retry-After is a whole number of seconds from the rolling compute-
	// time estimate (1s floor with no observations yet), not a hardcoded
	// string.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	// The body reports the configured budget — not a racy re-read of the
	// in-flight count, which can claim fewer requests in flight than the
	// budget this request was just rejected against.
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "budget (1)") {
		t.Errorf("429 body %q must name the configured budget", er.Error)
	}
	if st, _ := srv.statsSnapshot(); st.Inflight.Rejected != 1 || st.Inflight.Current != 1 {
		t.Errorf("inflight stats = %+v", st.Inflight)
	}

	<-srv.inflight // free the slot
	if _, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: "coRR"}}); err != nil {
		t.Errorf("freed slot must admit: %v", err)
	}
}

// srvURL digs the base URL back out of a test client.
func srvURL(t *testing.T, c *Client) string {
	t.Helper()
	if c.base == "" {
		t.Fatal("client has no base URL")
	}
	return c.base
}

// TestStatsAndHealth: the observability endpoints report sane shapes.
func TestStatsAndHealth(t *testing.T) {
	_, client := newTestService(t, Config{MaxInFlight: 3, CacheSize: 128})
	if _, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: "coRR"}}); err != nil {
		t.Fatal(err)
	}
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %+v", h)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Capacity != 128 || st.Cache.Entries != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
	if st.Inflight.Max != 3 || st.Inflight.Current != 0 {
		t.Errorf("inflight stats = %+v", st.Inflight)
	}
	if st.Requests["judge"] != 1 || st.Requests["stats"] == 0 {
		t.Errorf("request counters = %+v", st.Requests)
	}
}

// TestCacheLRUBound: the cache evicts least-recently-used entries beyond
// its capacity and counts evictions.
func TestCacheLRUBound(t *testing.T) {
	c := newCache(2)
	get := func(key string) bool {
		cached := true
		_, _, _ = c.Do(context.Background(), key, func() (any, error) {
			cached = false
			return key, nil
		})
		return cached
	}
	if get("a") || get("b") {
		t.Fatal("fresh keys cannot be cached")
	}
	if !get("a") {
		t.Error("a must still be cached")
	}
	get("c") // evicts b (LRU), not the freshly-touched a
	if !get("a") {
		t.Error("a must survive the eviction")
	}
	if get("b") {
		t.Error("b must have been evicted")
	}
	if st := c.Stats(); st.Evictions == 0 || st.Entries > 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCacheErrorNotCached: a failed computation is retried by the next
// request instead of pinning the error.
func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(8)
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() (any, error) {
		calls++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("error must propagate")
	}
	v, cached, err := c.Do(context.Background(), "k", func() (any, error) {
		calls++
		return "ok", nil
	})
	if err != nil || cached || v != "ok" {
		t.Errorf("retry = (%v, %v, %v)", v, cached, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2", calls)
	}
}

// TestEvictionPinsInFlightEntries is the singleflight regression pin:
// evicting an in-flight entry used to let a later claim of the same key
// start a second leader, running the computation twice exactly under the
// cache-churn load singleflight exists for. In-flight entries must be
// pinned until their ready channel closes.
func TestEvictionPinsInFlightEntries(t *testing.T) {
	c := newCache(1)
	var computations atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan string)
	go func() {
		v, _, _ := c.Do(context.Background(), "hot", func() (any, error) {
			computations.Add(1)
			close(started)
			<-release
			return "computed-once", nil
		})
		leaderDone <- v.(string)
	}()
	<-started

	// Churn other keys past the cap while "hot" is still in flight.
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("churn-%d", i)
		if _, _, err := c.Do(context.Background(), key, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// Re-claim the in-flight key: it must still be resident, so this call
	// joins the blocked leader instead of starting a second computation.
	joinDone := make(chan string)
	go func() {
		v, _, _ := c.Do(context.Background(), "hot", func() (any, error) {
			computations.Add(1)
			return "computed-twice", nil
		})
		joinDone <- v.(string)
	}()
	close(release)
	if v := <-leaderDone; v != "computed-once" {
		t.Errorf("leader got %q", v)
	}
	if v := <-joinDone; v != "computed-once" {
		t.Errorf("re-claim got %q — a second leader ran", v)
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("computation ran %d times, want exactly 1", n)
	}
	// Completed entries beyond the cap are evicted once leaders finish.
	if _, _, err := c.Do(context.Background(), "after", func() (any, error) { return "x", nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries > 1 {
		t.Errorf("%d entries resident after all leaders finished, cap 1", st.Entries)
	}
}

// TestPeekDoesNotClaim: Peek never creates entries or counts misses, and
// waits for an in-flight leader instead of reporting absence — the
// behaviour the fleet's /v1/object endpoint builds on.
func TestPeekDoesNotClaim(t *testing.T) {
	c := newCache(4)
	if _, ok, err := c.Peek(context.Background(), "absent"); ok || err != nil {
		t.Fatalf("Peek(absent) = %v, %v", ok, err)
	}
	if st := c.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("Peek must not claim: %+v", st)
	}

	if _, _, err := c.Do(context.Background(), "k", func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Peek(context.Background(), "k"); !ok || err != nil || v != "v" {
		t.Fatalf("Peek(k) = %v, %v, %v", v, ok, err)
	}

	// In-flight: Peek joins the leader's singleflight.
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "slow", func() (any, error) {
		close(started)
		<-release
		return "slow-value", nil
	})
	<-started
	peeked := make(chan any)
	go func() {
		v, ok, err := c.Peek(context.Background(), "slow")
		if !ok || err != nil {
			t.Errorf("Peek(slow) = %v, %v, %v", v, ok, err)
		}
		peeked <- v
	}()
	// A context-bounded Peek of the same in-flight key gives up cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, ok, err := c.Peek(ctx, "slow"); ok || err == nil {
		t.Errorf("bounded Peek of in-flight key = %v, %v; want ctx error", ok, err)
	}
	close(release)
	if v := <-peeked; v != "slow-value" {
		t.Errorf("Peek joined value = %v", v)
	}
}

// TestRetryEstimator: the Retry-After hint follows the rolling mean of
// recent compute times, floored at 1s and clamped at 60s.
func TestRetryEstimator(t *testing.T) {
	var e retryEstimator
	if got := e.hintSeconds(); got != 1 {
		t.Errorf("empty estimator hint = %d, want 1", got)
	}
	e.observe(2 * time.Second)
	e.observe(4 * time.Second)
	if got := e.hintSeconds(); got != 3 {
		t.Errorf("hint = %d, want ceil(mean(2s,4s)) = 3", got)
	}
	var fast retryEstimator
	fast.observe(50 * time.Millisecond)
	if got := fast.hintSeconds(); got != 1 {
		t.Errorf("fast hint = %d, want floor 1", got)
	}
	var slow retryEstimator
	for i := 0; i < 40; i++ {
		slow.observe(10 * time.Minute)
	}
	if got := slow.hintSeconds(); got != 60 {
		t.Errorf("slow hint = %d, want clamp 60", got)
	}
}

// failingWriter errors on every body write, standing in for a client
// that vanished mid-response.
type failingWriter struct{ h http.Header }

func (w *failingWriter) Header() http.Header       { return w.h }
func (w *failingWriter) WriteHeader(int)           {}
func (w *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("client vanished") }

// TestWriteJSONLogsEncodeFailures: a mid-body encode failure is logged
// and counted instead of vanishing, so truncated responses are
// diagnosable via the log and the /metrics counter.
func TestWriteJSONLogsEncodeFailures(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := New(Config{Logger: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.writeJSON(&failingWriter{h: http.Header{}}, http.StatusOK, map[string]string{"k": "v"})
	if !strings.Contains(logBuf.String(), "response encode") {
		t.Errorf("encode failure not logged: %q", logBuf.String())
	}
	if got := s.met.encodeErrors.Load(); got != 1 {
		t.Errorf("encodeErrors = %d, want 1", got)
	}
	if !strings.Contains(s.renderMetrics(), "gpulitmusd_response_encode_errors_total 1") {
		t.Error("encode failure must surface on /metrics")
	}
}

// metricValue extracts one sample line ("name value" or
// `name{labels} value`) from Prometheus text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestMetricsEndpoint: GET /metrics exposes cache, store, peer,
// admission, request-count and histogram series in Prometheus text
// format, with values agreeing with the requests made.
func TestMetricsEndpoint(t *testing.T) {
	_, client := newTestService(t, Config{MaxInFlight: 5})
	ctx := context.Background()
	if _, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}}); err != nil {
		t.Fatal(err)
	}
	if res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}}); err != nil || !res.Cached {
		t.Fatalf("second judge = %+v, %v", res, err)
	}
	text, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "gpulitmusd_computations_total"); got != 1 {
		t.Errorf("computations_total = %d, want 1", got)
	}
	if got := metricValue(t, text, "gpulitmusd_cache_misses_total"); got != 1 {
		t.Errorf("cache_misses_total = %d, want 1", got)
	}
	if got := metricValue(t, text, "gpulitmusd_cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total = %d, want 1", got)
	}
	if got := metricValue(t, text, `gpulitmusd_requests_total{endpoint="judge"}`); got != 2 {
		t.Errorf(`requests_total{judge} = %d, want 2`, got)
	}
	if got := metricValue(t, text, "gpulitmusd_inflight_budget"); got != 5 {
		t.Errorf("inflight_budget = %d, want 5", got)
	}
	if got := metricValue(t, text, "gpulitmusd_compute_seconds_count"); got != 1 {
		t.Errorf("compute_seconds_count = %d, want 1", got)
	}
	if got := metricValue(t, text, "gpulitmusd_judge_candidate_executions_count"); got != 1 {
		t.Errorf("judge_candidate_executions_count = %d, want 1", got)
	}
	if got := metricValue(t, text, `gpulitmusd_compute_seconds_bucket{le="+Inf"}`); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	for _, want := range []string{
		"# TYPE gpulitmusd_cache_hits_total counter",
		"# TYPE gpulitmusd_inflight_requests gauge",
		"# TYPE gpulitmusd_compute_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Pure-memory, unsharded server: no store or peer series.
	if strings.Contains(text, "gpulitmusd_store_entries") {
		t.Error("store series must be absent without -store")
	}
	if strings.Contains(text, "gpulitmusd_peers") {
		t.Error("peer gauge must be absent without -peers")
	}
}

// TestSweepUnresolvableTest422: sweep maps unresolvable tests to 422 like
// judge and run; spec-shape errors stay 400.
func TestSweepUnresolvableTest422(t *testing.T) {
	_, client := newTestService(t, Config{})
	post := func(body string) int {
		resp, err := http.Post(srvURL(t, client)+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"tests":[{"test":"no-such-test"}],"chips":["Titan"]}`); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown test: status %d, want 422", code)
	}
	if code := post(`{"tests":[{"test":"coRR"}],"chips":["no-such-chip"]}`); code != http.StatusBadRequest {
		t.Errorf("unknown chip: status %d, want 400", code)
	}
	if code := post(`{"tests":[{"test":"coRR"}],"chips":["Titan"],"seed_mode":"bogus"}`); code != http.StatusBadRequest {
		t.Errorf("unknown seed mode: status %d, want 400", code)
	}
}

// TestOverLimitBody413: a JSON body past maxObjectBytes is refused with
// 413 and a JSON error, and the server goes on serving.
func TestOverLimitBody413(t *testing.T) {
	_, client := newTestService(t, Config{})
	body := `{"source":"` + strings.Repeat("a", maxObjectBytes) + `"}`
	resp, err := http.Post(srvURL(t, client)+"/v1/judge", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413", resp.StatusCode)
	}
	if decErr != nil || e.Error == "" {
		t.Fatalf("over-limit body: error %+v (%v), want a JSON error", e, decErr)
	}
	res, err := client.Judge(context.Background(), JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil {
		t.Fatalf("judge after the refused body: %v", err)
	}
	if !strings.HasPrefix(res.Verdict, "Test coRR:") {
		t.Errorf("judge after the refused body: verdict %q", res.Verdict)
	}
}

// TestCachePanicDoesNotPoisonKey: a panicking computation unblocks waiters
// and leaves the key retryable.
func TestCachePanicDoesNotPoisonKey(t *testing.T) {
	c := newCache(8)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate")
			}
		}()
		_, _, _ = c.Do(context.Background(), "k", func() (any, error) { panic("boom") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, cached, err := c.Do(ctx, "k", func() (any, error) { return "ok", nil })
	if err != nil || cached || v != "ok" {
		t.Errorf("retry after panic = (%v, %v, %v); key must not be poisoned", v, cached, err)
	}
}

// TestSweepCellsCached: sweep cells are individually content-addressed
// under the same key shape as /v1/run, so (a) a repeated sweep serves every
// cell from the cache with byte-identical rows, and (b) a sweep primes the
// cache for single run requests on the same cell (and vice versa).
func TestSweepCellsCached(t *testing.T) {
	s, client := newTestService(t, Config{})
	req := SweepRequest{
		Tests:    []TestRef{{Test: "coRR"}, {Test: "mp"}},
		Chips:    []string{"Titan"},
		Runs:     400,
		Seed:     11,
		SeedMode: "fixed",
	}
	sweep := func() []SweepRow {
		t.Helper()
		var rows []SweepRow
		if err := client.Sweep(context.Background(), req, func(row SweepRow) error {
			if !row.Done {
				rows = append(rows, row)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
		return rows
	}

	first := sweep()
	if len(first) != 2 {
		t.Fatalf("got %d rows", len(first))
	}
	for _, row := range first {
		if row.Cached {
			t.Errorf("first sweep row %d must not be cached", row.Index)
		}
	}
	missesAfterFirst := s.cache.Stats().Misses

	second := sweep()
	for i, row := range second {
		if !row.Cached {
			t.Errorf("repeated sweep row %d must hit the cache", row.Index)
		}
		if row.Source != srcMemory.String() {
			t.Errorf("repeated sweep row %d source = %q, want memory", row.Index, row.Source)
		}
		row.Cached = first[i].Cached
		row.Source = first[i].Source
		if row != first[i] {
			t.Errorf("repeated sweep row %d differs from the first sweep's", i)
		}
	}
	if st := s.cache.Stats(); st.Misses != missesAfterFirst {
		t.Errorf("repeated sweep recomputed cells: %d misses, want %d", st.Misses, missesAfterFirst)
	}

	// A run request for one of the swept cells must hit the sweep's entry.
	res, err := client.Run(context.Background(), RunRequest{
		TestRef: TestRef{Test: "coRR"}, Chip: "Titan", Runs: 400, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("run request for a swept cell must hit the cache")
	}
	if res.Output != first[0].Output {
		t.Error("run output differs from the sweep cell's")
	}
}

// TestJudgeReportsPruning pins the pruning observability surface: a judge
// verdict over a test with a symmetry class (three interchangeable writers
// plus two readers) reports the pruned share in its result, the /v1/stats
// counter and /metrics — and the numbers agree with core.Judge. Replays
// from the cache keep the per-result number without re-counting it in the
// service totals, and symmetric-free tests report nothing (the field is
// omitted, keeping their JSON identical to earlier releases).
func TestJudgeReportsPruning(t *testing.T) {
	_, client := newTestService(t, Config{})
	ctx := context.Background()
	sym := litmustest.SymWriters(3)
	want, err := core.Judge(core.PTX(), sym)
	if err != nil {
		t.Fatal(err)
	}
	if want.Pruned() == 0 {
		t.Fatal("symmetric test must have a pruned share")
	}

	res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Source: sym.String()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != want.Pruned() || res.Candidates != want.Candidates {
		t.Errorf("judge reports %d pruned of %d candidates, core says %d of %d",
			res.Pruned, res.Candidates, want.Pruned(), want.Candidates)
	}

	cached, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Source: sym.String()}})
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.Pruned != res.Pruned {
		t.Errorf("cached replay = (cached %v, pruned %d), want (true, %d)", cached.Cached, cached.Pruned, res.Pruned)
	}

	corr, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil {
		t.Fatal(err)
	}
	if corr.Pruned != 0 {
		t.Errorf("coRR reports %d pruned; it has no symmetry classes", corr.Pruned)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Two computations happened (sym + coRR); only sym pruned anything, and
	// the cached replay must not double-count.
	if st.CandidatesPruned != int64(want.Pruned()) {
		t.Errorf("stats candidates_pruned = %d, want %d", st.CandidatesPruned, want.Pruned())
	}
	text, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "gpulitmusd_candidates_pruned_total"); got != int64(want.Pruned()) {
		t.Errorf("candidates_pruned_total = %d, want %d", got, want.Pruned())
	}
}

// TestVerdictRecordPrunedRoundTrip pins the store/wire codec for the
// pruned share: a record round-trips through its bytes with Pruned
// intact; records written before pruning existed (no pruned field) decode
// to "nothing pruned"; and records no enumeration yields — more pruned
// than visited candidates, negative counts, counts out of order, an
// observable flag that disagrees with the witnesses — are rejected as
// malformed.
func TestVerdictRecordPrunedRoundTrip(t *testing.T) {
	want := &verdictRecord{Model: "PTX", Candidates: 24, Allowed: 18, Witnesses: 6, Observable: true, Pruned: 20}
	b, err := encodeRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeVerdict(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec := got.(*verdictRecord); *dec != *want {
		t.Errorf("decoded record = %+v, want %+v", *dec, *want)
	}

	legacy := []byte(`{"model":"PTX","candidates":24,"allowed":18,"witnesses":6,"observable":true}`)
	got, err = decodeVerdict(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if dec := got.(*verdictRecord); dec.Pruned != 0 || dec.Candidates != 24 {
		t.Errorf("legacy record decoded to pruned %d of %d; want 0 of 24", dec.Pruned, dec.Candidates)
	}
	if _, err := decodeVerdict([]byte(`{"model":"PTX"}`)); err != nil {
		t.Errorf("a test with no candidates must decode: %v", err)
	}

	for _, bad := range []string{
		`{"model":"PTX","candidates":4,"pruned":5}`,
		`{"model":"PTX","candidates":4,"pruned":4}`,
		`{"model":"PTX","pruned":1}`,
		`{"model":"PTX","candidates":4,"pruned":-1}`,
		`{"model":"PTX","candidates":-4}`,
		`{"model":"PTX","candidates":4,"allowed":-1}`,
		`{"model":"PTX","candidates":4,"allowed":2,"witnesses":-1}`,
		`{"model":"PTX","candidates":4,"allowed":5}`,
		`{"model":"PTX","candidates":4,"allowed":2,"witnesses":3,"observable":true}`,
		`{"model":"PTX","candidates":4,"allowed":2,"witnesses":1}`,
		`{"model":"PTX","candidates":4,"allowed":2,"observable":true}`,
		`{"candidates":4}`,
		`null`,
	} {
		if _, err := decodeVerdict([]byte(bad)); err == nil {
			t.Errorf("malformed record %s must be rejected", bad)
		}
	}
}

// TestJudgeStaticSkipsEnumeration: with static opted in, a statically
// decided verdict bypasses both the enumeration and the cache (static
// decisions are cheaper to recompute than to look up), agrees with the
// full judge, and is counted on /v1/stats and /metrics. A statically
// Unknown test falls through to the ordinary cached enumeration.
func TestJudgeStaticSkipsEnumeration(t *testing.T) {
	srv, client := newTestService(t, Config{})
	ctx := context.Background()

	// mp+membar.gls is statically Forbidden under ptx (forced cycle).
	res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "mp+membar.gls"}, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StaticSkipped || res.StaticReason == "" {
		t.Fatalf("static judge of mp+membar.gls: skipped=%v reason=%q, want a static decision", res.StaticSkipped, res.StaticReason)
	}
	if res.Observable {
		t.Error("mp+membar.gls must be forbidden under ptx")
	}
	if res.Candidates != 0 || res.Allowed != 0 || res.Witnesses != 0 {
		t.Errorf("static result carries candidate counts (%d/%d/%d); nothing was enumerated", res.Candidates, res.Allowed, res.Witnesses)
	}
	if !strings.Contains(res.Verdict, "(static, enumeration skipped)") {
		t.Errorf("verdict %q must carry the static annotation", res.Verdict)
	}
	want, err := core.Judge(core.PTX(), litmus.MP(litmus.FenceGL))
	if err != nil {
		t.Fatal(err)
	}
	if want.Observable != res.Observable {
		t.Errorf("static observable %v disagrees with the full judge %v", res.Observable, want.Observable)
	}
	if st := srv.cache.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("static decision touched the cache: %+v", st)
	}

	// coRR is statically Unknown under ptx: the flag must not change the
	// enumerated result, which flows through the cache as usual.
	u, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.StaticSkipped || u.StaticReason != "" {
		t.Errorf("coRR is statically unknown; result claims a static skip: %+v", u)
	}
	if u.Candidates == 0 {
		t.Error("fallback enumeration produced no candidates")
	}
	if st := srv.cache.Stats(); st.Misses != 1 {
		t.Errorf("fallback enumeration must cache-miss once: %+v", st)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticSkipped != 1 {
		t.Errorf("stats static_skipped = %d, want 1", stats.StaticSkipped)
	}
	text, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "gpulitmusd_static_skipped_total 1") {
		t.Error("/metrics does not report gpulitmusd_static_skipped_total 1")
	}
}

// TestSweepStaticSkipsUnsatCells: with static opted in, cells whose test
// has a statically unsatisfiable condition skip the harness and carry
// "unsat" provenance, while every other cell is byte-identical to an
// ordinary sweep.
func TestSweepStaticSkipsUnsatCells(t *testing.T) {
	srv, client := newTestService(t, Config{})
	unsat := litmus.NewTest("unsat").
		Global("x", 0).
		Thread("st.cg [x],1").
		Thread("ld.cg r1,[x]").
		Exists("1:r1=5").
		MustBuild()
	req := SweepRequest{
		Tests:    []TestRef{{Source: unsat.String()}, {Test: "coRR"}},
		Chips:    []string{"Titan"},
		Runs:     300,
		Seed:     3,
		SeedMode: "fixed",
		Static:   true,
	}
	rows := make(map[string]SweepRow)
	err := client.Sweep(context.Background(), req, func(row SweepRow) error {
		if !row.Done {
			rows[row.Test] = row
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}

	skipped := rows["unsat"]
	if skipped.Static != "unsat" {
		t.Errorf("unsat cell provenance = %q, want \"unsat\"", skipped.Static)
	}
	if skipped.Matches != 0 || skipped.Observed || skipped.Output != "" {
		t.Errorf("skipped cell must carry zero matches and no output: %+v", skipped)
	}
	if skipped.Error != "" {
		t.Errorf("skipped cell reports error %q", skipped.Error)
	}

	ran := rows["coRR"]
	if ran.Static != "" {
		t.Errorf("coRR cell claims static provenance %q", ran.Static)
	}
	wantOut, err := harness.Run(litmus.CoRR(), harness.Config{
		Chip: chip.GTXTitan, Incant: chip.Default(), Runs: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Output != wantOut.String() {
		t.Errorf("executed cell output differs from a direct harness run:\n%s\nwant:\n%s", ran.Output, wantOut.String())
	}
	if got := srv.met.staticSkipped.Load(); got != 1 {
		t.Errorf("staticSkipped = %d, want exactly the one skipped cell", got)
	}
}

// TestSweepStaticPreparesUnderRequest: a static sweep prepares its tests
// under the request context, so the request's trace records a prepare
// phase and /metrics observes it once for the request.
func TestSweepStaticPreparesUnderRequest(t *testing.T) {
	srv, client := newTestService(t, Config{})
	req := SweepRequest{
		Tests:  []TestRef{{Test: "mp"}, {Test: "coRR"}},
		Chips:  []string{"Titan"},
		Runs:   100,
		Seed:   3,
		Static: true,
	}
	if err := client.Sweep(context.Background(), req, func(SweepRow) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, srv.renderMetrics(), "gpulitmusd_phase_prepare_seconds_count"); n != 1 {
		t.Errorf("prepare phase observed %d times after one static sweep, want 1", n)
	}
}

// TestRepairEndpoint pins the /v1/repair contract on the paper's worked
// example: mp-L1+membar.ctas repairs by strengthening both membar.ctas to
// membar.gl, the rendered repaired source is byte-identical to what the
// core engine produces (the same bytes gpulint -fix emits), the repaired
// test judges Never, and a second request is served from cache with an
// otherwise byte-identical payload.
func TestRepairEndpoint(t *testing.T) {
	srv, client := newTestService(t, Config{})
	ctx := context.Background()

	res, err := client.Repair(ctx, RepairRequest{TestRef: TestRef{Test: "mp-L1+membar.ctas"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.NoRepairNeeded {
		t.Fatalf("want a verified non-trivial repair, got %+v", res)
	}
	if len(res.Actions) != 2 {
		t.Fatalf("actions = %v, want the two-membar strengthening", res.Actions)
	}
	for _, a := range res.Actions {
		if a.Kind != "strengthen" || a.OldScope != "cta" || a.Scope != "gl" {
			t.Errorf("action %+v, want strengthen cta -> gl", a)
		}
	}
	if res.Cached {
		t.Error("first repair claims cached")
	}

	tst, err := litmus.ByName("mp-L1+membar.ctas")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Repair(core.PTX(), tst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != want.Repaired.String() {
		t.Errorf("service repaired source differs from core engine:\n%s\nwant:\n%s", res.Repaired, want.Repaired.String())
	}
	if res.RepairedFingerprint != want.Repaired.Fingerprint() {
		t.Error("repaired fingerprint differs from core engine")
	}
	if res.Summary != want.Summary() {
		t.Errorf("summary %q, want %q", res.Summary, want.Summary())
	}

	repaired, err := litmus.Parse(res.Repaired)
	if err != nil {
		t.Fatalf("repaired source does not re-parse: %v", err)
	}
	v, err := core.Judge(core.PTX(), repaired)
	if err != nil {
		t.Fatal(err)
	}
	if v.Observable {
		t.Error("repaired test is not Never under PTX")
	}

	res2, err := client.Repair(ctx, RepairRequest{TestRef: TestRef{Test: "mp-L1+membar.ctas"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("second identical repair not served from cache")
	}
	a, b := *res, *res2
	a.Cached, b.Cached = false, false
	a.Source, b.Source = "", ""
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("cached repair differs beyond the cached marker:\n%s\nvs\n%s", aj, bj)
	}
	if got := srv.met.repairsSynthesized.Load(); got != 1 {
		t.Errorf("repairsSynthesized = %d, want exactly 1 for two identical requests", got)
	}
}

// TestRepairAlreadyForbidden: a test whose behaviour the model already
// forbids answers NoRepairNeeded with no actions and no repaired source.
func TestRepairAlreadyForbidden(t *testing.T) {
	_, client := newTestService(t, Config{})
	res, err := client.Repair(context.Background(), RepairRequest{TestRef: TestRef{Test: "mp-L1+membar.gls"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || !res.NoRepairNeeded {
		t.Fatalf("want no-repair-needed, got %+v", res)
	}
	if len(res.Actions) != 0 || res.Repaired != "" || res.RepairedFingerprint != "" {
		t.Errorf("no-repair-needed response must carry no actions or source: %+v", res)
	}
}

// TestRepairCacheIsContentAddressed: an inline source identical in content
// to mp-L1+membar.ctas under another name hits its repair record and the
// repaired source renders under the requesting test's own name.
func TestRepairCacheIsContentAddressed(t *testing.T) {
	srv, client := newTestService(t, Config{})
	ctx := context.Background()
	if _, err := client.Repair(ctx, RepairRequest{TestRef: TestRef{Test: "mp-L1+membar.ctas"}}); err != nil {
		t.Fatal(err)
	}
	tst, err := litmus.ByName("mp-L1+membar.ctas")
	if err != nil {
		t.Fatal(err)
	}
	renamed := strings.Replace(tst.String(), tst.Name, "mp-relabelled", 1)
	res, err := client.Repair(ctx, RepairRequest{TestRef: TestRef{Source: renamed}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("content-identical repair not served from cache")
	}
	if res.Test != "mp-relabelled" {
		t.Errorf("response test = %q, want the requesting name", res.Test)
	}
	if !strings.Contains(res.Repaired, "mp-relabelled") {
		t.Errorf("repaired source must render under the requesting name:\n%s", res.Repaired)
	}
	if got := srv.met.repairsSynthesized.Load(); got != 1 {
		t.Errorf("repairsSynthesized = %d, want 1 (hit must not re-search)", got)
	}
}

// TestSweepRepairReportsRepairedCells is the campaign hook pin: a repair
// sweep reports, per cell, whether the suggested fix makes the weak
// behaviour unobservable there. On GTXTitan the broken mp-L1+membar.ctas
// is observed while its repaired form is not — the cell the fix forbids.
func TestSweepRepairReportsRepairedCells(t *testing.T) {
	_, client := newTestService(t, Config{})
	req := SweepRequest{
		Tests:    []TestRef{{Test: "mp-L1+membar.ctas"}, {Test: "mp-L1+membar.gls"}},
		Chips:    []string{"Titan"},
		Runs:     2000,
		Seed:     3,
		SeedMode: "fixed",
		Repair:   true,
	}
	rows := make(map[string]SweepRow)
	err := client.Sweep(context.Background(), req, func(row SweepRow) error {
		if !row.Done {
			rows[row.Test] = row
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := rows["mp-L1+membar.ctas"]
	if broken.Repair != "verified" {
		t.Fatalf("broken cell repair provenance = %q, want \"verified\" (%+v)", broken.Repair, broken)
	}
	if !broken.Observed {
		t.Error("broken cell should observe the weak behaviour on Titan at this seed")
	}
	if broken.RepairedObserved || broken.RepairedMatches != 0 {
		t.Errorf("repaired run should be unobservable: %+v", broken)
	}
	fixed := rows["mp-L1+membar.gls"]
	if fixed.Repair != "unneeded" {
		t.Errorf("already-forbidden cell repair provenance = %q, want \"unneeded\"", fixed.Repair)
	}
}

// TestServeBoundsConnections pins the timeouts of the http.Server Serve
// runs: a client that sends no headers, or leaves a keep-alive connection
// idle, cannot hold the connection open for ever.
func TestServeBoundsConnections(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := s.httpServer(context.Background())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("Serve's server: ReadHeaderTimeout %v, IdleTimeout %v; want %v and %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Errorf("timeouts %v and %v: zero or negative means none", readHeaderTimeout, idleTimeout)
	}
}
