// Package service exposes the judge/run/sweep pipeline as a long-lived
// HTTP daemon (gpulitmusd), amortising the compiled-model and
// streaming-verdict machinery across requests. One-shot CLI invocations
// re-parse tests, re-compile .cat models and re-enumerate executions that
// thousands of identical queries would share; the service owns those
// computations behind a content-addressed, LRU-bounded verdict/outcome
// cache with singleflight deduplication, so N concurrent identical
// requests cost one enumeration.
//
// Determinism guarantee: for the same request content the service returns
// byte-identical verdict and outcome text to the gpuherd/gpulitmus CLIs —
// caching, request concurrency and per-request parallelism caps never
// change a byte of any payload (only the `cached` marker and delivery
// order of sweep rows vary).
//
// Admission control: compute endpoints (/v1/judge, /v1/run, /v1/sweep)
// pass through a bounded in-flight budget layered over the worker pool;
// saturation answers 429 with a Retry-After hint rather than queueing
// unboundedly. Request-scoped contexts propagate into candidate
// enumeration (axiom.Enumeration.StreamCtx) and campaign streaming
// (campaign.StreamCtx), so an abandoned request stops consuming the pool
// mid-stream.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/service/store"
)

// Config parameterises a Server. Zero fields select defaults.
type Config struct {
	// MaxInFlight bounds concurrently admitted compute requests (judge,
	// run, sweep). Requests beyond the budget receive 429 with Retry-After.
	// Default: 2×GOMAXPROCS, at least 4.
	MaxInFlight int
	// MaxParallelism caps any single request's worker parallelism (verdict
	// pipeline, harness, campaign pool). Default: GOMAXPROCS.
	MaxParallelism int
	// CacheSize bounds the verdict/outcome cache entries (LRU beyond it).
	// Default: 4096.
	CacheSize int
	// StoreDir enables the persistent verdict store: an append-only
	// segment file under this directory backs the memory cache, so
	// verdicts survive restarts and warm-started replicas answer from
	// disk with no enumeration. Empty disables persistence (pure-memory
	// mode, the pre-fleet behaviour).
	StoreDir string
	// Peers lists the replica fleet's base URLs (http://host:port) for
	// consistent-hash sharding of verdict fingerprints. Self is added to
	// the ring if absent. Empty disables sharding.
	Peers []string
	// Self is this replica's own base URL as peers address it. Required
	// when Peers is set.
	Self string
	// PeerTimeout bounds one peer fetch or push. Default: 2s.
	PeerTimeout time.Duration
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ on
	// the service mux (profile, heap, goroutine, trace, …). Off by
	// default: the profiling surface is for operators, and exposing it on
	// a fleet-facing port should be a deliberate choice (gpulitmusd's
	// -pprof flag).
	EnablePprof bool
	// Logger receives operational diagnostics (response-encode failures,
	// store trouble). Default: stderr with a "gpulitmusd: " prefix.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
		if c.MaxInFlight < 4 {
			c.MaxInFlight = 4
		}
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "gpulitmusd: ", log.LstdFlags)
	}
	return c
}

// Server is the gpulitmusd HTTP service: compiled models, the
// content-addressed cache, and admission control behind an http.Handler.
// Safe for concurrent use by any number of requests.
type Server struct {
	cfg    Config
	models map[string]*core.Model
	cache  *cache
	store  *store.Store // nil in pure-memory mode
	mux    *http.ServeMux
	start  time.Time
	logger *log.Logger

	ring     atomic.Pointer[ring]
	peerHTTP *http.Client
	met      *metrics
	retry    retryEstimator

	inflight     chan struct{}
	rejected     atomic.Int64
	requestsMu   sync.Mutex
	requestCount map[string]int64
}

// New builds a Server: models compile once here and every verdict
// afterwards runs the compiled slot programs. With StoreDir set the
// persistent store is opened (or created) and its index loaded, so a
// warm restart answers every previously computed key from disk.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) > 0 && cfg.Self == "" {
		return nil, fmt.Errorf("service: peers configured without self address")
	}
	s := &Server{
		cfg: cfg,
		models: map[string]*core.Model{
			"ptx": core.PTX(),
			"sc":  core.SC(),
			"rmo": core.RMO(),
			"op":  core.SorensenOp(),
		},
		cache:        newCache(cfg.CacheSize),
		start:        time.Now(),
		logger:       cfg.Logger,
		peerHTTP:     &http.Client{Timeout: cfg.PeerTimeout},
		met:          newMetrics(),
		inflight:     make(chan struct{}, cfg.MaxInFlight),
		requestCount: make(map[string]int64),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		if stats := st.Stats(); stats.Truncated > 0 {
			s.logf("store: dropped %d corrupt tail bytes from %s (%d records recovered)",
				stats.Truncated, stats.Path, stats.Entries)
		}
		s.store = st
	}
	if len(cfg.Peers) > 0 {
		s.SetPeers(cfg.Self, cfg.Peers)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/parse", s.count("parse", s.handleParse))
	s.mux.HandleFunc("POST /v1/judge", s.count("judge", s.admitted(s.handleJudge)))
	s.mux.HandleFunc("POST /v1/run", s.count("run", s.admitted(s.handleRun)))
	s.mux.HandleFunc("POST /v1/sweep", s.count("sweep", s.admitted(s.handleSweep)))
	s.mux.HandleFunc("POST /v1/repair", s.count("repair", s.admitted(s.handleRepair)))
	s.mux.HandleFunc("GET /v1/object", s.count("object", s.handleObjectGet))
	s.mux.HandleFunc("POST /v1/object", s.count("object", s.handleObjectPut))
	s.mux.HandleFunc("GET /v1/stats", s.count("stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.count("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.count("healthz", s.handleHealth))
	if cfg.EnablePprof {
		// Registered explicitly on the service mux: the blank import idiom
		// only mounts pprof on http.DefaultServeMux, which this server
		// never serves.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// SetPeers (re)configures the replica fleet: self's advertised base URL
// and the peer list (self is added if absent). Safe to call while
// serving; in-flight lookups finish on the ring they started with.
func (s *Server) SetPeers(self string, peers []string) {
	s.ring.Store(buildRing(self, peers))
}

// Close releases the server's persistent store (fsync + close). The
// Server must not serve requests afterwards.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// storeStats snapshots the persistent store, or nil in pure-memory mode.
func (s *Server) storeStats() *store.Stats {
	if s.store == nil {
		return nil
	}
	st := s.store.Stats()
	return &st
}

// Handler returns the service's http.Handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// readHeaderTimeout bounds how long Serve waits for a request's headers,
// so a client that opens connections and sends nothing cannot hold them.
const readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long Serve keeps an idle keep-alive connection
// open between requests.
const idleTimeout = 2 * time.Minute

// httpServer is the http.Server Serve runs, its requests' contexts from ctx.
func (s *Server) httpServer(ctx context.Context) *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		// Sweeps stream NDJSON for as long as the campaign runs; no write
		// timeout. Connection lifetime is bounded by the request context.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully (in-flight requests get a short drain window). The listener
// is closed on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := s.httpServer(ctx)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutCtx)
		<-errc
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// Serve listens on addr and serves a fresh Server under cfg until ctx is
// cancelled — the package-level convenience the public gpulitmus.Serve
// wraps. ready, when non-nil, receives the bound address before serving
// (addr ":0" picks a free port).
func Serve(ctx context.Context, addr string, cfg Config, ready func(net.Addr)) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return s.Serve(ctx, ln)
}

// count wraps a handler with the per-endpoint request counter.
func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requestsMu.Lock()
		s.requestCount[name]++
		s.requestsMu.Unlock()
		h(w, r)
	}
}

// admitted wraps a compute handler with the in-flight budget: acquire a
// slot or answer 429 + Retry-After immediately (no queueing — the client
// owns the backoff policy).
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
		default:
			s.rejected.Add(1)
			// Report the configured budget, not len(s.inflight): that read
			// races the slots draining after the failed acquire and can
			// claim fewer requests in flight than the budget this request
			// was just rejected against. Retry-After comes from a rolling
			// estimate of recent compute time — a saturated service doing
			// 10s sweeps should not invite retries every second.
			hint := s.retry.hintSeconds()
			w.Header().Set("Retry-After", strconv.Itoa(hint))
			s.writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("service: in-flight budget (%d) exhausted; retry in ~%ds", s.cfg.MaxInFlight, hint))
			return
		}
		defer func() { <-s.inflight }()
		h(w, r)
	}
}

// clampParallelism resolves a request's parallelism under the server cap.
// 0 keeps auto mode (which self-bounds at GOMAXPROCS) unless the cap is
// tighter than GOMAXPROCS; explicit requests are clamped to the cap.
func (s *Server) clampParallelism(req int) int {
	max := s.cfg.MaxParallelism
	if req <= 0 {
		if max < runtime.GOMAXPROCS(0) {
			return max
		}
		return 0
	}
	if req > max {
		return max
	}
	return req
}

// errUnresolvableTest marks a TestRef that names no known test and parses
// as no litmus source — 422 on every endpoint.
var errUnresolvableTest = errors.New("service: unresolvable test")

// resolveTest materialises a TestRef: a paper test by name or an inline
// parsed source (exactly one of the two). The ctx's trace, if any,
// accrues the parse time of inline sources (named tests re-render from
// the registry; their cost is not a parse in any useful sense).
func resolveTest(ctx context.Context, ref TestRef) (*litmus.Test, error) {
	switch {
	case ref.Test != "" && ref.Source != "":
		return nil, fmt.Errorf("service: test and source are mutually exclusive")
	case ref.Test != "":
		return litmus.ByName(ref.Test)
	case ref.Source != "":
		return litmus.ParseCtx(ctx, ref.Source)
	default:
		return nil, fmt.Errorf("service: neither test nor source given")
	}
}

func (s *Server) model(name string) (*core.Model, error) {
	if name == "" {
		name = "ptx"
	}
	m, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown model %q (known: ptx, sc, rmo, op)", name)
	}
	return m, nil
}

// writeJSON writes v as the response body. Encode failures — a value that
// cannot marshal, or a client that vanished mid-body, truncating the
// response — are logged and counted (gpulitmusd_response_encode_errors_total)
// instead of silently discarded, so truncated responses are diagnosable.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.met.encodeErrors.Add(1)
		s.logf("response encode (status %d): %v", status, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// logf writes one line to the server's logger.
func (s *Server) logf(format string, args ...any) {
	s.logger.Printf(format, args...)
}

// decode parses a JSON request body of at most maxObjectBytes strictly
// (unknown fields are errors: they are invariably a misspelled parameter
// the caller thinks is applied). On failure it answers 413 for an
// over-limit body and 400 otherwise, and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxObjectBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, err)
	return false
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req ParseRequest
	if !s.decode(w, r, &req) {
		return
	}
	t, err := litmus.Parse(req.Source)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	locs := make([]string, 0, 4)
	for _, l := range t.Locations() {
		locs = append(locs, string(l))
	}
	s.writeJSON(w, http.StatusOK, ParseResponse{
		Name:        t.Name,
		Fingerprint: t.Fingerprint(),
		Threads:     t.NumThreads(),
		Locations:   locs,
		Canonical:   t.String(),
	})
}

// source names the layer a lookup was answered from.
type source int

const (
	srcCompute source = iota // fell through every cache layer
	srcMemory                // memory LRU hit or singleflight join
	srcDisk                  // persistent segment store
	srcPeer                  // the key's owning replica
)

// String renders the wire name of the tier — the value of the "source"
// response field and the {source=…} label on
// gpulitmusd_lookup_source_total.
func (s source) String() string {
	switch s {
	case srcMemory:
		return "memory"
	case srcDisk:
		return "disk"
	case srcPeer:
		return "peer"
	default:
		return "compute"
	}
}

// startTrace begins a per-request observability trace: a fresh ID (echoed
// to the client as X-Trace-Id), carried on the returned context into the
// pipeline. Every compute request is traced — the per-phase /metrics
// histograms are fed from these traces — and the structured body
// breakdown is opt-in per request ("trace": true).
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) (*obs.Trace, context.Context) {
	tr := obs.New(obs.NewID())
	w.Header().Set("X-Trace-Id", tr.ID())
	return tr, obs.NewContext(r.Context(), tr)
}

// traceInfo renders a finished request trace as the wire breakdown.
func traceInfo(tr *obs.Trace) *TraceInfo {
	snap := tr.Snapshot()
	ti := &TraceInfo{
		TraceID:      snap.ID,
		WallNanos:    snap.Wall.Nanoseconds(),
		Combos:       snap.Counters[obs.CtrCombos],
		RFChoices:    snap.Counters[obs.CtrRFChoices],
		PrunedWeight: snap.Counters[obs.CtrPrunedWeight],
		MemoHits:     snap.Counters[obs.CtrMemoHits],
		Candidates:   snap.Counters[obs.CtrCandidates],
		Visited:      snap.Counters[obs.CtrVisited],
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if d := snap.Phases[p]; d > 0 {
			ti.Phases = append(ti.Phases, TracePhase{Phase: p.String(), Nanos: d.Nanoseconds()})
		}
	}
	return ti
}

// cachedLookup answers key's record through every layer of the fleet
// cache: memory LRU (with singleflight — concurrent requesters join one
// leader), then the persistent store, then the key's owning peer under
// the consistent-hash ring, then compute. Every layer holds the same
// name-free record (verdictRecord, outcomeRecord or repairRecord, by the
// key's kind), and compute must return one; a disk or peer record the
// kind's decoder refuses, or that does not belong to the key
// (decodeRecord), reads as a miss. The singleflight entry is held
// across the disk and remote paths too, so N concurrent local requests
// for a remote key cost one peer fetch, not N. A freshly computed record
// is persisted locally and replicated to its owner; a peer-fetched one
// is persisted locally (the disk is a cache of permanent facts — warming
// it is always sound). Peer failure of any kind degrades to local
// compute: a down replica costs latency, never availability.
func (s *Server) cachedLookup(ctx context.Context, key string, compute func() (any, error)) (any, source, error) {
	tr := obs.FromContext(ctx)
	var lookupStart time.Time
	if tr.Enabled() {
		lookupStart = time.Now()
	}
	src := srcCompute
	var computeDur time.Duration
	val, cached, err := s.cache.Do(ctx, key, func() (any, error) {
		if s.store != nil {
			if b, ok := s.store.Get(key); ok {
				if v, derr := s.decodeRecord(key, b); derr == nil {
					src = srcDisk
					s.met.diskHits.Add(1)
					return v, nil
				}
				// Undecodable record: fall through and recompute; the Put
				// below supersedes it (append-only, newest record wins).
			}
		}
		r := s.ring.Load()
		var owner string
		if r != nil {
			if o := r.owner(key); o != "" && o != r.self {
				owner = o
			}
		}
		if owner != "" {
			switch b, perr := s.peerFetch(ctx, owner, key); {
			case perr != nil:
				s.met.peerErrors.Add(1)
			case b == nil:
				s.met.peerMisses.Add(1)
			default:
				if v, derr := s.decodeRecord(key, b); derr == nil {
					src = srcPeer
					s.met.peerHits.Add(1)
					if s.store != nil {
						if serr := s.store.Put(key, b); serr != nil {
							s.logf("store: %v", serr)
						}
					}
					return v, nil
				}
				s.met.peerErrors.Add(1)
			}
		}
		t0 := time.Now()
		v, err := compute()
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		computeDur = d
		s.met.computations.Add(1)
		s.met.computeSeconds.Observe(d.Seconds())
		s.retry.observe(d)
		if b, eerr := encodeRecord(v); eerr == nil {
			if s.store != nil {
				if serr := s.store.Put(key, b); serr != nil {
					s.logf("store: %v", serr)
				}
			}
			if owner != "" {
				if perr := s.peerPush(ctx, owner, key, b); perr != nil {
					s.met.peerErrors.Add(1)
				} else {
					s.met.peerPushes.Add(1)
				}
			}
		}
		return v, nil
	})
	if err != nil {
		return nil, srcCompute, err
	}
	if cached {
		src = srcMemory
	}
	s.met.lookupSource[src].Add(1)
	if tr.Enabled() {
		// The lookup phase is everything this call spent that was not the
		// pipeline compute itself: the memory/disk/peer tier walk, record
		// encode/persist/replicate overhead, and — for a singleflight
		// joiner — the wait for the in-flight leader.
		if d := time.Since(lookupStart) - computeDur; d > 0 {
			tr.AddPhase(obs.PhaseLookup, d)
		}
	}
	return val, src, nil
}

// judgeOne produces one test's JudgeResult through the fleet cache. The
// cached record carries counts and no name, so the verdict line is
// rendered from it under the request's test whichever tier answered.
//
// With static set, the prefilter runs first on the prepared test: a
// decided verdict skips both the cache and the enumeration — static
// decisions cost one preparation, so storing them would only spend cache
// entries (and fleet traffic) on results cheaper to recompute than to
// look up. A cache miss streams the same preparation.
func (s *Server) judgeOne(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int, static bool) (JudgeResult, error) {
	fp := t.Fingerprint()
	// The prefilter runs before the fleet cache, not inside it: a static
	// decision is cheap to remake and is never stored, so a later
	// non-static request still finds full counts in the cache.
	var en *axiom.Enumeration
	if static {
		// A test that cannot be prepared gets no static decision; the
		// judge reports the preparation's error.
		en, _ = axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
	}
	if en != nil {
		if v := m.StaticVerdict(t, en); v != nil {
			s.met.staticSkipped.Add(1)
			jr := JudgeResult{
				Test:          t.Name,
				Model:         m.Name,
				Fingerprint:   fp,
				Observable:    v.Observable,
				Verdict:       v.String(),
				StaticSkipped: true,
				StaticReason:  v.StaticReason,
			}
			jr.Covered, jr.CoverageNote = core.Covers(t)
			return jr, nil
		}
	}
	key := "judge|" + m.Fingerprint() + "|" + fp
	val, src, err := s.cachedLookup(ctx, key, func() (any, error) {
		v, err := core.JudgeWith(ctx, m, t, core.Opts{Parallelism: parallelism, Enum: en})
		if err != nil {
			return nil, err
		}
		s.met.judgeCandidates.Observe(float64(v.Candidates))
		s.met.candidatesPruned.Add(int64(v.Pruned()))
		return &verdictRecord{
			Model:      v.Model,
			Candidates: v.Candidates,
			Allowed:    v.Allowed,
			Witnesses:  v.Witnesses,
			Observable: v.Observable,
			Pruned:     v.Pruned(),
		}, nil
	})
	if err != nil {
		return JudgeResult{}, err
	}
	rec := val.(*verdictRecord)
	v := core.Verdict{
		Test:       t,
		Model:      rec.Model,
		Candidates: rec.Candidates,
		Allowed:    rec.Allowed,
		Witnesses:  rec.Witnesses,
		Observable: rec.Observable,
	}
	res := JudgeResult{
		Test:        t.Name,
		Model:       m.Name,
		Fingerprint: fp,
		Candidates:  rec.Candidates,
		Allowed:     rec.Allowed,
		Witnesses:   rec.Witnesses,
		Pruned:      rec.Pruned,
		Observable:  rec.Observable,
		Cached:      src != srcCompute,
		Source:      src.String(),
		Verdict:     v.String(),
	}
	res.Covered, res.CoverageNote = core.Covers(t)
	return res, nil
}

func (s *Server) handleJudge(w http.ResponseWriter, r *http.Request) {
	var req JudgeRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, err := s.model(req.Model)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	tr, ctx := s.startTrace(w, r)
	par := s.clampParallelism(req.Parallelism)

	batch := req.Batch
	single := len(batch) == 0
	if single {
		if req.Test == "" && req.Source == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: no test given (set test, source, or batch)"))
			return
		}
		batch = []TestRef{req.TestRef}
	} else if req.Test != "" || req.Source != "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: batch and single test are mutually exclusive"))
		return
	}

	tests := make([]*litmus.Test, len(batch))
	for i, ref := range batch {
		t, err := resolveTest(ctx, ref)
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		tests[i] = t
	}

	// A multi-test batch fans out across the request's clamped parallelism
	// with each test judged serially (nesting per-test worker pools would
	// oversubscribe, the campaign memo's rule); a single test gets the full
	// budget inside its own verdict pipeline. Results land by index, so
	// batch order is preserved whatever the completion order.
	results := make([]JudgeResult, len(batch))
	workers, perTest := 1, par
	if len(batch) > 1 {
		workers, perTest = par, 1
		if workers <= 0 {
			workers = s.cfg.MaxParallelism
		}
	}
	err = campaign.ForEach(len(batch), workers, func(i int) error {
		res, err := s.judgeOne(ctx, m, tests[i], perTest, req.Static)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		s.writeError(w, judgeStatus(err), err)
		return
	}
	s.met.foldTrace(tr)
	var ti *TraceInfo
	if req.Trace {
		ti = traceInfo(tr)
	}
	if single {
		results[0].Trace = ti
		s.writeJSON(w, http.StatusOK, results[0])
		return
	}
	s.writeJSON(w, http.StatusOK, JudgeBatchResponse{Results: results, Trace: ti})
}

// repairOne produces one test's RepairResponse through the fleet cache.
// Records store only the verified actions and the attempt ledger — no
// source, no name — so the repaired program is reconstructed by
// re-applying the actions to the requesting test. A hit from a
// differently-labelled identical test (or a name-free disk/peer record)
// therefore still renders under this request's own test, and the rendered
// source is byte-identical to what gpulint -fix emits for the same test.
func (s *Server) repairOne(ctx context.Context, m *core.Model, t *litmus.Test, parallelism int) (RepairResponse, error) {
	fp := t.Fingerprint()
	key := "repair|" + m.Fingerprint() + "|" + fp
	val, src, err := s.cachedLookup(ctx, key, func() (any, error) {
		r, err := core.RepairCtx(ctx, m, t, parallelism)
		if err != nil {
			return nil, err
		}
		s.met.repairsSynthesized.Add(1)
		return &repairRecord{
			Model:    m.Name,
			Verified: r.Verified,
			Actions:  r.Actions,
			Attempts: r.Attempts,
			Reason:   r.Reason,
		}, nil
	})
	if err != nil {
		return RepairResponse{}, err
	}
	rec := val.(*repairRecord)
	rr := analysis.RepairResult{Verified: rec.Verified, Actions: rec.Actions, Reason: rec.Reason}
	resp := RepairResponse{
		Test:           t.Name,
		Model:          m.Name,
		Fingerprint:    fp,
		Verified:       rec.Verified,
		NoRepairNeeded: rr.NoRepairNeeded(),
		Actions:        rec.Actions,
		Attempts:       rec.Attempts,
		Reason:         rec.Reason,
		Summary:        rr.Summary(),
		Cached:         src != srcCompute,
		Source:         src.String(),
	}
	if rec.Verified && len(rec.Actions) > 0 {
		repaired, err := analysis.ApplyRepair(t, rec.Actions)
		if err != nil {
			// The key is content-addressed on the test fingerprint, so a
			// record whose actions no longer apply means the addressing was
			// violated somewhere; surface it rather than guessing.
			return RepairResponse{}, fmt.Errorf("service: re-applying cached repair: %w", err)
		}
		resp.Repaired = repaired.String()
		resp.RepairedFingerprint = repaired.Fingerprint()
	}
	return resp, nil
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req RepairRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, err := s.model(req.Model)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	tr, ctx := s.startTrace(w, r)
	t, err := resolveTest(ctx, req.TestRef)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp, err := s.repairOne(ctx, m, t, s.clampParallelism(req.Parallelism))
	if err != nil {
		s.writeError(w, judgeStatus(err), err)
		return
	}
	s.met.foldTrace(tr)
	s.writeJSON(w, http.StatusOK, resp)
}

// judgeStatus maps a judge failure to an HTTP status: client-cancelled
// requests get 499 (the nginx convention; the client is gone anyway),
// everything else is an internal evaluation failure.
func judgeStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499
	}
	return http.StatusInternalServerError
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr, ctx := s.startTrace(w, r)
	t, err := resolveTest(ctx, req.TestRef)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	profile, err := chip.ByName(req.Chip)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	inc := chip.Default()
	if req.Incant != "" {
		if inc, err = chip.ParseIncant(req.Incant); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	runs := req.Runs
	if runs <= 0 {
		runs = harness.DefaultRuns
	}
	out, src, err := s.runOne(ctx, t, t.Fingerprint(), harness.Config{
		Chip: profile, Incant: inc, Runs: runs, Seed: req.Seed, Parallelism: s.clampParallelism(req.Parallelism),
	})
	if err != nil {
		s.writeError(w, judgeStatus(err), err)
		return
	}
	s.met.foldTrace(tr)
	s.writeJSON(w, http.StatusOK, RunResponse{
		Test:      t.Name,
		Chip:      profile.ShortName,
		Incant:    inc.String(),
		Runs:      runs,
		Seed:      req.Seed,
		Histogram: out.Histogram,
		Matches:   out.Matches,
		Per100k:   out.Per100k(),
		Observed:  out.Observed(),
		Output:    out.String(),
		Cached:    src != srcCompute,
		Source:    src.String(),
	})
}

// runOne answers one harness cell of t (fingerprint fp) under cfg through
// the fleet cache: /v1/run and every sweep cell, original or repaired,
// look up here, so any of them shares a computation with the others.
// Outcomes are deterministic in (test content, chip, incant, runs, seed)
// and independent of parallelism, so cfg.Parallelism stays out of the
// key. The outcome is rendered from the cached record under t.
func (s *Server) runOne(ctx context.Context, t *litmus.Test, fp string, cfg harness.Config) (*harness.Outcome, source, error) {
	key := fmt.Sprintf("run|%s|%s|%s|%d|%d", fp, cfg.Chip.ShortName, cfg.Incant, cfg.Runs, cfg.Seed)
	val, src, err := s.cachedLookup(ctx, key, func() (any, error) {
		out, err := harness.RunCtx(ctx, t, cfg)
		if err != nil {
			return nil, err
		}
		seed := cfg.Seed
		return &outcomeRecord{Chip: cfg.Chip.ShortName, Incant: cfg.Incant.String(), Seed: &seed,
			Histogram: out.Histogram, Matches: out.Matches, Runs: out.Runs}, nil
	})
	if err != nil {
		return nil, src, err
	}
	rec := val.(*outcomeRecord)
	return &harness.Outcome{Test: t, Config: cfg, Histogram: rec.Histogram, Matches: rec.Matches, Runs: rec.Runs}, src, nil
}

// sweepCell is what a sweep records about one cell besides its outcome:
// the tier that resolved its run, whether the static prefilter skipped it,
// its traced wall time, and on repair sweeps the repaired test's outcome.
type sweepCell struct {
	src      source
	unsat    bool
	elapsed  time.Duration
	repaired *harness.Outcome
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	tr, ctx := s.startTrace(w, r)
	spec, err := s.sweepSpec(ctx, req)
	if err != nil {
		// Unresolvable tests are 422 like on /v1/judge and /v1/run; spec
		// shape errors (unknown chip/incant/seed mode, empty axes) are 400.
		status := http.StatusBadRequest
		if errors.Is(err, errUnresolvableTest) {
			status = http.StatusUnprocessableEntity
		}
		s.writeError(w, status, err)
		return
	}

	// With static opted in, decide once per distinct test whether its
	// condition is statically unsatisfiable; such cells can skip the
	// harness on every chip (their match count is provably zero). Each
	// test is prepared under the request context, so an abandoned sweep
	// stops here; a test the enumerator cannot prepare is never
	// unsatisfiable (analysis.Unsatisfiable).
	unsat := make(map[*litmus.Test]bool)
	if req.Static {
		for _, t := range spec.Tests {
			en, err := axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
			if ctx.Err() != nil {
				s.writeError(w, judgeStatus(ctx.Err()), ctx.Err())
				return
			}
			unsat[t] = err == nil && analysis.Prefilter(en, analysis.PolicyNone).Verdict == analysis.Forbidden
		}
	}

	// With repair opted in, synthesize (or cache-fetch) one judge-verified
	// fence repair per distinct test under PTX before the stream starts, so
	// a synthesis failure can still answer with a clean HTTP error. Cells
	// of repaired tests additionally run the repaired program below.
	repairs := make(map[*litmus.Test]*RepairResponse)
	repairedTests := make(map[*litmus.Test]*litmus.Test)
	if req.Repair {
		ptx := s.models["ptx"]
		for _, t := range spec.Tests {
			rr, err := s.repairOne(ctx, ptx, t, spec.Parallelism)
			if err != nil {
				s.writeError(w, judgeStatus(err), err)
				return
			}
			repairs[t] = &rr

			if rr.Verified && len(rr.Actions) > 0 {
				rt, err := analysis.ApplyRepair(t, rr.Actions)
				if err != nil {
					s.writeError(w, http.StatusInternalServerError, err)
					return
				}
				repairedTests[t] = rt
			}
		}
	}

	// Route every cell through runOne, /v1/run's lookup, so repeated or
	// overlapping sweeps — and run requests for cells a sweep already
	// computed — cost one harness execution per distinct (test content,
	// chip, incantation, runs, seed). Each test's fingerprint is computed
	// once here, not once per cell.
	fps := make(map[*litmus.Test]string, len(spec.Tests)+len(repairedTests))
	for _, t := range spec.Tests {
		fps[t] = t.Fingerprint()
	}
	for _, rt := range repairedTests {
		fps[rt] = rt.Fingerprint()
	}
	// One sweepCell per job index (campaign expands an empty incantation
	// axis to the default one). A cell's worker — RunJob and the Sink run
	// on it — fills the cell before campaign.StreamCtx delivers its result,
	// so the row loop below reads each cell after its writes.
	cells := make([]sweepCell, len(spec.Tests)*len(spec.Chips)*max(len(spec.Incants), 1))
	spec.RunJob = func(ctx context.Context, j campaign.Job, runPar int) (*harness.Outcome, error) {
		c := &cells[j.Index]
		if unsat[j.Test] {
			// Skipped cell: no harness run, no cache traffic. The outcome
			// carries zero matches and no histogram; the row records the
			// provenance instead of an Output.
			s.met.staticSkipped.Add(1)
			c.unsat = true
			return &harness.Outcome{
				Test:   j.Test,
				Config: harness.Config{Chip: j.Chip, Incant: j.Incant, Seed: j.Seed},
			}, nil
		}
		cfg := harness.Config{Chip: j.Chip, Incant: j.Incant, Runs: j.Runs, Seed: j.Seed, Parallelism: runPar}
		out, src, err := s.runOne(ctx, j.Test, fps[j.Test], cfg)
		if err != nil {
			return nil, err
		}
		c.src = src
		if rt := repairedTests[j.Test]; rt != nil {
			// The repaired program's cell is cached and deduplicated like
			// any other.
			if c.repaired, _, err = s.runOne(ctx, rt, fps[rt], cfg); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	// Outcome rows stream from this goroutine; traced sweeps additionally
	// write "start" event rows from the campaign workers via the progress
	// sink, so every encoder write goes through one mutex-guarded helper
	// (interleaved NDJSON lines stay individually well-formed).
	var encMu sync.Mutex
	writeRow := func(row SweepRow) bool {
		encMu.Lock()
		defer encMu.Unlock()
		if err := enc.Encode(row); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if req.Trace {
		spec.Sink = func(ev obs.CellEvent) {
			switch ev.Kind {
			case obs.CellStart:
				writeRow(SweepRow{Index: ev.Index, Seed: ev.Seed, Event: obs.CellStart})
			default: // finish or error: stash the wall time for the outcome row
				cells[ev.Index].elapsed = ev.Elapsed
			}
		}
	}

	jobs := 0
	for res := range campaign.StreamCtx(ctx, spec) {
		c := cells[res.Job.Index]
		row := SweepRow{
			Index:        res.Job.Index,
			TestIndex:    res.Job.TestIndex,
			ChipIndex:    res.Job.ChipIndex,
			IncantIndex:  res.Job.IncantIndex,
			Seed:         res.Job.Seed,
			Runs:         res.Job.Runs,
			ElapsedNanos: int64(c.elapsed),
		}
		if res.Job.Test != nil {
			row.Test = res.Job.Test.Name
		}
		if res.Job.Chip != nil {
			row.Chip = res.Job.Chip.ShortName
		}
		row.Incant = res.Job.Incant.String()
		switch {
		case res.Err != nil:
			row.Error = res.Err.Error()
		case res.Outcome != nil:
			row.Matches = res.Outcome.Matches
			row.Per100k = res.Outcome.Per100k()
			row.Observed = res.Outcome.Observed()
			if c.unsat {
				// Skipped cells produced no histogram; Output stays empty.
				row.Static = "unsat"
			} else {
				row.Cached = c.src != srcCompute
				row.Source = c.src.String()
				row.Output = res.Outcome.String()
			}
			if rr := repairs[res.Job.Test]; rr != nil {
				switch {
				case rr.NoRepairNeeded:
					row.Repair = "unneeded"
				case rr.Verified:
					row.Repair = "verified"
					if rout := c.repaired; rout != nil {
						row.RepairedMatches = rout.Matches
						row.RepairedPer100k = rout.Per100k()
						row.RepairedObserved = rout.Observed()
					}
				default:
					row.Repair = "none"
				}
			}
		}
		if !writeRow(row) {
			return // client gone; ctx cancellation stops the campaign
		}
		jobs++
	}
	s.met.foldTrace(tr)
	if ctx.Err() == nil {
		writeRow(SweepRow{Index: -1, Seed: 0, Done: true, Jobs: jobs})
	}
}

// sweepSpec lowers a SweepRequest to a campaign spec with the per-cell
// seed mode preserved. The ctx's trace accrues inline-source parse time.
func (s *Server) sweepSpec(ctx context.Context, req SweepRequest) (campaign.Spec, error) {
	var spec campaign.Spec
	if len(req.Tests) == 0 {
		return spec, fmt.Errorf("service: sweep needs at least one test")
	}
	if len(req.Chips) == 0 {
		return spec, fmt.Errorf("service: sweep needs at least one chip")
	}
	for _, ref := range req.Tests {
		t, err := resolveTest(ctx, ref)
		if err != nil {
			return spec, fmt.Errorf("%w: %w", errUnresolvableTest, err)
		}
		spec.Tests = append(spec.Tests, t)
	}
	for _, name := range req.Chips {
		p, err := chip.ByName(name)
		if err != nil {
			return spec, err
		}
		spec.Chips = append(spec.Chips, p)
	}
	for _, is := range req.Incants {
		inc, err := chip.ParseIncant(is)
		if err != nil {
			return spec, err
		}
		spec.Incants = append(spec.Incants, inc)
	}
	spec.Runs = req.Runs
	spec.Seed = req.Seed
	spec.Parallelism = s.clampParallelism(req.Parallelism)
	switch req.SeedMode {
	case "", "derived":
		// campaign's default splitmix64 per-cell derivation from Seed.
	case "fixed":
		seed := req.Seed
		spec.SeedFn = func(campaign.Job) int64 { return seed }
	default:
		return spec, fmt.Errorf("service: unknown seed_mode %q (want derived or fixed)", req.SeedMode)
	}
	return spec, nil
}

// handleObjectGet is the internal fleet endpoint: it answers a raw
// record for a key from this replica's memory cache or segment store —
// never by computing. A key currently being computed here is waited for
// (bounded by the requester's peer timeout), so a peer fetch joins this
// replica's singleflight instead of duplicating the enumeration.
func (s *Server) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if recordDecoder(key) == nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad object key %q", key))
		return
	}
	var body []byte
	if v, ok, err := s.cache.Peek(r.Context(), key); err == nil && ok {
		body, _ = encodeRecord(v)
	}
	if body == nil && s.store != nil {
		body, _ = s.store.Get(key)
	}
	if body == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: no record for key"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.met.encodeErrors.Add(1)
		s.logf("object write: %v", err)
	}
}

// handleObjectPut accepts a record pushed by the replica that computed
// it (this replica owns the key under the ring). decodeRecord must accept
// the body — a record no computation could have produced, or one that
// belongs to another key, is refused with 400 and never stored. Records
// are persisted to the segment store; without one they are acknowledged
// and dropped — the pusher keeps its local copy either way.
func (s *Server) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if recordDecoder(key) == nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad object key %q", key))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxObjectBytes {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: object body must be a JSON record ≤ %d bytes", maxObjectBytes))
		return
	}
	if _, err := s.decodeRecord(key, body); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: invalid record for key %q: %w", key, err))
		return
	}
	if s.store != nil {
		if err := s.store.Put(key, body); err != nil {
			s.logf("store: %v", err)
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := io.WriteString(w, s.renderMetrics()); err != nil {
		s.met.encodeErrors.Add(1)
		s.logf("metrics write: %v", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requestsMu.Lock()
	reqs := make(map[string]int64, len(s.requestCount))
	for k, v := range s.requestCount {
		reqs[k] = v
	}
	s.requestsMu.Unlock()
	resp := StatsResponse{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Cache:         s.cache.Stats(),
		Inflight: InflightStats{
			Current:  len(s.inflight),
			Max:      s.cfg.MaxInFlight,
			Rejected: s.rejected.Load(),
		},
		MaxParallelism:     s.cfg.MaxParallelism,
		Requests:           reqs,
		Computations:       s.met.computations.Load(),
		CandidatesPruned:   s.met.candidatesPruned.Load(),
		StaticSkipped:      s.met.staticSkipped.Load(),
		RepairsSynthesized: s.met.repairsSynthesized.Load(),
	}
	if st := s.storeStats(); st != nil {
		resp.Store = &StoreStats{
			Path:      st.Path,
			Entries:   st.Entries,
			Bytes:     st.Bytes,
			Hits:      s.met.diskHits.Load(),
			Appends:   st.Appends,
			Corrupt:   st.Corrupt,
			Truncated: st.Truncated,
		}
	}
	if ring := s.ring.Load(); ring != nil {
		fetches, fetchSum := s.met.peerFetchSeconds.totals()
		ps := &PeerStats{
			Self:            ring.self,
			Fleet:           ring.peers,
			Hits:            s.met.peerHits.Load(),
			Misses:          s.met.peerMisses.Load(),
			Errors:          s.met.peerErrors.Load(),
			Pushes:          s.met.peerPushes.Load(),
			Fetches:         fetches,
			FetchSecondsSum: fetchSum,
		}
		if fetches > 0 {
			ps.FetchSecondsMean = fetchSum / float64(fetches)
		}
		resp.Peer = ps
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	})
}
