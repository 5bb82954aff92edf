package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
)

// ---- consistent-hash ring ----------------------------------------------

// vnodesPerPeer is the virtual-node fan-out per replica. 64 vnodes keeps
// placement within a few percent of even for small fleets while the ring
// stays tiny (a fleet of 10 is 640 sorted entries).
const vnodesPerPeer = 64

// ring places cache keys on a replica fleet by consistent hashing:
// every replica (including self) contributes vnodesPerPeer points on a
// uint64 circle and a key belongs to the first point clockwise of its
// hash. Replicas that configure the same peer list — in any order —
// compute identical placements, which is what makes "fetch from the
// owner before computing" coherent fleet-wide.
type ring struct {
	self   string
	peers  []string // normalised, deduped, sorted
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	addr string
}

// normalizePeer canonicalises a replica base URL for ring identity:
// placement must not depend on a trailing slash.
func normalizePeer(addr string) string {
	return strings.TrimRight(strings.TrimSpace(addr), "/")
}

// buildRing constructs the ring for self within peers. Self is added to
// the fleet if the peer list does not already name it, so "-peers lists
// the others" and "-peers lists everyone" both work.
func buildRing(self string, peers []string) *ring {
	self = normalizePeer(self)
	seen := map[string]bool{}
	var fleet []string
	for _, p := range append([]string{self}, peers...) {
		p = normalizePeer(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		fleet = append(fleet, p)
	}
	sort.Strings(fleet)
	r := &ring{self: self, peers: fleet}
	for _, p := range fleet {
		for i := 0; i < vnodesPerPeer; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", p, i)), addr: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// owner returns the replica address a key is placed on.
func (r *ring) owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

// size is the number of replicas in the fleet.
func (r *ring) size() int {
	if r == nil {
		return 0
	}
	return len(r.peers)
}

// ---- peer transport -----------------------------------------------------

// objectURL is the internal fleet endpoint on a peer for key.
func objectURL(peer, key string) string {
	return peer + "/v1/object?key=" + url.QueryEscape(key)
}

// peerFetch asks the owning peer for key's record. (nil, nil) means the
// owner answered and does not have it; an error means the owner is down
// or answered garbage — the caller degrades to local compute either way.
// Every round-trip — hit, miss or failure — lands in the
// gpulitmusd_peer_fetch_seconds histogram: a degrading peer shows up as
// latency long before it shows up as errors.
func (s *Server) peerFetch(ctx context.Context, peer, key string) ([]byte, error) {
	defer func(t0 time.Time) {
		s.met.peerFetchSeconds.Observe(time.Since(t0).Seconds())
	}(time.Now())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, objectURL(peer, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxObjectBytes))
		if err != nil {
			return nil, err
		}
		return body, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("service: peer %s: %s", peer, resp.Status)
	}
}

// peerPush replicates a freshly computed record to its owning peer, so
// the fleet converges on "the owner has every key" even when requests
// land on non-owners. Push failures are non-fatal — the computing replica
// already has the answer; the fleet just converges more slowly.
func (s *Server) peerPush(ctx context.Context, peer, key string, record []byte) error {
	defer func(t0 time.Time) {
		s.met.peerPushSeconds.Observe(time.Since(t0).Seconds())
	}(time.Now())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, objectURL(peer, key), strings.NewReader(string(record)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: peer %s: %s", peer, resp.Status)
	}
	return nil
}

// ---- record codecs ------------------------------------------------------

// maxObjectBytes bounds one record on the wire and in POST /v1/object,
// and every JSON request body.
const maxObjectBytes = 16 << 20

// verdictRecord is the serialised form of a judge verdict: only content-
// derived counts, nothing name- or host-dependent, so records are valid
// forever and shareable between stores.
type verdictRecord struct {
	Model      string `json:"model"`
	Candidates int    `json:"candidates"`
	Allowed    int    `json:"allowed"`
	Witnesses  int    `json:"witnesses"`
	Observable bool   `json:"observable"`
	// Pruned is the symmetry-pruned share of Candidates (core.Verdict.Pruned
	// at compute time). Omitted when zero, so records from before pruning —
	// or verdicts nothing was pruned from — decode identically: Pruned 0,
	// Visited = Candidates.
	Pruned int `json:"pruned,omitempty"`
}

// outcomeRecord is the serialised form of a harness outcome. Final-state
// fingerprints in the histogram are test-content-derived (registers and
// locations, no names), matching the key's content addressing.
type outcomeRecord struct {
	Histogram map[string]int `json:"histogram"`
	Matches   int            `json:"matches"`
	Runs      int            `json:"runs"`
}

// repairRecord is the serialised form of a fence-repair synthesis result:
// the verified actions and the oracle-checked ledger, all expressed in
// thread/instruction indices — content-derived, never name-dependent. The
// repaired source is deliberately not stored; the serving replica
// reconstructs it by re-applying the actions to the requesting test, which
// is deterministic and keeps records valid under any test label.
type repairRecord struct {
	Model    string                   `json:"model"`
	Verified bool                     `json:"verified"`
	Actions  []analysis.RepairAction  `json:"actions,omitempty"`
	Attempts []analysis.RepairAttempt `json:"attempts,omitempty"`
	Reason   string                   `json:"reason,omitempty"`
}

// encodeRecord serialises a cached value by its key's kind prefix. It is
// the single source of the wire/disk record format, used by the compute
// path (persist + push) and by GET /v1/object (serve from memory).
func encodeRecord(key string, v any) ([]byte, error) {
	switch {
	case strings.HasPrefix(key, "judge|"):
		vd, ok := v.(*core.Verdict)
		if !ok {
			return nil, fmt.Errorf("service: judge key holds %T", v)
		}
		return json.Marshal(verdictRecord{
			Model:      vd.Model,
			Candidates: vd.Candidates,
			Allowed:    vd.Allowed,
			Witnesses:  vd.Witnesses,
			Observable: vd.Observable,
			Pruned:     vd.Pruned(),
		})
	case strings.HasPrefix(key, "run|"):
		out, ok := v.(*harness.Outcome)
		if !ok {
			return nil, fmt.Errorf("service: run key holds %T", v)
		}
		return json.Marshal(outcomeRecord{
			Histogram: out.Histogram,
			Matches:   out.Matches,
			Runs:      out.Runs,
		})
	case strings.HasPrefix(key, "repair|"):
		rec, ok := v.(*repairRecord)
		if !ok {
			return nil, fmt.Errorf("service: repair key holds %T", v)
		}
		return json.Marshal(rec)
	default:
		return nil, fmt.Errorf("service: unknown record kind in key %q", key)
	}
}

// validRecordKey guards POST /v1/object against storing arbitrary blobs:
// only keys the service itself would look up are accepted.
func validRecordKey(key string) bool {
	return strings.HasPrefix(key, "judge|") || strings.HasPrefix(key, "run|") || strings.HasPrefix(key, "repair|")
}

// decodeVerdict rebuilds a *core.Verdict from a stored record. The Test
// pointer is left nil — callers re-render under the requesting test (the
// same clone path memory hits from differently-named tests take), and the
// Witness execution is intentionally not persisted: the service never
// serialises witnesses, only counts.
func decodeVerdict(b []byte) (any, error) {
	var rec verdictRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if rec.Model == "" || rec.Candidates < 0 || rec.Pruned < 0 || rec.Pruned > rec.Candidates {
		return nil, fmt.Errorf("service: malformed verdict record")
	}
	return &core.Verdict{
		Model:      rec.Model,
		Candidates: rec.Candidates,
		Allowed:    rec.Allowed,
		Witnesses:  rec.Witnesses,
		Observable: rec.Observable,
		Visited:    rec.Candidates - rec.Pruned,
	}, nil
}

// decodeRepair rebuilds a repair record. Like verdicts, the record holds
// no test: the caller re-applies the actions to the requesting test to
// render the repaired source.
func decodeRepair(b []byte) (any, error) {
	var rec repairRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if rec.Model == "" {
		return nil, fmt.Errorf("service: malformed repair record")
	}
	return &rec, nil
}

// decodeOutcome rebuilds a *harness.Outcome from a stored record under
// the requesting cell's configuration (chip, incantation, seed — all part
// of the cache key, so the reconstruction is exact). Test stays nil for
// the caller's re-render path.
func decodeOutcome(b []byte, cfg harness.Config) (any, error) {
	var rec outcomeRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if rec.Histogram == nil || rec.Runs <= 0 {
		return nil, fmt.Errorf("service: malformed outcome record")
	}
	cfg.Runs = rec.Runs
	return &harness.Outcome{
		Config:    cfg,
		Histogram: rec.Histogram,
		Matches:   rec.Matches,
		Runs:      rec.Runs,
	}, nil
}
