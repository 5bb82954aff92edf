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
	"strconv"
	"strings"
	"time"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/chip"
)

// ---- consistent-hash ring ----------------------------------------------

// vnodesPerPeer is the virtual-node fan-out per replica. With 128 vnodes
// a two-replica fleet gives the peer between 39% and 61% of 2,000
// judge-shaped keys, over peer ports 30000–30399 and four self addresses
// (64 vnodes: 35% to 65%), and the ring stays tiny (a fleet of 10 is 1,280
// sorted entries).
const vnodesPerPeer = 128

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

// hash64 places vnodes and keys on the circle: FNV-1a, then murmur3's
// 64-bit finalizer. FNV-1a alone leaves "addr#i" strings that differ in
// their last bytes clustered on the circle, which can hand almost every
// key to one replica.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
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

// verdictRecord is the cached form of a judge verdict on every tier: only
// content-derived counts, nothing name- or host-dependent, so records are
// valid forever and shareable between stores. The witness execution is
// never kept; judgeOne renders the verdict line under the requesting test.
type verdictRecord struct {
	Model      string `json:"model"`
	Candidates int    `json:"candidates"`
	Allowed    int    `json:"allowed"`
	Witnesses  int    `json:"witnesses"`
	Observable bool   `json:"observable"`
	// Pruned is the symmetry-pruned share of Candidates (core.Verdict.Pruned
	// at compute time). Omitted when zero, so records from before pruning
	// and verdicts nothing was pruned from read alike: Pruned 0.
	Pruned int `json:"pruned,omitempty"`
}

// outcomeRecord is the cached form of a harness outcome on every tier.
// Final-state fingerprints in the histogram are test-content-derived
// (registers and locations, no names), matching the key's content
// addressing. runOne renders the outcome under the requesting test and
// cell; the histogram map is shared by every render and never written.
type outcomeRecord struct {
	Histogram map[string]int `json:"histogram"`
	Matches   int            `json:"matches"`
	Runs      int            `json:"runs"`
}

// repairRecord is the cached form of a fence-repair synthesis result:
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

// encodeRecord serialises a record for the segment store, a peer push
// or GET /v1/object. Every tier — memory, disk, peer and the wire — holds
// the same name-free record, so encoding is a plain marshal; the kind's
// decoder below is its inverse and refuses what encoding never produces.
func encodeRecord(rec any) ([]byte, error) {
	switch rec.(type) {
	case *verdictRecord, *outcomeRecord, *repairRecord:
		return json.Marshal(rec)
	default:
		return nil, fmt.Errorf("service: %T is not a cache record", rec)
	}
}

// recordDecoder returns the decoder for key's kind prefix, or nil for a
// key the service never looks up (POST /v1/object must not store
// arbitrary blobs).
func recordDecoder(key string) func([]byte) (any, error) {
	switch {
	case strings.HasPrefix(key, "judge|"):
		return decodeVerdict
	case strings.HasPrefix(key, "run|"):
		return decodeOutcome
	case strings.HasPrefix(key, "repair|"):
		return decodeRepair
	default:
		return nil
	}
}

// decodeRecord decodes b as the record stored under key: the key kind's
// decoder must accept it, and it must belong to the key. A verdict or
// repair record must carry the name of the model whose fingerprint the
// key names (a key naming no model of this server binds no record). An
// outcome record must hold as many runs as the key, whose chip and
// incantation must be written as runOne writes them. A record that passes
// is one this server could have computed for the key.
func (s *Server) decodeRecord(key string, b []byte) (any, error) {
	decode := recordDecoder(key)
	if decode == nil {
		return nil, fmt.Errorf("service: bad object key %q", key)
	}
	rec, err := decode(b)
	if err != nil {
		return nil, err
	}
	_, rest, _ := strings.Cut(key, "|")
	switch r := rec.(type) {
	case *verdictRecord:
		if r.Model != s.keyModel(rest) {
			return nil, fmt.Errorf("service: %s verdict record does not belong to key %q", r.Model, key)
		}
	case *repairRecord:
		if r.Model != s.keyModel(rest) {
			return nil, fmt.Errorf("service: %s repair record does not belong to key %q", r.Model, key)
		}
	case *outcomeRecord:
		if !runKeyHolds(rest, r.Runs) {
			return nil, fmt.Errorf("service: outcome record of %d runs does not belong to key %q", r.Runs, key)
		}
	}
	return rec, nil
}

// keyModel returns the name of the model whose fingerprint leads rest (a
// judge or repair key after its kind), or "" when no model of this server
// has that fingerprint.
func (s *Server) keyModel(rest string) string {
	fp, _, _ := strings.Cut(rest, "|")
	//detmap:ignore fingerprints are unique, so at most one model matches.
	for _, m := range s.models {
		if m.Fingerprint() == fp {
			return m.Name
		}
	}
	return ""
}

// runKeyHolds reports whether rest (a run key after its kind:
// fingerprint|chip|incantation|runs|seed) names a chip by its short name,
// an incantation in canonical form, a seed, and exactly runs runs.
func runKeyHolds(rest string, runs int) bool {
	f := strings.Split(rest, "|")
	if len(f) != 5 {
		return false
	}
	if p, err := chip.ByName(f[1]); err != nil || p.ShortName != f[1] {
		return false
	}
	if inc, err := chip.ParseIncant(f[2]); err != nil || inc.String() != f[2] {
		return false
	}
	if n, err := strconv.Atoi(f[3]); err != nil || n != runs {
		return false
	}
	_, err := strconv.ParseInt(f[4], 10, 64)
	return err == nil
}

// decodeVerdict reads a *verdictRecord, refusing counts no enumeration
// yields: every count is non-negative, witnesses <= allowed <= candidates
// (each a weighted subset of the one before), observable exactly when
// there is a witness, and at least one candidate visited when there are
// any (pruned < candidates).
func decodeVerdict(b []byte) (any, error) {
	var rec verdictRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if rec.Model == "" || rec.Witnesses < 0 || rec.Witnesses > rec.Allowed || rec.Allowed > rec.Candidates ||
		rec.Observable != (rec.Witnesses > 0) ||
		rec.Pruned < 0 || (rec.Pruned > 0 && rec.Pruned >= rec.Candidates) {
		return nil, fmt.Errorf("service: malformed verdict record")
	}
	return &rec, nil
}

// decodeOutcome reads an *outcomeRecord, refusing histograms no harness
// run yields: counts are non-negative and sum to runs, and matches lies
// in [0, runs].
func decodeOutcome(b []byte) (any, error) {
	var rec outcomeRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if rec.Histogram == nil || rec.Runs <= 0 || rec.Matches < 0 || rec.Matches > rec.Runs {
		return nil, fmt.Errorf("service: malformed outcome record")
	}
	sum := 0
	for _, n := range rec.Histogram {
		// Checked against what is left of runs, so the sum cannot overflow.
		if n < 0 || n > rec.Runs-sum {
			return nil, fmt.Errorf("service: malformed outcome record")
		}
		sum += n
	}
	if sum != rec.Runs {
		return nil, fmt.Errorf("service: malformed outcome record")
	}
	return &rec, nil
}

// decodeRepair reads a *repairRecord. Empty action and attempt lists read
// as absent, which is how encoding writes them.
func decodeRepair(b []byte) (any, error) {
	var rec repairRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if rec.Model == "" {
		return nil, fmt.Errorf("service: malformed repair record")
	}
	if len(rec.Actions) == 0 {
		rec.Actions = nil
	}
	if len(rec.Attempts) == 0 {
		rec.Attempts = nil
	}
	return &rec, nil
}
