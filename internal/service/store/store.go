// Package store implements the disk layer of the gpulitmusd verdict
// cache: an append-only segment file of key→record pairs, loaded into an
// in-memory offset index at open. Verdicts are pure content — a record is
// a function of test fingerprint × model/run fingerprint and permanently
// valid — so the store never needs invalidation, compaction or TTLs; it
// only ever grows, and a segment file is a shareable artifact between
// machines (keys embed no hostnames, paths or timestamps).
//
// On-disk format (little-endian):
//
//	magic   "gpulitmus-store-v1\n"
//	record  uvarint(len key) | key | uvarint(len value) | value | crc32(key‖value)
//
// Appends are flushed to the OS per record but not fsynced (a crash can
// lose the tail — every record is recomputable); fsync happens on Close.
// Load tolerates exactly that: a truncated or corrupt tail is detected by
// framing or checksum, skipped, and the file is truncated back to the
// last intact record so future appends start clean.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

const (
	magic       = "gpulitmus-store-v1\n"
	segmentName = "verdicts.seg"
	// maxRecordLen bounds a single key or value read from disk, so a
	// corrupt length prefix cannot ask for gigabytes.
	maxRecordLen = 64 << 20
)

// entryLoc locates one key's newest value inside the segment file.
type entryLoc struct {
	off int64 // offset of the value bytes
	n   int   // value length
	crc uint32
}

// Store is a disk-backed key→record map. All methods are safe for
// concurrent use. Records are opaque bytes to the store (the service
// layer keeps them as canonical JSON so segment files are inspectable
// and shareable).
type Store struct {
	mu    sync.RWMutex
	f     *os.File
	path  string
	size  int64
	index map[string]entryLoc

	hits, misses, appends, corrupt int64
	truncated                      int64 // tail bytes dropped at open
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Path      string `json:"path"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Appends   int64  `json:"appends"`
	Corrupt   int64  `json:"corrupt"`
	Truncated int64  `json:"truncated_bytes"`
}

// Open opens (creating if needed) the segment file under dir and loads
// its index. A corrupt or truncated tail is dropped: the file is cut back
// to the last intact record and the lost byte count reported in Stats.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, segmentName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, path: path, index: make(map[string]entryLoc)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load scans the segment sequentially, indexing the newest record per key
// and truncating the file at the first framing or checksum failure.
func (s *Store) load() error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) == 0 {
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(magic))
		return nil
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return fmt.Errorf("store: %s is not a gpulitmus store segment", s.path)
	}
	off := int64(len(magic))
	for off < int64(len(data)) {
		key, loc, next, ok := parseRecord(data, off)
		if !ok {
			break // truncated or corrupt tail: keep everything before it
		}
		s.index[key] = loc
		off = next
	}
	if off < int64(len(data)) {
		s.truncated = int64(len(data)) - off
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating corrupt tail: %w", err)
		}
	}
	if _, err := s.f.Seek(off, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size = off
	return nil
}

// parseRecord decodes one record at off, returning the key, the value's
// location, and the offset of the next record. ok is false when the bytes
// from off do not frame and checksum as a complete record.
func parseRecord(data []byte, off int64) (key string, loc entryLoc, next int64, ok bool) {
	rest := data[off:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || klen > maxRecordLen {
		return "", entryLoc{}, 0, false
	}
	rest = rest[n:]
	if uint64(len(rest)) < klen {
		return "", entryLoc{}, 0, false
	}
	keyB := rest[:klen]
	rest = rest[klen:]
	vlen, m := binary.Uvarint(rest)
	if m <= 0 || vlen > maxRecordLen {
		return "", entryLoc{}, 0, false
	}
	rest = rest[m:]
	if uint64(len(rest)) < vlen+4 {
		return "", entryLoc{}, 0, false
	}
	val := rest[:vlen]
	crc := binary.LittleEndian.Uint32(rest[vlen : vlen+4])
	h := crc32.NewIEEE()
	h.Write(keyB)
	h.Write(val)
	if h.Sum32() != crc {
		return "", entryLoc{}, 0, false
	}
	valOff := off + int64(n) + int64(klen) + int64(m)
	return string(keyB), entryLoc{off: valOff, n: int(vlen), crc: crc}, valOff + int64(vlen) + 4, true
}

// Get returns the newest value stored for key. A record whose bytes no
// longer checksum (in-place disk corruption) reads as a miss, so the
// caller recomputes and Put self-heals the key with a fresh record.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	loc, ok := s.index[key]
	f := s.f
	s.mu.RUnlock()
	if !ok || f == nil {
		s.count(&s.misses)
		return nil, false
	}
	val := make([]byte, loc.n)
	if _, err := f.ReadAt(val, loc.off); err != nil {
		s.count(&s.corrupt)
		return nil, false
	}
	h := crc32.NewIEEE()
	h.Write([]byte(key))
	h.Write(val)
	if h.Sum32() != loc.crc {
		s.count(&s.corrupt)
		return nil, false
	}
	s.count(&s.hits)
	return val, true
}

// Has reports whether key is indexed (without reading its value).
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Put appends a record for key. An identical value already on disk is a
// no-op (verdicts are permanently valid, so replicas re-pushing a key
// must not grow the segment); a differing or unreadable one is superseded
// by appending — the newest record for a key wins at load. A key or value
// longer than load accepts is refused: written, it would cut the segment
// at that record on the next open, losing every record after it.
func (s *Store) Put(key string, val []byte) error {
	if len(key) > maxRecordLen || len(val) > maxRecordLen {
		return fmt.Errorf("store: record of a %d-byte key and a %d-byte value exceeds the %d-byte limit", len(key), len(val), maxRecordLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: closed")
	}
	if loc, ok := s.index[key]; ok && loc.n == len(val) {
		cur := make([]byte, loc.n)
		if _, err := s.f.ReadAt(cur, loc.off); err == nil {
			h := crc32.NewIEEE()
			h.Write([]byte(key))
			h.Write(cur)
			if h.Sum32() == loc.crc && string(cur) == string(val) {
				return nil
			}
		}
	}
	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = append(rec, key...)
	rec = binary.AppendUvarint(rec, uint64(len(val)))
	valOff := s.size + int64(len(rec))
	rec = append(rec, val...)
	h := crc32.NewIEEE()
	h.Write([]byte(key))
	h.Write(val)
	crc := h.Sum32()
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	if _, err := s.f.Write(rec); err != nil {
		return fmt.Errorf("store: append %s: %w", key, err)
	}
	s.size += int64(len(rec))
	s.index[key] = entryLoc{off: valOff, n: len(val), crc: crc}
	s.appends++
	return nil
}

// Len returns the number of distinct keys indexed.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Path:      s.path,
		Entries:   len(s.index),
		Bytes:     s.size,
		Hits:      s.hits,
		Misses:    s.misses,
		Appends:   s.appends,
		Corrupt:   s.corrupt,
		Truncated: s.truncated,
	}
}

// count bumps one of the counter fields under the write lock (counters
// share the index mutex; they are touched once per lookup, far from hot).
func (s *Store) count(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

// Close fsyncs and closes the segment file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
