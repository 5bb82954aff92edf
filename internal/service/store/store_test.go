package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestRoundTripAndReload: values survive a close/reopen byte-identically,
// and the reloaded index serves every key written before the restart.
func TestRoundTripAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("judge|model%d|test%d", i%3, i)
		v := fmt.Sprintf(`{"candidates":%d,"allowed":%d}`, i*7, i)
		want[k] = v
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range want {
		got, ok := s.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("pre-restart Get(%s) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reloaded %d keys, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s2.Get(k)
		if !ok || string(got) != v {
			t.Errorf("post-restart Get(%s) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if st := s2.Stats(); st.Truncated != 0 {
		t.Errorf("clean segment reported %d truncated bytes", st.Truncated)
	}
}

// TestLastRecordWins: re-putting a key with a different value supersedes
// it in memory and across a restart (append-only, newest record wins).
func TestLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v2-longer" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get("k"); !ok || string(got) != "v2-longer" {
		t.Fatalf("post-restart Get = %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (two records, one key)", s2.Len())
	}
}

// TestDuplicatePutDoesNotGrow: pushing an identical record again (a peer
// replicating a key the owner already has) must not grow the segment.
func TestDuplicatePutDoesNotGrow(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Bytes
	for i := 0; i < 5; i++ {
		if err := s.Put("k", []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if after := s.Stats().Bytes; after != before {
		t.Errorf("segment grew %d → %d bytes on duplicate puts", before, after)
	}
	if st := s.Stats(); st.Appends != 1 {
		t.Errorf("appends = %d, want 1", st.Appends)
	}
}

// TestTruncatedTailRecovery: for every possible truncation point inside
// the last record, reload recovers all earlier records, reports the
// dropped bytes, and leaves the segment clean for further appends.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := [][2]string{{"a", "alpha-value"}, {"b", "beta-value"}}
	for _, kv := range keep {
		if err := s.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := s.Stats().Bytes
	if err := s.Put("c", []byte("tail-value-to-lose")); err != nil {
		t.Fatal(err)
	}
	fullSize := s.Stats().Bytes
	s.Close()
	seg := filepath.Join(dir, segmentName)

	for cut := goodSize + 1; cut < fullSize; cut += 3 {
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if s2.Len() != 2 {
			t.Fatalf("cut at %d: recovered %d keys, want 2", cut, s2.Len())
		}
		for _, kv := range keep {
			if got, ok := s2.Get(kv[0]); !ok || string(got) != kv[1] {
				t.Fatalf("cut at %d: Get(%s) = %q, %v", cut, kv[0], got, ok)
			}
		}
		st := s2.Stats()
		if st.Truncated != cut-goodSize {
			t.Errorf("cut at %d: truncated = %d, want %d", cut, st.Truncated, cut-goodSize)
		}
		if st.Bytes != goodSize {
			t.Errorf("cut at %d: segment is %d bytes, want healed to %d", cut, st.Bytes, goodSize)
		}
		// Appends after recovery must land cleanly and survive a reload.
		if err := s2.Put("c", []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s3.Get("c"); !ok || string(got) != "rewritten" {
			t.Fatalf("cut at %d: post-heal append lost: %q, %v", cut, got, ok)
		}
		s3.Close()
		// Restore the full file (with the original tail) for the next cut.
		if err := os.WriteFile(seg, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptTailChecksum: a bit-flip inside the final record's value is
// caught by the checksum at load; earlier records survive.
func TestCorruptTailChecksum(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good", []byte("kept"))
	s.Put("bad", []byte("to-corrupt"))
	s.Close()

	seg := filepath.Join(dir, segmentName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // inside the last record's value bytes
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get("good"); !ok || string(got) != "kept" {
		t.Fatalf("Get(good) = %q, %v", got, ok)
	}
	if _, ok := s2.Get("bad"); ok {
		t.Error("corrupt record must not be served")
	}
	if st := s2.Stats(); st.Truncated == 0 {
		t.Error("corrupt tail must be reported as truncated bytes")
	}
}

// TestNotAStoreFile: opening a directory whose segment is not a store
// segment fails loudly instead of silently truncating someone's file.
func TestNotAStoreFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName), []byte("something else entirely\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("foreign file must not open as a store")
	}
}

// TestConcurrentPutGet exercises parallel writers and readers (run under
// -race in CI): every goroutine's writes are readable afterwards and the
// reload agrees.
func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				v := fmt.Sprintf("value-%d-%d", w, i)
				if err := s.Put(k, []byte(v)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); !ok || string(got) != v {
					t.Errorf("Get(%s) = %q, %v", k, got, ok)
					return
				}
				// Cross-reads of other workers' keys race the appends.
				s.Get(fmt.Sprintf("w%d-k%d", (w+1)%workers, i))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perWorker)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != workers*perWorker {
		t.Fatalf("reloaded %d keys, want %d", s2.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := fmt.Sprintf("w%d-k%d", w, i)
			if got, ok := s2.Get(k); !ok || string(got) != fmt.Sprintf("value-%d-%d", w, i) {
				t.Fatalf("post-restart Get(%s) = %q, %v", k, got, ok)
			}
		}
	}
}

// TestPutRefusesOverlongRecord: a key or value longer than load accepts
// is refused and leaves the segment as it was, so the records written
// before and after it survive a reopen.
func TestPutRefusesOverlongRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 64 MiB value")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Bytes
	long := make([]byte, maxRecordLen+1)
	if err := s.Put("b", long); err == nil {
		t.Error("Put accepted a value longer than load accepts")
	}
	if err := s.Put(string(long), []byte("v")); err == nil {
		t.Error("Put accepted a key longer than load accepts")
	}
	long = nil
	if after := s.Stats().Bytes; after != before {
		t.Errorf("refused Puts grew the segment %d → %d bytes", before, after)
	}
	if err := s.Put("c", []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, v := range map[string]string{"a": "alpha", "c": "gamma"} {
		if got, ok := s2.Get(k); !ok || string(got) != v {
			t.Errorf("after reopen Get(%s) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if st := s2.Stats(); st.Truncated != 0 || st.Entries != 2 {
		t.Errorf("after reopen %d entries and %d truncated bytes, want 2 and 0", st.Entries, st.Truncated)
	}
}

// appendRecord appends one record in the segment framing: uvarint key
// length, key, uvarint value length, value, crc32 of key‖value.
func appendRecord(b []byte, key, val string) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(val)))
	b = append(b, val...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(key+val)))
}

// refSegment is the reference framing parser: it reads data, a segment
// without its magic header, record by record until the first frame that
// is short, over-long or fails its checksum, and returns the newest value
// of each key and the length of the intact prefix.
func refSegment(data []byte) (map[string]string, int) {
	recs := make(map[string]string)
	r := bytes.NewReader(data)
	good := 0
	field := func() ([]byte, bool) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > maxRecordLen || n > uint64(r.Len()) {
			return nil, false
		}
		b := make([]byte, n)
		r.Read(b)
		return b, true
	}
	for r.Len() > 0 {
		key, ok := field()
		if !ok {
			break
		}
		val, ok := field()
		if !ok {
			break
		}
		var sum [4]byte
		if n, _ := r.Read(sum[:]); n < 4 || binary.LittleEndian.Uint32(sum[:]) != crc32.ChecksumIEEE(append(key, val...)) {
			break
		}
		recs[string(key)] = string(val)
		good = len(data) - r.Len()
	}
	return recs, good
}

// FuzzSegment opens arbitrary segment files. A file that does not start
// with the magic header is refused; any other is healed: Open indexes
// exactly the records refSegment finds before the first bad frame, Get
// returns their bytes, everything after that frame is truncated, a second
// open is a fixed point, and a Put made after healing survives a reopen.
// CI runs a 15 s burst next to FuzzDecodeRecord.
func FuzzSegment(f *testing.F) {
	valid := appendRecord(appendRecord(appendRecord([]byte(magic), "judge|a", `{"v":1}`), "run|b", "outcome"), "judge|a", `{"v":2}`)
	flipped := bytes.Clone(valid)
	flipped[len(magic)+3] ^= 0x10
	overlong := binary.AppendUvarint([]byte(magic), maxRecordLen+1)
	for _, seed := range [][]byte{
		[]byte(magic),
		valid,
		valid[:len(valid)-3],
		valid[:len(magic)+5],
		flipped,
		append(bytes.Clone(valid), 0xff, 0xff, 0xff),
		overlong,
		[]byte("gpulitmus-store-v0\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // an empty file is a new store
		}
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if !bytes.HasPrefix(data, []byte(magic)) {
			if err == nil {
				s.Close()
				t.Fatal("a file without the magic header opened as a store")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want, good := refSegment(data[len(magic):])
		end := int64(len(magic) + good)
		check := func(s *Store, when string, truncated int64) {
			t.Helper()
			if st := s.Stats(); st.Entries != len(want) || st.Bytes != end || st.Truncated != truncated {
				t.Fatalf("%s: %d entries, %d bytes, %d truncated; want %d, %d, %d",
					when, st.Entries, st.Bytes, st.Truncated, len(want), end, truncated)
			}
			for k, v := range want {
				if got, ok := s.Get(k); !ok || string(got) != v {
					t.Fatalf("%s: Get(%q) = %q, %v; want %q", when, k, got, ok, v)
				}
			}
			if disk, err := os.ReadFile(seg); err != nil || !bytes.Equal(disk, data[:end]) {
				t.Fatalf("%s: segment is not the intact prefix (%v)", when, err)
			}
		}
		check(s, "first open", int64(len(data))-end)
		s.Close()
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(s, "second open", 0)
		if err := s.Put("fuzz|put", []byte("after healing")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got, ok := s.Get("fuzz|put"); !ok || string(got) != "after healing" {
			t.Fatalf("Put after healing lost across a reopen: %q, %v", got, ok)
		}
	})
}
