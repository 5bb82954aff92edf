package service

import (
	"reflect"
	"testing"
)

// FuzzDecodeRecord holds the record codec's contract for every key kind
// and any input bytes: decoding either fails or yields a record that
// belongs to its key and re-encodes to bytes decoding to an equal record,
// and it never panics. Seeds are well-formed records of each kind, a
// record from before the pruned field, records the decoders refuse, and
// records that belong to no key below (a model, or a run count, no key
// names). CI runs a 15s burst next to the other fuzz smokes.
func FuzzDecodeRecord(f *testing.F) {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	// Two keys per model-bound kind, so a record of either model decodes
	// under one of them and is refused under the other.
	type boundKey struct {
		key   string
		model string // judge and repair keys: the model name records must carry
		runs  int    // run keys: the run count records must hold
	}
	var keys []boundKey
	for _, name := range []string{"ptx", "sc"} {
		m, err := s.model(name)
		if err != nil {
			f.Fatal(err)
		}
		keys = append(keys,
			boundKey{key: "judge|" + m.Fingerprint() + "|k", model: m.Name},
			boundKey{key: "repair|" + m.Fingerprint() + "|k", model: m.Name})
	}
	keys = append(keys,
		boundKey{key: "run|k|Titan|ms+ts+tr|10|1", runs: 10},
		boundKey{key: "run|k|GTX280|none|3|7", runs: 3})
	for _, seed := range []string{
		`{"model":"PTX","candidates":24,"allowed":18,"witnesses":6,"observable":true,"pruned":20}`,
		`{"model":"PTX","candidates":24,"allowed":18,"witnesses":6,"observable":true}`,
		`{"model":"SC","candidates":4,"allowed":3}`,
		`{"model":"PTX","candidates":4,"allowed":2,"witnesses":3,"observable":true}`,
		`{"model":"PTX","candidates":4,"pruned":4}`,
		`{"histogram":{"0:r1=1 0:r2=0 x=1":3,"0:r1=0 0:r2=0 x=1":7},"matches":3,"runs":10}`,
		`{"histogram":{"x=1":4,"x=2":-1},"matches":0,"runs":3}`,
		`{"histogram":{"x=1":3},"matches":4,"runs":3}`,
		`{"model":"PTX","verified":true,"actions":[{"kind":"insert","thread":0,"index":1,"scope":"gl"}],"attempts":[{"actions":[],"outcome":"still-observable"},{"actions":null,"outcome":"verified"}]}`,
		`{"model":"PTX","verified":true,"actions":[],"attempts":[]}`,
		`{"model":"PTX","verified":false,"reason":"no candidate survived"}`,
		`null`,
		`{}`,
		`not json`,
		`{"model":"RMO","candidates":4,"allowed":3}`,
		`{"model":"RMO","verified":false,"reason":"none"}`,
		`{"histogram":{"x=1":5},"matches":5,"runs":5}`,
		`{"histogram":{"x=1":1,"x=2":2},"matches":1,"runs":3}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, k := range keys {
			key := k.key
			decode := func(b []byte) (any, error) { return s.decodeRecord(key, b) }
			rec, err := decode(b)
			if err != nil {
				continue
			}
			switch r := rec.(type) {
			case *verdictRecord:
				if r.Model != k.model {
					t.Fatalf("%s: decoded a %s verdict record", key, r.Model)
				}
			case *repairRecord:
				if r.Model != k.model {
					t.Fatalf("%s: decoded a %s repair record", key, r.Model)
				}
			case *outcomeRecord:
				if r.Runs != k.runs {
					t.Fatalf("%s: decoded an outcome record of %d runs", key, r.Runs)
				}
			}
			enc, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("%s: decoded %T does not encode: %v", key, rec, err)
			}
			again, err := decode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoded record %s does not decode: %v", key, enc, err)
			}
			if !reflect.DeepEqual(rec, again) {
				t.Fatalf("%s: record changed across a round trip:\n first %+v\nsecond %+v", key, rec, again)
			}
		}
	})
}
