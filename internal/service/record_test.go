package service

import (
	"reflect"
	"testing"
)

// FuzzDecodeRecord holds the record codec's contract for every key kind
// and any input bytes: decoding either fails or yields a record that
// re-encodes to bytes decoding to an equal record, and it never panics.
// Seeds are well-formed records of each kind, a record from before the
// pruned field, and records the decoders refuse. CI runs a 15s burst next
// to the other fuzz smokes.
func FuzzDecodeRecord(f *testing.F) {
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// One key per kind: the decoder is chosen by the kind prefix alone.
		for _, key := range []string{"judge|k", "run|k", "repair|k"} {
			decode := recordDecoder(key)
			rec, err := decode(b)
			if err != nil {
				continue
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
