package axiom

import (
	"reflect"
	"testing"
)

// permutationsOracle is the recursive enumeration permutations replaced:
// each ordering picks one of the remaining ids, in their order, for the
// next position.
func permutationsOracle(ids []EventID) [][]EventID {
	if len(ids) == 0 {
		return [][]EventID{nil}
	}
	var out [][]EventID
	var rec func(cur []EventID, rest []EventID)
	rec = func(cur []EventID, rest []EventID) {
		if len(rest) == 0 {
			cp := make([]EventID, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for i := range rest {
			next := make([]EventID, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, ids)
	return out
}

// TestPermutationsMatchOracle pins the flat permutations against the
// recursive oracle, ordering for ordering, for up to five ids (unsorted,
// so the order follows positions, not id values).
func TestPermutationsMatchOracle(t *testing.T) {
	for n := 0; n <= 5; n++ {
		ids := make([]EventID, n)
		for i := range ids {
			ids[i] = EventID(7*(n-i) + 3)
		}
		f := factorial(n)
		got := permutations(make([][]EventID, f), make([]EventID, f*n), ids)
		want := permutationsOracle(ids)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: permutations\n%v\nwant\n%v", n, got, want)
		}
		// The orderings share one backing array; appending to one must
		// not overwrite the next.
		if len(got) > 1 && n > 0 {
			_ = append(got[0], 99)
			if !reflect.DeepEqual(got[1], want[1]) {
				t.Errorf("n=%d: appending to an ordering overwrote the next", n)
			}
		}
	}
}
