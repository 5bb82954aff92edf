package service

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRingSplitsTwoReplicasEvenly: in a two-replica ring, the peer's
// share of 2,000 judge-shaped keys stays within [0.35, 0.65] whatever
// port the peer listens on (every port of 30000–30399), so no fleet
// routes nearly every key to one replica.
func TestRingSplitsTwoReplicasEvenly(t *testing.T) {
	const nkeys = 2000
	model := fmt.Sprintf("%x", sha256.Sum256([]byte("model")))
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("judge|%s|%x", model, sha256.Sum256([]byte(fmt.Sprint(i))))
	}
	self := "http://127.0.0.1:8080"
	lo, hi := 1.0, 0.0
	for port := 30000; port < 30400; port++ {
		peer := fmt.Sprintf("http://127.0.0.1:%d", port)
		r := buildRing(self, []string{peer})
		n := 0
		for _, k := range keys {
			if r.owner(k) == peer {
				n++
			}
		}
		share := float64(n) / nkeys
		lo, hi = min(lo, share), max(hi, share)
		if share < 0.35 || share > 0.65 {
			t.Errorf("peer on port %d owns %.3f of the keys, want within [0.35, 0.65]", port, share)
		}
	}
	t.Logf("peer share over 400 ports: %.3f–%.3f", lo, hi)
}
