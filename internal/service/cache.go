package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// cache is the content-addressed record store: an LRU bounded at cap
// entries of name-free judge, run and repair records, with singleflight
// deduplication. Keys are built from content
// fingerprints (model source, canonical test, run configuration), so
// semantically identical requests — whatever their labels or arrival order
// — address the same entry.
//
// Concurrency contract: the first requester of a key becomes the leader and
// computes; every concurrent requester of the same key blocks on the
// entry's ready channel and receives the leader's result. N identical
// concurrent requests therefore cost exactly one computation (one miss,
// N-1 hits). Failed computations are not cached: the entry is removed so a
// later request retries, and waiters that joined a failing leader retry as
// leader themselves (bounded), which keeps one request's cancellation from
// poisoning another's result.
type cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one key's slot. ready is closed by the leader once val/err
// are set; waiters must not read them before.
type cacheEntry struct {
	key   string
	ready chan struct{}
	val   any
	err   error
}

// done reports whether the entry's computation has completed (ready
// closed). In-flight entries are pinned against eviction.
func (e *cacheEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// claim returns the entry for key and whether the caller is its leader
// (responsible for computing). Joining an existing entry counts as a hit —
// including an in-flight one, since the joiner's work is saved either way.
func (c *cache) claim(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry), false
	}
	c.misses++
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.items[key] = c.ll.PushFront(e)
	// Evict least-recently-used COMPLETED entries beyond the capacity.
	// In-flight entries are pinned: evicting one would let a concurrent
	// claim of the same key start a second leader and run the computation
	// twice — defeating singleflight exactly under the cache-churn load it
	// exists for. If everything resident is in flight the cache runs over
	// cap until leaders finish (bounded by the admission budget).
	for el := c.ll.Back(); el != nil && len(c.items) > c.cap; {
		prev := el.Prev()
		if old := el.Value.(*cacheEntry); old.done() {
			c.ll.Remove(el)
			delete(c.items, old.key)
			c.evictions++
		}
		el = prev
	}
	return e, true
}

// Peek returns key's completed value without claiming leadership: absent
// keys stay absent (no entry is created, no miss counted) and an
// in-flight entry is waited for under ctx — so a peer asking the owner
// for a key the owner is currently computing joins that computation
// instead of reporting a miss, extending singleflight across the fleet.
// A failed or failing computation reads as absent.
func (c *cache) Peek(ctx context.Context, key string) (any, bool, error) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false, nil
	}
	e := el.Value.(*cacheEntry)
	c.ll.MoveToFront(el)
	c.mu.Unlock()
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if e.err != nil {
		return nil, false, nil
	}
	return e.val, true, nil
}

// remove drops key if it still maps to e (the leader removes its own failed
// entry; a concurrent re-claim under the same key must not be clobbered).
func (c *cache) remove(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && el.Value.(*cacheEntry) == e {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// Do returns the cached value for key, computing it via compute if absent.
// cached reports whether the value came from a previous or concurrent
// computation (true) rather than this call's own (false). ctx bounds only
// the wait for another leader's result — compute itself is responsible for
// honouring its own context.
func (c *cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, cached bool, err error) {
	for attempt := 0; ; attempt++ {
		e, leader := c.claim(key)
		if leader {
			// A compute panic (net/http recovers handler goroutines) must
			// not leave the entry in-flight forever: fail it and unblock
			// waiters before the panic propagates.
			finished := false
			defer func() {
				if !finished {
					e.err = fmt.Errorf("service: computation for %s panicked", key)
					close(e.ready)
					c.remove(key, e)
				}
			}()
			e.val, e.err = compute()
			finished = true
			close(e.ready)
			if e.err != nil {
				c.remove(key, e)
			}
			return e.val, false, e.err
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err == nil {
			return e.val, true, nil
		}
		// The leader failed — possibly because *its* request was cancelled.
		// Retry as leader unless this request is itself done or retries are
		// exhausted (a deterministic failure repeats; don't loop on it).
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
		if attempt >= 2 {
			return nil, true, e.err
		}
	}
}

// Stats snapshots the counters.
func (c *cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.items),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
