package exec

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// CacheKey identifies one expansion across queries: the graph it ran on
// (by epoch, so a reloaded graph can never serve stale matrices), the
// canonical determiner, and the source set (by length plus FNV-64a hash —
// the engine's source lists are deterministic scans, so hash equality on
// equal-length lists is collision-checked only by the hash).
type CacheKey struct {
	Epoch   uint64
	Det     string
	SrcLen  int
	SrcHash uint64
}

// DeterminerKey renders d canonically for cache keying: every field spelled
// out (Determiner.String omits EdgePropEq; fmt prints maps in sorted key
// order).
func DeterminerKey(d pattern.Determiner) string {
	return fmt.Sprintf("%d|%d|%d|%d|%v|%v", d.KMin, d.KMax, d.Dir, d.Type, d.EdgeLabels, d.EdgePropEq)
}

// NewCacheKey builds the cache key for expanding sources under d on a graph
// with the given epoch.
func NewCacheKey(epoch uint64, d pattern.Determiner, sources []graph.VertexID) CacheKey {
	h := fnv.New64a()
	var buf [4]byte
	for _, s := range sources {
		buf[0] = byte(s)
		buf[1] = byte(s >> 8)
		buf[2] = byte(s >> 16)
		buf[3] = byte(s >> 24)
		_, _ = h.Write(buf[:])
	}
	return CacheKey{Epoch: epoch, Det: DeterminerKey(d), SrcLen: len(sources), SrcHash: h.Sum64()}
}

// MatrixCache is the engine-level byte-budgeted LRU of VExpand results.
// Cached results are shared across queries and must never be mutated —
// the engine's join assembly clones before AND-ing (copy-on-AND).
//
// An entry's size is its result's reachability-matrix bytes plus
// cacheEntryOverhead; residency is charged to the shared Accountant (when
// set) so cached matrices and live intermediates compete for one budget.
type MatrixCache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64
	acct    *Accountant
	entries map[CacheKey]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
}

// cacheEntryOverhead is what one entry costs beyond its matrix's bits, by
// Go's size classes on amd64: the map slot and its share of the buckets
// (~64 B), the list element (48), the cacheEntry (64), the vexpand.Result
// (160) and its Matrix header (80), a sparse matrix's stack table (112),
// and the determiner key string (32). Without it a cache of ~300-byte
// sparse results would hold ~200k entries whose bookkeeping outweighs
// their bits and that nobody charges.
const cacheEntryOverhead = 512

type cacheEntry struct {
	key  CacheKey
	res  *vexpand.Result
	size int64
}

// NewMatrixCache returns a cache bounded to limit bytes (> 0), charging
// residency to acct when non-nil.
func NewMatrixCache(limit int64, acct *Accountant) *MatrixCache {
	return &MatrixCache{
		limit:   limit,
		acct:    acct,
		entries: make(map[CacheKey]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the cached result for k, marking it most recently used.
// Safe on a nil cache.
//
//vs:hotpath
func (c *MatrixCache) Get(k CacheKey) (*vexpand.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	telemetry.MatrixCacheHits.Inc()
	return el.Value.(*cacheEntry).res, true
}

// Put inserts r under k, evicting least-recently-used entries until the
// byte limit holds. Results larger than the limit, duplicate keys, and
// results whose residency the accountant refuses are skipped (the caller
// keeps its result either way). Safe on a nil cache.
func (c *MatrixCache) Put(k CacheKey, r *vexpand.Result) {
	if c == nil || r == nil || r.Reach == nil {
		return
	}
	size := int64(r.Reach.SizeBytes()) + cacheEntryOverhead
	if size > c.limit {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return
	}
	for c.bytes+size > c.limit && c.lru.Len() > 0 {
		c.evictOldestLocked()
	}
	// TryReserve, not Reserve: OnPressure re-enters this cache and would
	// deadlock on c.mu. The shared budget being tighter than the cache
	// limit just means residency loses to live queries.
	if !c.acct.TryReserve(size) { // the entry owns the reservation until evictOldestLocked releases it
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: k, res: r, size: size})
	c.entries[k] = el
	c.bytes += size
	telemetry.MatrixCacheBytes.Set(c.bytes)
}

// EvictBytes evicts least-recently-used entries until at least n bytes were
// freed or the cache is empty — the Accountant.OnPressure hook. Safe on a
// nil cache.
func (c *MatrixCache) EvictBytes(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := int64(0)
	for freed < n && c.lru.Len() > 0 {
		freed += c.evictOldestLocked()
	}
}

func (c *MatrixCache) evictOldestLocked() int64 {
	el := c.lru.Back()
	if el == nil {
		return 0
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.acct.Release(e.size)
	telemetry.MatrixCacheEvictions.Inc()
	telemetry.MatrixCacheBytes.Set(c.bytes)
	return e.size
}

// Bytes returns the current resident size. Safe on a nil cache.
func (c *MatrixCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of resident entries. Safe on a nil cache.
func (c *MatrixCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
