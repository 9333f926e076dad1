package exec

import (
	"fmt"
	"testing"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// result64 builds a vexpand result whose matrix is 64×cols (one stack), so
// its cache footprint is cols*8 bytes.
func result64(cols int) *vexpand.Result {
	return &vexpand.Result{Reach: bitmatrix.New(64, cols)}
}

// entrySize is what the cache charges for holding r.
func entrySize(r *vexpand.Result) int64 {
	return int64(r.Reach.SizeBytes()) + cacheEntryOverhead
}

func cacheKey(i int) CacheKey {
	return CacheKey{Epoch: 1, Det: "d", SrcLen: 1, SrcHash: uint64(i)}
}

func TestMatrixCachePutGet(t *testing.T) {
	c := NewMatrixCache(1<<20, nil)
	r := result64(64)
	hits0 := telemetry.MatrixCacheHits.Value()
	if _, ok := c.Get(cacheKey(1)); ok {
		t.Fatal("empty cache returned an entry")
	}
	c.Put(cacheKey(1), r)
	got, ok := c.Get(cacheKey(1))
	if !ok || got != r {
		t.Fatal("cached result not returned")
	}
	if hits := telemetry.MatrixCacheHits.Value() - hits0; hits != 1 {
		t.Fatalf("hit counter advanced by %d, want 1", hits)
	}
	if c.Len() != 1 || c.Bytes() != entrySize(r) {
		t.Fatalf("Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	// Duplicate keys are skipped, not replaced.
	c.Put(cacheKey(1), result64(64))
	if again, _ := c.Get(cacheKey(1)); again != r {
		t.Fatal("duplicate Put replaced the resident entry")
	}
}

func TestMatrixCacheLRUEviction(t *testing.T) {
	size := entrySize(result64(64))
	c := NewMatrixCache(2*size, nil)
	ev0 := telemetry.MatrixCacheEvictions.Value()
	c.Put(cacheKey(1), result64(64))
	c.Put(cacheKey(2), result64(64))
	// Touch 1 so 2 is the LRU victim.
	if _, ok := c.Get(cacheKey(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	c.Put(cacheKey(3), result64(64))
	if _, ok := c.Get(cacheKey(2)); ok {
		t.Fatal("LRU entry 2 survived over-limit Put")
	}
	if _, ok := c.Get(cacheKey(1)); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(cacheKey(3)); !ok {
		t.Fatal("new entry 3 missing")
	}
	if ev := telemetry.MatrixCacheEvictions.Value() - ev0; ev != 1 {
		t.Fatalf("eviction counter advanced by %d, want 1", ev)
	}
	if c.Bytes() > 2*size {
		t.Fatalf("resident bytes %d exceed limit %d", c.Bytes(), 2*size)
	}
}

func TestMatrixCacheOversizeSkipped(t *testing.T) {
	c := NewMatrixCache(8, nil)
	c.Put(cacheKey(1), result64(64)) // 512 bytes > 8-byte limit
	if c.Len() != 0 {
		t.Fatal("oversize result was cached")
	}
	c.Put(cacheKey(2), nil)
	c.Put(cacheKey(3), &vexpand.Result{})
	if c.Len() != 0 {
		t.Fatal("nil results were cached")
	}
}

func TestMatrixCacheChargesAccountant(t *testing.T) {
	size := entrySize(result64(64))
	acct := NewAccountant(size) // room for exactly one resident matrix
	c := NewMatrixCache(1<<20, acct)
	c.Put(cacheKey(1), result64(64))
	if acct.InUse() != size {
		t.Fatalf("residency not charged: InUse=%d want %d", acct.InUse(), size)
	}
	// The accountant refuses a second residency; the cache skips the entry
	// rather than fail the caller.
	c.Put(cacheKey(2), result64(64))
	if c.Len() != 1 {
		t.Fatalf("budget-refused entry was cached (Len=%d)", c.Len())
	}
	// Eviction returns the bytes.
	c.EvictBytes(size)
	if acct.InUse() != 0 {
		t.Fatalf("eviction did not release: InUse=%d", acct.InUse())
	}
	if c.Len() != 0 {
		t.Fatal("EvictBytes left the entry resident")
	}
}

func TestMatrixCacheEvictBytesUnderPressure(t *testing.T) {
	size := entrySize(result64(64))
	acct := NewAccountant(2 * size)
	c := NewMatrixCache(1<<20, acct)
	acct.OnPressure = c.EvictBytes
	c.Put(cacheKey(1), result64(64))
	c.Put(cacheKey(2), result64(64))
	// A live reservation the size of one matrix: the pressure hook must
	// evict cache residency to make room.
	if err := acct.Reserve(size); err != nil {
		t.Fatalf("Reserve under pressure: %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("pressure evicted %d entries, want exactly 1 left", c.Len())
	}
}

func TestMatrixCacheNilSafe(t *testing.T) {
	var c *MatrixCache
	if _, ok := c.Get(cacheKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(cacheKey(1), result64(64))
	c.EvictBytes(100)
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("nil cache reported residency")
	}
}

func TestNewCacheKeyDiscriminates(t *testing.T) {
	d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	src := []graph.VertexID{1, 2, 3}
	base := NewCacheKey(7, d, src)
	if again := NewCacheKey(7, d, []graph.VertexID{1, 2, 3}); again != base {
		t.Fatal("identical inputs produced different keys")
	}
	if k := NewCacheKey(8, d, src); k == base {
		t.Fatal("epoch change did not change the key")
	}
	if k := NewCacheKey(7, d, []graph.VertexID{1, 2, 4}); k == base {
		t.Fatal("source-set change did not change the key")
	}
	if k := NewCacheKey(7, d, []graph.VertexID{1, 2}); k == base {
		t.Fatal("source-set length change did not change the key")
	}
	d2 := d
	d2.KMax = 4
	if k := NewCacheKey(7, d2, src); k == base {
		t.Fatal("determiner change did not change the key")
	}
	// EdgePropEq participates (Determiner.String omits it; the cache key
	// must not).
	d3 := d
	d3.EdgePropEq = map[string]any{"amount": int64(5)}
	if k := NewCacheKey(7, d3, src); k == base {
		t.Fatal("edge-property filter did not change the key")
	}
}

func TestDeterminerKeyMapOrderStable(t *testing.T) {
	d := pattern.Determiner{KMin: 1, KMax: 2, EdgePropEq: map[string]any{"a": 1, "b": 2, "c": 3}}
	want := DeterminerKey(d)
	for i := 0; i < 20; i++ {
		d2 := pattern.Determiner{KMin: 1, KMax: 2, EdgePropEq: map[string]any{"c": 3, "b": 2, "a": 1}}
		if got := DeterminerKey(d2); got != want {
			t.Fatalf("iteration %d: %q != %q", i, got, want)
		}
	}
	_ = fmt.Sprint(want)
}

// Many tiny entries are charged their bookkeeping too: a limit that would
// hold 4,000 sparse one-pair matrices by their bits alone holds only as many
// as fit with cacheEntryOverhead each, and the accountant agrees.
func TestMatrixCacheChargesEntryOverhead(t *testing.T) {
	tiny := func() *vexpand.Result {
		m := bitmatrix.NewSparse(1, 162000)
		sb := m.BuildStack(0)
		sb.AddRow(0, []uint32{7})
		sb.Finish()
		return &vexpand.Result{Reach: m}
	}
	bits := int64(tiny().Reach.SizeBytes())
	limit := 4000 * bits
	acct := NewAccountant(1 << 30)
	c := NewMatrixCache(limit, acct)
	for i := 0; i < 4000; i++ {
		c.Put(cacheKey(i), tiny())
		if c.Bytes() > limit || acct.InUse() != c.Bytes() {
			t.Fatalf("after %d puts: Bytes=%d InUse=%d limit=%d", i+1, c.Bytes(), acct.InUse(), limit)
		}
	}
	if c.Len() >= 4000/10 {
		t.Fatalf("Len=%d: a %d-byte limit holds %d-byte entries as if their bookkeeping were free", c.Len(), limit, bits)
	}
	if want := int(limit / (bits + cacheEntryOverhead)); c.Len() != want {
		t.Fatalf("Len=%d, want %d entries of %d+%d bytes under %d", c.Len(), want, bits, cacheEntryOverhead, limit)
	}
	c.EvictBytes(limit)
	if c.Len() != 0 || c.Bytes() != 0 || acct.InUse() != 0 {
		t.Fatalf("after full eviction: Len=%d Bytes=%d InUse=%d", c.Len(), c.Bytes(), acct.InUse())
	}
}
