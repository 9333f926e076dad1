package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// TestSchedulerEquivalenceAcrossWorkers pins the tentpole's correctness bar:
// the concurrent operator scheduler returns byte-identical results to serial
// execution on all twelve §6.2 evaluation cases.
func TestSchedulerEquivalenceAcrossWorkers(t *testing.T) {
	social := socialGraph(t)
	bank := bankGraph(t)
	fin, lay := financialGraph(t)
	finIDs := fin.Prop("id").(graph.Int64Column)

	// Case-specific anchors (same selection logic as the oracle tests).
	own := fin.Edges("own")
	var person graph.VertexID
	for p := lay.PersonLo; p < lay.PersonHi; p++ {
		if len(own.Neighbors(p, graph.Forward)) > 0 {
			person = p
			break
		}
	}
	withdraw := fin.Edges("withdraw")
	var acct graph.VertexID
	for v := lay.AccountLo; v < lay.AccountHi; v++ {
		if len(withdraw.Neighbors(v, graph.Reverse)) > 0 {
			acct = v
			break
		}
	}

	cases := []struct {
		name string
		g    *graph.Graph
		run  func(e *Engine) (any, error)
	}{
		{"case1", social, func(e *Engine) (any, error) { c, _, err := e.Case1(3); return c, err }},
		{"case2", social, func(e *Engine) (any, error) { r, _, err := e.Case2(2, 50); return r, err }},
		{"case3", social, func(e *Engine) (any, error) { r, _, err := e.Case3(2, 50); return r, err }},
		{"case4", social, func(e *Engine) (any, error) { c, _, err := e.Case4(2); return c, err }},
		{"case5", social, func(e *Engine) (any, error) {
			r, _, err := e.Case5([]int64{1000, 1007, 1033}, 3)
			return r, err
		}},
		{"case6", bank, func(e *Engine) (any, error) { c, _, err := e.Case6(3); return c, err }},
		{"case7", bank, func(e *Engine) (any, error) { r, _, err := e.Case7(1042, 3); return r, err }},
		{"case8", fin, func(e *Engine) (any, error) {
			r, _, err := e.Case8(finIDs[lay.AccountLo+3], 3)
			return r, err
		}},
		{"case9", fin, func(e *Engine) (any, error) { r, _, err := e.Case9(finIDs[person], 3); return r, err }},
		{"case10", fin, func(e *Engine) (any, error) {
			c, _, err := e.Case10(finIDs[lay.AccountLo], finIDs[lay.AccountLo+7])
			return c, err
		}},
		{"case11", fin, func(e *Engine) (any, error) { r, _, err := e.Case11(finIDs[acct]); return r, err }},
		{"case12", fin, func(e *Engine) (any, error) {
			r, _, err := e.Case12(finIDs[lay.LoanLo+2], 3)
			return r, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.run(New(tc.g, Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := tc.run(New(tc.g, Options{Workers: 4}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("serial %v != parallel %v", serial, parallel)
			}
		})
	}
}

// TestParallelExpandsOverlap demonstrates the scheduler running two
// independent VExpands concurrently: their memo=miss spans' wall-clock
// windows intersect. Scheduling overlap is timing-dependent on a loaded
// machine, so the test retries a few times before declaring failure.
func TestParallelExpandsOverlap(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 6000, NumEdges: 48000, Seed: 5, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, Options{Workers: 4})
	// Distinct determiners defeat the symmetry dedup: two real expansions.
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: knowsDet(1, 3)},
			{Src: "b", Dst: "c", D: knowsDet(1, 2)},
		},
	}

	var want int64 = -1
	for attempt := 0; attempt < 5; attempt++ {
		par0 := telemetry.ExecParallelExpands.Value()
		ctx, root := telemetry.NewTrace(context.Background(), "query")
		res, err := e.MatchContext(ctx, pat, MatchOptions{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		if want == -1 {
			serial, err := New(g, Options{Workers: 1}).Match(pat, MatchOptions{CountOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			want = serial.Count
		}
		if res.Count != want {
			t.Fatalf("concurrent count %d != serial count %d", res.Count, want)
		}

		var misses []*telemetry.SpanSnapshot
		for _, sp := range root.Snapshot().ByName("expand") {
			if memo, _ := sp.Str("memo"); memo == "miss" {
				misses = append(misses, sp)
			}
		}
		if len(misses) < 2 {
			t.Fatalf("only %d fresh expand spans; want 2 distinct expansions", len(misses))
		}
		for i := 0; i < len(misses); i++ {
			for j := i + 1; j < len(misses); j++ {
				if misses[i].Overlaps(misses[j]) {
					if telemetry.ExecParallelExpands.Value() == par0 {
						t.Fatal("spans overlap but vs_exec_parallel_expands did not advance")
					}
					return
				}
			}
		}
	}
	t.Fatal("expand spans never overlapped in 5 attempts (scheduler not concurrent?)")
}

// TestEngineCacheRepeatedMatch pins the engine-level matrix cache: a repeat
// of the same query answers every expansion from the cache (counter +
// cache=hit spans) with identical tuples.
func TestEngineCacheRepeatedMatch(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{CacheBytes: DefaultCacheBytes})
	pat := trianglePattern(2)

	hits0 := telemetry.MatrixCacheHits.Value()
	first, err := e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := telemetry.MatrixCacheHits.Value() - hits0; d != 0 {
		t.Fatalf("cold run hit the cache %d times", d)
	}
	entries, bytes := e.CacheStats()
	if entries != 2 || bytes <= 0 {
		t.Fatalf("cold run cached %d entries (%d bytes), want 2 (the distinct expansions)", entries, bytes)
	}
	if e.MemoryInUse() < bytes {
		t.Fatalf("cache residency not charged to the budget: InUse=%d, cache=%d", e.MemoryInUse(), bytes)
	}

	ctx, root := telemetry.NewTrace(context.Background(), "query")
	second, err := e.MatchContext(ctx, pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if d := telemetry.MatrixCacheHits.Value() - hits0; d != 2 {
		t.Fatalf("warm run produced %d cache hits, want 2", d)
	}
	sortTuples(first.Tuples)
	sortTuples(second.Tuples)
	if !reflect.DeepEqual(first.Tuples, second.Tuples) {
		t.Fatal("cached run returned different tuples")
	}
	// The representative expand span distinguishes the cross-query cache
	// from the query-local memo: memo=miss + cache=hit.
	cacheHits := 0
	for _, sp := range root.Snapshot().ByName("expand") {
		memo, _ := sp.Str("memo")
		cache, _ := sp.Str("cache")
		if memo == "miss" && cache != "hit" {
			t.Fatalf("warm expand span not served by cache: memo=%s cache=%s", memo, cache)
		}
		if cache == "hit" {
			cacheHits++
		}
	}
	if cacheHits != 2 {
		t.Fatalf("cache=hit spans = %d, want 2", cacheHits)
	}
	// Warm runs did no expansion work, so no expand stats accumulate.
	if second.ExpandStats.Steps != 0 {
		t.Fatalf("warm run reported %d expansion steps", second.ExpandStats.Steps)
	}
}

// TestEngineCacheImmutableUnderParallelEdges pins copy-on-AND: parallel
// edges AND into a clone, never into the shared cached matrix, so repeated
// runs keep returning the same answer.
func TestEngineCacheImmutableUnderParallelEdges(t *testing.T) {
	g := socialGraph(t)
	cached := New(g, Options{CacheBytes: DefaultCacheBytes})
	uncached := New(g, Options{})
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGB"}},
		},
		Edges: []pattern.Edge{
			{Src: "p", Dst: "q", D: knowsDet(1, 3)},
			{Src: "p", Dst: "q", D: knowsDet(2, 2)},
		},
	}
	want, err := uncached.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := cached.Match(pat, MatchOptions{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("run %d: count %d, want %d (cached matrix mutated?)", i, got.Count, want.Count)
		}
	}
}

// TestEngineCacheEpochInvalidation pins that a different graph (different
// epoch) can never be served another graph's matrices, even with identical
// vertex IDs and determiners.
func TestEngineCacheEpochInvalidation(t *testing.T) {
	g1 := figure3(t)
	g2 := figure3(t)
	if g1.Epoch() == g2.Epoch() {
		t.Fatal("two builds share an epoch")
	}
	// One shared cache is per-engine, so emulate a reload by checking keys:
	// identical sources and determiner, different epoch, distinct entries.
	e1 := New(g1, Options{CacheBytes: DefaultCacheBytes})
	pat := trianglePattern(2)
	if _, err := e1.Match(pat, MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := telemetry.MatrixCacheHits.Value()
	// A fresh engine over the reloaded graph starts cold even though the
	// query is identical.
	e2 := New(g2, Options{CacheBytes: DefaultCacheBytes})
	if _, err := e2.Match(pat, MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}
	if d := telemetry.MatrixCacheHits.Value() - hitsBefore; d != 0 {
		t.Fatalf("reloaded graph hit a stale cache %d times", d)
	}
}

// TestMatchForEachOptsOrderAndLimit pins the streaming path's MatchOptions
// support and its metrics recording.
func TestMatchForEachOptsOrderAndLimit(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	pat := trianglePattern(2)
	full, err := e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(full.Tuples)

	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		var got [][]graph.VertexID
		err := e.MatchForEachOpts(context.Background(), pat, MatchOptions{Order: order}, func(tuple []graph.VertexID) {
			got = append(got, append([]graph.VertexID(nil), tuple...))
		})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		sortTuples(got)
		if !reflect.DeepEqual(got, full.Tuples) {
			t.Fatalf("order %v: streamed %d tuples, want %d", order, len(got), len(full.Tuples))
		}
	}

	bytes0 := telemetry.ExpandMatrixBytes.Value()
	err = e.MatchForEachOpts(context.Background(), pat, MatchOptions{}, func([]graph.VertexID) {})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.ExpandMatrixBytes.Value() == bytes0 {
		t.Fatal("streaming run recorded no expand matrix bytes")
	}
}

// TestMatchPreCanceledContext pins cancellation propagation through the
// scheduler: a canceled context fails the query before any operator runs.
func TestMatchPreCanceledContext(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pat := trianglePattern(2)
	if _, err := e.MatchContext(ctx, pat, MatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Match on canceled context = %v, want context.Canceled", err)
	}
	err := e.MatchForEachOpts(ctx, pat, MatchOptions{}, func([]graph.VertexID) {
		t.Fatal("canceled stream delivered a tuple")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchForEachOpts on canceled context = %v, want context.Canceled", err)
	}
}
