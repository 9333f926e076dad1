package vexpand

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// TestAnnotateSpanDisabledPathAllocationFree pins the hot-path contract
// vslint checks statically: with tracing disabled (nil span, the common
// case), annotateSpan must not allocate — in particular the PairCount
// popcount scan added for EXPLAIN ANALYZE must stay behind the nil-span
// early return.
func TestAnnotateSpanDisabledPathAllocationFree(t *testing.T) {
	g := figure3(t)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	res, err := Expand(g, []graph.VertexID{0, 2}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		annotateSpan(nil, res, d)
	}); n != 0 {
		t.Fatalf("annotateSpan on nil span allocates %.0f times per run, want 0", n)
	}
}

// TestBFSBothWalkDoesNotAllocatePerVertex pins the BFS kernel's undirected
// walk: it reads the out- and in-CSR in place, so an expansion's allocation
// count is a handful of set-up objects plus the queue's doublings — not one
// merged adjacency slice per frontier vertex, as it was when the walk went
// through EdgeSet.Neighbors(v, Both).
func TestBFSBothWalkDoesNotAllocatePerVertex(t *testing.T) {
	const n = 4096
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge("e", uint32(i), uint32((i+1)%n))
		b.AddEdge("e", uint32(i), uint32((i*5+3)%n))
	}
	g := b.MustBuild()
	d := pattern.Determiner{KMin: 1, KMax: 12, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"e"}}
	sources := []graph.VertexID{0}
	var frontierVertices int64
	allocs := testing.AllocsPerRun(20, func() {
		r, err := Expand(g, sources, d, Options{Kernel: BFS, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		frontierVertices = r.Stats.IntermediateResults
	})
	if frontierVertices < 2000 {
		t.Fatalf("fixture too small: only %d frontier vertices", frontierVertices)
	}
	if allocs > 40 {
		t.Fatalf("BFS Both expansion over %d frontier vertices allocates %.0f times, want a constant handful", frontierVertices, allocs)
	}
	t.Logf("%d frontier vertices, %.0f allocations", frontierVertices, allocs)
}
