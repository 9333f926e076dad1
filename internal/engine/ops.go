package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// SemiJoinTargets returns the set of vertices reachable by exactly one hop
// over edgeLabel (in the given direction) from any vertex in sources. It is
// the single-hop join the FinBench cases use for property edges like signIn
// / own / deposit (the paper's filter-after-scan operators, §5.3).
func (e *Engine) SemiJoinTargets(edgeLabel string, sources *bitmatrix.Bitmap, dir graph.Direction) (*bitmatrix.Bitmap, error) {
	es := e.g.Edges(edgeLabel)
	if es == nil {
		return nil, fmt.Errorf("engine: unknown edge label %q", edgeLabel)
	}
	out := bitmatrix.NewBitmap(e.g.NumVertices())
	sources.ForEach(func(v int) {
		for _, t := range es.Neighbors(graph.VertexID(v), dir) {
			out.Set(int(t))
		}
	})
	return out, nil
}

// GroupCount pairs a vertex with an aggregate count.
type GroupCount struct {
	Vertex graph.VertexID
	Count  int
}

// maskedColumnCounts returns, for every vertex in cols, the number of set
// rows in that column of m — i.e. COUNT(DISTINCT row-side) GROUP BY
// column-side, computed by SIMD-style column popcounts (§5.1's aggregation
// fast path).
func maskedColumnCounts(m *bitmatrix.Matrix, cols *bitmatrix.Bitmap) []GroupCount {
	var out []GroupCount
	cols.ForEach(func(c int) {
		if n := m.ColumnPopCount(c); n > 0 {
			out = append(out, GroupCount{Vertex: graph.VertexID(c), Count: n})
		}
	})
	return out
}

// maskedRowCounts returns, for every matrix row, the number of set columns
// within the cols mask — COUNT(DISTINCT column-side) GROUP BY row-side.
func maskedRowCounts(m *bitmatrix.Matrix, cols *bitmatrix.Bitmap) []int {
	counts := make([]int, m.Rows())
	cols.ForEach(func(c int) {
		m.ForEachInColumn(c, func(row int) { counts[row]++ })
	})
	return counts
}

// TopK sorts group counts by count (descending when desc, else ascending;
// ties by vertex ID for determinism) and truncates to k. k ≤ 0 keeps all.
func TopK(groups []GroupCount, k int, desc bool) []GroupCount {
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Count != groups[j].Count {
			if desc {
				return groups[i].Count > groups[j].Count
			}
			return groups[i].Count < groups[j].Count
		}
		return groups[i].Vertex < groups[j].Vertex
	})
	if k > 0 && len(groups) > k {
		groups = groups[:k]
	}
	return groups
}

// ShortestPathLength returns the length of the shortest path from src to
// dst over the given edge labels and direction, or -1 if none of length at
// most kmax exists (pattern.Unbounded for no bound). It runs a frontier BFS
// with early exit — the execution strategy the paper credits for Case 10's
// speedup (expand until found, no join) — and polls ctx once per level.
func (e *Engine) ShortestPathLength(ctx context.Context, src, dst graph.VertexID, edgeLabels []string, dir graph.Direction, kmax int) (int, error) {
	if src == dst {
		return 0, nil
	}
	sets, err := e.g.EdgeSets(edgeLabels)
	if err != nil {
		return -1, err
	}
	n := e.g.NumVertices()
	if int(src) >= n || int(dst) >= n {
		return -1, fmt.Errorf("engine: vertex out of range")
	}
	frontier := bitmatrix.NewBitmap(n)
	next := bitmatrix.NewBitmap(n)
	visited := bitmatrix.NewBitmap(n)
	frontier.Set(int(src))
	visited.Set(int(src))
	for depth := 1; depth <= kmax; depth++ {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		next.Reset()
		frontier.ForEach(func(v int) {
			for _, es := range sets {
				for _, t := range es.Neighbors(graph.VertexID(v), dir) {
					next.Set(int(t))
				}
			}
		})
		next.AndNot(visited)
		if next.Get(int(dst)) {
			return depth, nil
		}
		if !next.Any() {
			return -1, nil
		}
		visited.Or(next)
		frontier, next = next, frontier
	}
	return -1, nil
}

// bitmapOf builds a bitmap from a vertex list.
func (e *Engine) bitmapOf(vs []graph.VertexID) *bitmatrix.Bitmap {
	bm := bitmatrix.NewBitmap(e.g.NumVertices())
	for _, v := range vs {
		bm.Set(int(v))
	}
	return bm
}

// labelBitmap returns the label's bitmap or an error.
func (e *Engine) labelBitmap(name string) (*bitmatrix.Bitmap, error) {
	bm := e.g.Label(name)
	if bm == nil {
		return nil, fmt.Errorf("engine: unknown label %q", name)
	}
	return bm, nil
}

// timedExpand runs Expand and reports the operator's wall time, so cases
// can attribute allocation and kernel time to the Expand stage.
func (e *Engine) timedExpand(sources []graph.VertexID, d pattern.Determiner, keepPerStep bool) (*vexpand.Result, time.Duration, error) {
	t0 := time.Now()
	r, err := e.Expand(sources, d, keepPerStep)
	return r, time.Since(t0), err
}
