// Package graph implements the labeled property graph substrate of
// VertexSurge (Definition 1 of the paper): vertices with labels and typed
// property columns, and directed edges grouped by edge label.
//
// Each edge label is stored both as a COO (coordinate list) — reordered
// along the Hilbert space-filling curve for the bit-matrix expand kernel —
// and as forward/reverse CSR adjacency for the BFS kernel and single-hop
// joins. Vertex properties are columnar (§5.3).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitmatrix"
	"repro/internal/hilbert"
)

// VertexID identifies a vertex; vertices are dense integers in [0, NumVertices).
type VertexID = uint32

// Direction restricts which way edges are traversed, mirroring the paper's
// dir ∈ {→, ←, −} of a variable-length path determiner.
type Direction int

const (
	// Forward follows edges from source to destination (→).
	Forward Direction = iota
	// Reverse follows edges from destination to source (←).
	Reverse
	// Both treats edges as undirected (−).
	Both
)

// String returns the paper's arrow notation for the direction.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "->"
	case Reverse:
		return "<-"
	case Both:
		return "--"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Flip returns the direction seen from the opposite endpoint.
func (d Direction) Flip() Direction {
	switch d {
	case Forward:
		return Reverse
	case Reverse:
		return Forward
	default:
		return Both
	}
}

// CSR is a compressed sparse row adjacency structure. For vertex v, its
// neighbors are Targets[Offsets[v]:Offsets[v+1]].
type CSR struct {
	Offsets []uint32
	Targets []uint32
}

// Neighbors returns the adjacency list of v.
func (c *CSR) Neighbors(v VertexID) []uint32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// Degree returns the out-degree of v in this CSR.
func (c *CSR) Degree(v VertexID) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

func buildCSR(n int, src, dst []uint32) *CSR {
	offsets := make([]uint32, n+1)
	for _, s := range src {
		offsets[s+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(src))
	cursor := make([]uint32, n)
	copy(cursor, offsets[:n])
	for i, s := range src {
		targets[cursor[s]] = dst[i]
		cursor[s]++
	}
	// Sort each adjacency list so neighbor scans are ordered and binary
	// searchable.
	c := &CSR{Offsets: offsets, Targets: targets}
	for v := 0; v < n; v++ {
		slices.Sort(c.Neighbors(VertexID(v)))
	}
	return c
}

// EdgeSet holds every edge of one edge label.
type EdgeSet struct {
	label string
	n     int // number of vertices in the parent graph

	// Insertion-order COO, retained for edge property alignment.
	src, dst []uint32

	// Edge property columns, aligned with insertion order.
	props map[string]Column

	out *CSR // forward adjacency
	in  *CSR // reverse adjacency

	// Hilbert-ordered COO, built lazily on the first matrix-kernel
	// expansion that multiplies by this label.
	hilbertOnce sync.Once
	hilbertSrc  []uint32
	hilbertDst  []uint32
}

// Label returns the edge label.
func (e *EdgeSet) Label() string { return e.label }

// Len returns the number of (directed) edges with this label.
func (e *EdgeSet) Len() int { return len(e.src) }

// Out returns the forward CSR.
func (e *EdgeSet) Out() *CSR { return e.out }

// In returns the reverse CSR.
func (e *EdgeSet) In() *CSR { return e.in }

// Edge returns the i-th edge in insertion order.
func (e *EdgeSet) Edge(i int) (src, dst VertexID) { return e.src[i], e.dst[i] }

// COO returns the edge list sorted in Hilbert order over the (src, dst)
// plane (§4.2), built once per label. The other traversal directions are
// views of the same list: swapping the two slices gives the reverse edges
// in the order of the transposed curve, which has the same locality, and an
// undirected pass is the list taken both ways. The returned slices are
// shared and must not be modified.
func (e *EdgeSet) COO() (src, dst []uint32) {
	e.hilbertOnce.Do(func() {
		e.hilbertSrc = slices.Clone(e.src)
		e.hilbertDst = slices.Clone(e.dst)
		hilbert.SortPairs(e.hilbertSrc, e.hilbertDst)
	})
	return e.hilbertSrc, e.hilbertDst
}

// Neighbors returns the adjacency of v in the given direction. For Both the
// forward and reverse lists are returned separately concatenated into a
// fresh slice.
func (e *EdgeSet) Neighbors(v VertexID, dir Direction) []uint32 {
	switch dir {
	case Forward:
		return e.out.Neighbors(v)
	case Reverse:
		return e.in.Neighbors(v)
	default:
		return e.neighborsBoth(v)
	}
}

// neighborsBoth merges the forward and reverse adjacency into a fresh
// slice. Deliberately outlined: the merge allocates, while the Forward and
// Reverse arms above return CSR-backed slices without copying — kernels
// that run per set bit stay on those arms.
//
//go:noinline
func (e *EdgeSet) neighborsBoth(v VertexID) []uint32 {
	outN := e.out.Neighbors(v)
	inN := e.in.Neighbors(v)
	all := make([]uint32, 0, len(outN)+len(inN))
	return append(append(all, outN...), inN...)
}

// Prop returns the edge property column with the given name, or nil. Row i
// of the column describes the i-th edge in insertion order.
func (e *EdgeSet) Prop(name string) Column { return e.props[name] }

// PropNames returns the edge property names, sorted.
func (e *EdgeSet) PropNames() []string {
	names := make([]string, 0, len(e.props))
	for n := range e.props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Filter returns a new EdgeSet containing only the edges for which keep
// returns true (by insertion index), with edge properties carried over.
// It implements §5.3's "apply a filter operator after scanning" for edge
// property constraints; the result has fresh CSR and (lazy) Hilbert COO.
func (e *EdgeSet) Filter(keep func(i int) bool) *EdgeSet {
	var src, dst []uint32
	var kept []int
	for i := range e.src {
		if keep(i) {
			src = append(src, e.src[i])
			dst = append(dst, e.dst[i])
			kept = append(kept, i)
		}
	}
	props := make(map[string]Column, len(e.props))
	for name, col := range e.props {
		props[name] = sliceColumn(col, kept)
	}
	return &EdgeSet{
		label: e.label,
		n:     e.n,
		src:   src,
		dst:   dst,
		props: props,
		out:   buildCSR(e.n, src, dst),
		in:    buildCSR(e.n, dst, src),
	}
}

// sliceColumn projects a column onto the given row indices.
func sliceColumn(col Column, rows []int) Column {
	switch c := col.(type) {
	case Int64Column:
		out := make(Int64Column, len(rows))
		for i, r := range rows {
			out[i] = c[r]
		}
		return out
	case Float64Column:
		out := make(Float64Column, len(rows))
		for i, r := range rows {
			out[i] = c[r]
		}
		return out
	case StringColumn:
		out := make(StringColumn, len(rows))
		for i, r := range rows {
			out[i] = c[r]
		}
		return out
	case BoolColumn:
		out := make(BoolColumn, len(rows))
		for i, r := range rows {
			out[i] = c[r]
		}
		return out
	default:
		panic(fmt.Sprintf("graph: unsupported column type %T", col))
	}
}

// Degree returns the degree of v in the given direction.
func (e *EdgeSet) Degree(v VertexID, dir Direction) int {
	switch dir {
	case Forward:
		return e.out.Degree(v)
	case Reverse:
		return e.in.Degree(v)
	default:
		return e.out.Degree(v) + e.in.Degree(v)
	}
}

// Graph is an immutable labeled property graph. Construct one with Builder.
type Graph struct {
	n          int
	labels     map[string]*bitmatrix.Bitmap
	labelOrder []string
	props      map[string]Column
	edges      map[string]*EdgeSet
	edgeOrder  []string
	epoch      uint64

	// Vertex lists derived from the immutable data above on first use: per
	// vertex label its members, per int64 property column its ordered index.
	// Build creates every entry, so the maps themselves are read-only.
	labelLists map[string]*lazyVertices
	orders     map[string]*lazyVertices
}

// lazyVertices is a vertex list built once, by whichever query needs it
// first, and shared read-only afterwards (as EdgeSet.COO is).
type lazyVertices struct {
	once sync.Once
	ids  []VertexID
}

// nextEpoch numbers every Graph built in this process; see Epoch.
var nextEpoch atomic.Uint64

// Epoch is a process-unique identifier assigned when the graph is built.
// Caches keyed on derived data (e.g. the engine's reachability-matrix
// cache) include the epoch in their keys, so entries from a previously
// loaded graph can never answer queries against a new one.
func (g *Graph) Epoch() uint64 { return g.epoch }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the total edge count across all labels.
func (g *Graph) NumEdges() int {
	total := 0
	for _, e := range g.edges {
		total += e.Len()
	}
	return total
}

// VertexLabels returns all vertex label names in insertion order.
func (g *Graph) VertexLabels() []string { return g.labelOrder }

// EdgeLabels returns all edge label names in insertion order.
func (g *Graph) EdgeLabels() []string { return g.edgeOrder }

// Label returns the membership bitmap of a vertex label, or nil if the
// label does not exist. The bitmap is shared and must not be modified.
func (g *Graph) Label(name string) *bitmatrix.Bitmap { return g.labels[name] }

// HasLabel reports whether vertex v carries the given label.
func (g *Graph) HasLabel(v VertexID, name string) bool {
	bm := g.labels[name]
	return bm != nil && bm.Get(int(v))
}

// LabelVertices returns the vertices carrying the label in strictly
// ascending order, or nil if the label does not exist. The list is built
// once per label and shared — the planner hands it out as a candidate list
// and MIntersect relies on its order — so it must not be modified.
func (g *Graph) LabelVertices(name string) []VertexID {
	l := g.labelLists[name]
	if l == nil {
		return nil
	}
	l.once.Do(func() {
		bm := g.labels[name]
		l.ids = make([]VertexID, 0, bm.PopCount())
		bm.ForEach(func(i int) { l.ids = append(l.ids, VertexID(i)) })
	})
	return l.ids
}

// Edges returns the edge set of the given label, or nil if absent.
func (g *Graph) Edges(label string) *EdgeSet { return g.edges[label] }

// EdgeSets resolves a list of edge labels to edge sets, erroring on unknown
// labels. An empty list selects every edge label.
func (g *Graph) EdgeSets(labels []string) ([]*EdgeSet, error) {
	if len(labels) == 0 {
		out := make([]*EdgeSet, 0, len(g.edgeOrder))
		for _, l := range g.edgeOrder {
			out = append(out, g.edges[l])
		}
		return out, nil
	}
	out := make([]*EdgeSet, 0, len(labels))
	for _, l := range labels {
		e := g.edges[l]
		if e == nil {
			return nil, fmt.Errorf("graph: unknown edge label %q", l)
		}
		out = append(out, e)
	}
	return out, nil
}

// Prop returns the vertex property column with the given name, or nil.
func (g *Graph) Prop(name string) Column { return g.props[name] }

// PropNames returns the vertex property names, sorted.
func (g *Graph) PropNames() []string {
	names := make([]string, 0, len(g.props))
	for n := range g.props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AvgDegree returns the average out-degree over the given edge labels
// (all labels when empty). It feeds the planner's VLP size estimates.
func (g *Graph) AvgDegree(labels []string) float64 {
	sets, err := g.EdgeSets(labels)
	if err != nil || g.n == 0 {
		return 0
	}
	total := 0
	for _, e := range sets {
		total += e.Len()
	}
	return float64(total) / float64(g.n)
}

// OrderedInt64 returns the int64 vertex column `name` and its ordered index:
// position i of the index holds the vertex with the i-th smallest value,
// equal values in vertex order. A nil perm means the column is already
// non-decreasing (every datagen `id` is), so position i is vertex i and the
// index cost one pass; otherwise perm is that vertex permutation, sorted on
// first use. col is nil when the graph has no int64 column of that name. Both
// slices are shared and must not be modified.
func (g *Graph) OrderedInt64(name string) (col Int64Column, perm []VertexID) {
	o := g.orders[name]
	if o == nil {
		return nil, nil
	}
	col = g.props[name].(Int64Column)
	o.once.Do(func() {
		if slices.IsSorted(col) {
			return
		}
		o.ids = make([]VertexID, len(col))
		for i := range o.ids {
			o.ids[i] = VertexID(i)
		}
		slices.SortStableFunc(o.ids, func(a, b VertexID) int { return cmp.Compare(col[a], col[b]) })
	})
	return col, o.ids
}

// FindByInt64 returns the vertex whose int64 property `name` equals v, by
// binary search on the column's ordered index. When several vertices carry
// the value it returns the first in vertex order.
func (g *Graph) FindByInt64(name string, v int64) (VertexID, bool) {
	col, perm := g.OrderedInt64(name)
	at := func(i int) VertexID {
		if perm == nil {
			return VertexID(i)
		}
		return perm[i]
	}
	i := sort.Search(len(col), func(i int) bool { return col[at(i)] >= v })
	if i == len(col) || col[at(i)] != v {
		return 0, false
	}
	return at(i), true
}

// SizeBytes estimates the in-memory footprint of the graph: edge arrays,
// label bitmaps and property columns. It feeds the Table-1 "Size" column.
func (g *Graph) SizeBytes() int64 {
	var total int64
	for _, e := range g.edges {
		total += int64(len(e.src)+len(e.dst)) * 4
		total += int64(len(e.out.Offsets)+len(e.out.Targets)) * 4
		total += int64(len(e.in.Offsets)+len(e.in.Targets)) * 4
	}
	for _, bm := range g.labels {
		total += int64(bm.SizeBytes())
	}
	for _, c := range g.props {
		total += c.SizeBytes()
	}
	return total
}
