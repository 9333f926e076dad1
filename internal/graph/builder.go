package graph

import (
	"fmt"

	"repro/internal/bitmatrix"
)

// Builder assembles a Graph incrementally and freezes it with Build.
// Builders are not safe for concurrent use.
type Builder struct {
	n          int
	labels     map[string]*bitmatrix.Bitmap
	labelOrder []string
	props      map[string]Column
	edgeSrc    map[string][]uint32
	edgeDst    map[string][]uint32
	edgeProps  map[string]map[string]Column
	edgeOrder  []string
	err        error
}

// NewBuilder returns a builder for a graph with n vertices, identified
// 0..n-1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{
		n:         n,
		labels:    make(map[string]*bitmatrix.Bitmap),
		props:     make(map[string]Column),
		edgeSrc:   make(map[string][]uint32),
		edgeDst:   make(map[string][]uint32),
		edgeProps: make(map[string]map[string]Column),
	}
}

// SetLabel attaches the named label to vertex v.
func (b *Builder) SetLabel(v VertexID, name string) *Builder {
	if b.err != nil {
		return b
	}
	if int(v) >= b.n {
		b.err = fmt.Errorf("graph: vertex %d out of range %d", v, b.n)
		return b
	}
	bm, ok := b.labels[name]
	if !ok {
		bm = bitmatrix.NewBitmap(b.n)
		b.labels[name] = bm
		b.labelOrder = append(b.labelOrder, name)
	}
	bm.Set(int(v))
	return b
}

// SetProp attaches a full property column. The column length must equal the
// vertex count.
func (b *Builder) SetProp(name string, col Column) *Builder {
	if b.err != nil {
		return b
	}
	if col.Len() != b.n {
		b.err = fmt.Errorf("graph: property %q has %d rows, want %d", name, col.Len(), b.n)
		return b
	}
	b.props[name] = col
	return b
}

// AddEdge appends a directed edge with the given label.
func (b *Builder) AddEdge(label string, src, dst VertexID) *Builder {
	if b.err != nil {
		return b
	}
	if int(src) >= b.n || int(dst) >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range %d", src, dst, b.n)
		return b
	}
	if _, ok := b.edgeSrc[label]; !ok {
		b.edgeOrder = append(b.edgeOrder, label)
	}
	b.edgeSrc[label] = append(b.edgeSrc[label], src)
	b.edgeDst[label] = append(b.edgeDst[label], dst)
	return b
}

// AddEdges appends many directed edges with the given label. The slices are
// copied.
func (b *Builder) AddEdges(label string, src, dst []uint32) *Builder {
	if b.err != nil {
		return b
	}
	if len(src) != len(dst) {
		b.err = fmt.Errorf("graph: AddEdges slice length mismatch %d vs %d", len(src), len(dst))
		return b
	}
	for i := range src {
		b.AddEdge(label, src[i], dst[i])
		if b.err != nil {
			return b
		}
	}
	return b
}

// SetEdgeProp attaches a full edge property column to an edge label; row i
// describes the i-th added edge of that label. The column length must
// equal the label's edge count at Build time.
func (b *Builder) SetEdgeProp(label, name string, col Column) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.edgeProps[label]; !ok {
		b.edgeProps[label] = make(map[string]Column)
	}
	b.edgeProps[label][name] = col
	return b
}

// Build freezes the builder into an immutable Graph, constructing CSR
// adjacency in both directions for every edge label. Hilbert-ordered COO
// variants are built lazily on first use.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		n:          b.n,
		labels:     b.labels,
		labelOrder: b.labelOrder,
		props:      b.props,
		edges:      make(map[string]*EdgeSet, len(b.edgeOrder)),
		edgeOrder:  b.edgeOrder,
		epoch:      nextEpoch.Add(1),
		labelLists: make(map[string]*lazyVertices, len(b.labels)),
		orders:     make(map[string]*lazyVertices),
	}
	for name := range b.labels {
		g.labelLists[name] = &lazyVertices{}
	}
	for name, col := range b.props {
		if _, ok := col.(Int64Column); ok {
			g.orders[name] = &lazyVertices{}
		}
	}
	for _, label := range b.edgeOrder {
		src, dst := b.edgeSrc[label], b.edgeDst[label]
		props := b.edgeProps[label]
		for name, col := range props {
			if col.Len() != len(src) {
				return nil, fmt.Errorf("graph: edge property %s.%s has %d rows, want %d",
					label, name, col.Len(), len(src))
			}
		}
		if props == nil {
			props = map[string]Column{}
		}
		g.edges[label] = &EdgeSet{
			label: label,
			n:     b.n,
			src:   src,
			dst:   dst,
			props: props,
			out:   buildCSR(b.n, src, dst),
			in:    buildCSR(b.n, dst, src),
		}
	}
	for label := range b.edgeProps {
		if _, ok := b.edgeSrc[label]; !ok {
			return nil, fmt.Errorf("graph: edge properties for unknown edge label %q", label)
		}
	}
	return g, nil
}

// MustBuild is Build that panics on error; convenient in tests and
// generators whose inputs are known valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
