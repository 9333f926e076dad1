package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/hilbert"
)

// paperGraph builds the example social network of Figure 3: six persons,
// "knows" edges 1-2, 2-3, 3-4, 3-5, 4-6 (1-indexed in the paper; 0-indexed
// here), with communities SIGA {1,2}, SIGB {3}, SIGC {4,5} (paper indices).
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetLabel(VertexID(v), "Person")
	}
	b.SetLabel(0, "SIGA").SetLabel(1, "SIGA")
	b.SetLabel(2, "SIGB")
	b.SetLabel(3, "SIGC").SetLabel(4, "SIGC")
	edges := [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}}
	for _, e := range edges {
		b.AddEdge("knows", e[0], e[1])
	}
	b.SetProp("id", Int64Column{100, 101, 102, 103, 104, 105})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := paperGraph(t)
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if got := g.VertexLabels(); !reflect.DeepEqual(got, []string{"Person", "SIGA", "SIGB", "SIGC"}) {
		t.Fatalf("VertexLabels = %v", got)
	}
	if got := g.EdgeLabels(); !reflect.DeepEqual(got, []string{"knows"}) {
		t.Fatalf("EdgeLabels = %v", got)
	}
	if !g.HasLabel(0, "SIGA") || g.HasLabel(0, "SIGB") || g.HasLabel(0, "nope") {
		t.Fatal("HasLabel wrong")
	}
	if got := g.LabelVertices("SIGC"); !reflect.DeepEqual(got, []VertexID{3, 4}) {
		t.Fatalf("LabelVertices(SIGC) = %v", got)
	}
	if g.LabelVertices("missing") != nil {
		t.Fatal("LabelVertices of missing label should be nil")
	}
}

func TestCSRAdjacency(t *testing.T) {
	g := paperGraph(t)
	knows := g.Edges("knows")
	if knows == nil {
		t.Fatal("Edges(knows) nil")
	}
	if got := knows.Neighbors(2, Forward); !reflect.DeepEqual(got, []uint32{3, 4}) {
		t.Fatalf("out(2) = %v, want [3 4]", got)
	}
	if got := knows.Neighbors(2, Reverse); !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("in(2) = %v, want [1]", got)
	}
	both := knows.Neighbors(2, Both)
	sort.Slice(both, func(a, b int) bool { return both[a] < both[b] })
	if !reflect.DeepEqual(both, []uint32{1, 3, 4}) {
		t.Fatalf("both(2) = %v, want [1 3 4]", both)
	}
	if knows.Degree(2, Forward) != 2 || knows.Degree(2, Reverse) != 1 || knows.Degree(2, Both) != 3 {
		t.Fatal("Degree wrong")
	}
	if got := knows.Neighbors(5, Forward); len(got) != 0 {
		t.Fatalf("out(5) = %v, want empty", got)
	}
}

func TestCOOHilbertOrderingPreservesEdges(t *testing.T) {
	g := paperGraph(t)
	knows := g.Edges("knows")

	type pair struct{ f, t uint32 }
	src, dst := knows.COO()
	if len(src) != len(dst) {
		t.Fatalf("COO slices mismatched")
	}
	got := map[pair]int{}
	for i := range src {
		got[pair{src[i], dst[i]}]++
	}
	want := map[pair]int{{0, 1}: 1, {1, 2}: 1, {2, 3}: 1, {2, 4}: 1, {3, 5}: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("COO = %v", got)
	}
	// One sorted list serves every direction: it is in curve order as
	// stored, and the swapped view is in the order of the transposed curve.
	order := hilbert.OrderFor(g.NumVertices())
	for i := 1; i < len(src); i++ {
		if hilbert.D(order, src[i-1], dst[i-1]) > hilbert.D(order, src[i], dst[i]) {
			t.Fatalf("COO not in Hilbert order at %d", i)
		}
	}
	// Calling COO twice must return the same (cached) slices.
	s2, _ := knows.COO()
	if &src[0] != &s2[0] {
		t.Fatal("COO not cached")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if Forward.Flip() != Reverse || Reverse.Flip() != Forward || Both.Flip() != Both {
		t.Fatal("Flip wrong")
	}
	if Forward.String() != "->" || Reverse.String() != "<-" || Both.String() != "--" {
		t.Fatal("String wrong")
	}
}

func TestProps(t *testing.T) {
	g := paperGraph(t)
	col, ok := g.Prop("id").(Int64Column)
	if !ok {
		t.Fatal("id column missing or wrong type")
	}
	if col[3] != 103 {
		t.Fatalf("id[3] = %d", col[3])
	}
	if got := g.PropNames(); !reflect.DeepEqual(got, []string{"id"}) {
		t.Fatalf("PropNames = %v", got)
	}
	v, ok := g.FindByInt64("id", 104)
	if !ok || v != 4 {
		t.Fatalf("FindByInt64(104) = %d,%v", v, ok)
	}
	if _, ok := g.FindByInt64("id", 999); ok {
		t.Fatal("FindByInt64 found missing id")
	}
	if _, ok := g.FindByInt64("nope", 1); ok {
		t.Fatal("FindByInt64 on missing column should fail")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(3).AddEdge("e", 0, 5).Build(); err == nil {
		t.Fatal("out-of-range edge not rejected")
	}
	if _, err := NewBuilder(3).SetLabel(7, "L").Build(); err == nil {
		t.Fatal("out-of-range label not rejected")
	}
	if _, err := NewBuilder(3).SetProp("p", Int64Column{1}).Build(); err == nil {
		t.Fatal("short property column not rejected")
	}
	if _, err := NewBuilder(3).AddEdges("e", []uint32{1}, []uint32{}).Build(); err == nil {
		t.Fatal("mismatched AddEdges not rejected")
	}
	// Errors stick: later valid calls don't clear them.
	b := NewBuilder(3).AddEdge("e", 0, 9)
	b.AddEdge("e", 0, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("error did not stick")
	}
}

func TestEdgeSetsResolution(t *testing.T) {
	g := paperGraph(t)
	sets, err := g.EdgeSets([]string{"knows"})
	if err != nil || len(sets) != 1 || sets[0].Label() != "knows" {
		t.Fatalf("EdgeSets = %v, %v", sets, err)
	}
	all, err := g.EdgeSets(nil)
	if err != nil || len(all) != 1 {
		t.Fatalf("EdgeSets(nil) = %v, %v", all, err)
	}
	if _, err := g.EdgeSets([]string{"transfer"}); err == nil {
		t.Fatal("unknown edge label not rejected")
	}
}

func TestAvgDegree(t *testing.T) {
	g := paperGraph(t)
	if got := g.AvgDegree(nil); got != 5.0/6.0 {
		t.Fatalf("AvgDegree = %f", got)
	}
	if got := g.AvgDegree([]string{"missing"}); got != 0 {
		t.Fatalf("AvgDegree(missing) = %f, want 0", got)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	g := paperGraph(t)
	if g.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
}

func TestColumnKinds(t *testing.T) {
	cases := []struct {
		col  Column
		kind ColumnKind
		name string
	}{
		{Int64Column{1, 2}, KindInt64, "int64"},
		{Float64Column{1.5}, KindFloat64, "float64"},
		{StringColumn{"a", "b", "c"}, KindString, "string"},
		{BoolColumn{true}, KindBool, "bool"},
	}
	for _, c := range cases {
		if c.col.Kind() != c.kind {
			t.Errorf("%s Kind = %v", c.name, c.col.Kind())
		}
		if c.kind.String() != c.name {
			t.Errorf("Kind.String = %q, want %q", c.kind.String(), c.name)
		}
		if c.col.SizeBytes() <= 0 {
			t.Errorf("%s SizeBytes not positive", c.name)
		}
		if c.col.Value(0) == nil {
			t.Errorf("%s Value nil", c.name)
		}
	}
	if got := (Int64Column{7, 8}).Value(1).(int64); got != 8 {
		t.Errorf("Value(1) = %v", got)
	}
}

// Property: for a random graph, CSR out/in adjacency agree with the raw edge
// list in both directions, and degrees sum to the edge count.
func TestQuickCSRConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		m := rng.Intn(400)
		b := NewBuilder(n)
		type pair struct{ s, d uint32 }
		edges := make([]pair, 0, m)
		for i := 0; i < m; i++ {
			s, d := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			edges = append(edges, pair{s, d})
			b.AddEdge("e", s, d)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		es := g.Edges("e")
		outDeg, inDeg := 0, 0
		for v := 0; v < n; v++ {
			outDeg += es.Degree(VertexID(v), Forward)
			inDeg += es.Degree(VertexID(v), Reverse)
		}
		if outDeg != m || inDeg != m {
			return false
		}
		// Every edge must appear in both CSRs.
		for _, e := range edges {
			if !containsU32(es.Neighbors(e.s, Forward), e.d) {
				return false
			}
			if !containsU32(es.Neighbors(e.d, Reverse), e.s) {
				return false
			}
		}
		// Adjacency lists are sorted.
		for v := 0; v < n; v++ {
			adj := es.Neighbors(VertexID(v), Forward)
			if !sort.SliceIsSorted(adj, func(a, b int) bool { return adj[a] < adj[b] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func containsU32(xs []uint32, v uint32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
