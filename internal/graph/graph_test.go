package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
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
		if es == nil {
			return m == 0 // no edge ever carried the label
		}
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

// The ordered index: a non-decreasing column is its own index (nil perm),
// anything else gets a permutation sorted by value with ties in vertex
// order; FindByInt64 answers from it and returns the first vertex carrying a
// duplicated value (the hash index it replaced silently kept the last).
func TestOrderedInt64AndFindDuplicates(t *testing.T) {
	b := NewBuilder(6)
	b.SetProp("sorted", Int64Column{10, 20, 20, 20, 30, 30})
	b.SetProp("unsorted", Int64Column{30, 10, 20, 10, 30, -5})
	b.SetProp("name", StringColumn{"a", "b", "c", "d", "e", "f"})
	g := b.MustBuild()

	if col, perm := g.OrderedInt64("sorted"); len(col) != 6 || perm != nil {
		t.Fatalf("sorted column: col %v perm %v, want the column as its own index", col, perm)
	}
	col, perm := g.OrderedInt64("unsorted")
	if want := []VertexID{5, 1, 3, 2, 0, 4}; !reflect.DeepEqual(perm, want) {
		t.Fatalf("unsorted perm = %v, want %v", perm, want)
	}
	if _, again := g.OrderedInt64("unsorted"); &again[0] != &perm[0] || len(col) != 6 {
		t.Fatal("ordered index rebuilt on second use")
	}
	for _, name := range []string{"name", "nope"} {
		if col, perm := g.OrderedInt64(name); col != nil || perm != nil {
			t.Fatalf("OrderedInt64(%q) = %v, %v; want nil, nil", name, col, perm)
		}
	}

	finds := []struct {
		prop string
		val  int64
		want VertexID
		ok   bool
	}{
		{"sorted", 20, 1, true}, {"sorted", 30, 4, true}, {"sorted", 10, 0, true},
		{"sorted", 25, 0, false}, {"sorted", 5, 0, false}, {"sorted", 31, 0, false},
		{"unsorted", 10, 1, true}, {"unsorted", 30, 0, true}, {"unsorted", -5, 5, true},
		{"unsorted", 0, 0, false}, {"name", 1, 0, false},
	}
	for _, f := range finds {
		if v, ok := g.FindByInt64(f.prop, f.val); ok != f.ok || v != f.want {
			t.Errorf("FindByInt64(%s, %d) = %d,%v; want %d,%v", f.prop, f.val, v, ok, f.want, f.ok)
		}
	}
}

// The label lists and ordered indexes are built by whichever query needs
// them first; concurrent first uses must agree on one shared result (run
// under -race).
func TestLazyVertexListsConcurrentFirstUse(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(n)
	ids := make(Int64Column, n)
	for v := range ids {
		ids[v] = int64(rng.Intn(n))
		if v%3 == 0 {
			b.SetLabel(VertexID(v), "Third")
		}
	}
	g := b.SetProp("id", ids).MustBuild()

	const workers = 8
	lists, perms := make([][]VertexID, workers), make([][]VertexID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lists[w] = g.LabelVertices("Third")
			_, perms[w] = g.OrderedInt64("id")
			if v, ok := g.FindByInt64("id", ids[w]); !ok || ids[v] != ids[w] {
				t.Errorf("FindByInt64(%d) = %d,%v", ids[w], v, ok)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &lists[w][0] != &lists[0][0] || &perms[w][0] != &perms[0][0] {
			t.Fatalf("worker %d got its own copy of a shared list", w)
		}
	}
	if len(lists[0]) != (n+2)/3 || !sort.SliceIsSorted(perms[0], func(i, j int) bool {
		a, b := perms[0][i], perms[0][j]
		return ids[a] < ids[b] || ids[a] == ids[b] && a < b
	}) {
		t.Fatal("shared lists are wrong")
	}
}
