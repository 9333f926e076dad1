package graph

import (
	"reflect"
	"testing"
)

// flaggedGraph has transfer edges with a bool "flagged" and an int64
// "amount" property.
func flaggedGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(5)
	edges := [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}}
	for _, e := range edges {
		b.AddEdge("transfer", e[0], e[1])
	}
	b.SetEdgeProp("transfer", "flagged", BoolColumn{true, false, true, false, true})
	b.SetEdgeProp("transfer", "amount", Int64Column{100, 200, 300, 400, 500})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgePropsAccess(t *testing.T) {
	g := flaggedGraph(t)
	es := g.Edges("transfer")
	if got := es.PropNames(); !reflect.DeepEqual(got, []string{"amount", "flagged"}) {
		t.Fatalf("PropNames = %v", got)
	}
	col, ok := es.Prop("amount").(Int64Column)
	if !ok || col[2] != 300 {
		t.Fatalf("amount column wrong: %v", col)
	}
	if es.Prop("missing") != nil {
		t.Fatal("missing property returned non-nil")
	}
}

func TestEdgePropLengthValidation(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge("e", 0, 1)
	b.SetEdgeProp("e", "x", Int64Column{1, 2})
	if _, err := b.Build(); err == nil {
		t.Fatal("mismatched edge property length accepted")
	}
	b2 := NewBuilder(3)
	b2.AddEdge("e", 0, 1)
	b2.SetEdgeProp("nosuch", "x", Int64Column{1})
	if _, err := b2.Build(); err == nil {
		t.Fatal("edge property on unknown label accepted")
	}
}

func TestEdgeSetFilter(t *testing.T) {
	g := flaggedGraph(t)
	es := g.Edges("transfer")
	flagged := es.Prop("flagged").(BoolColumn)
	sub := es.Filter(func(i int) bool { return flagged[i] })
	if sub.Len() != 3 {
		t.Fatalf("filtered Len = %d, want 3", sub.Len())
	}
	// Kept edges: (0,1), (2,3), (0,2), with properties realigned.
	amounts := sub.Prop("amount").(Int64Column)
	if !reflect.DeepEqual(amounts, Int64Column{100, 300, 500}) {
		t.Fatalf("filtered amounts = %v", amounts)
	}
	// CSR rebuilt for the subset.
	if got := sub.Neighbors(0, Forward); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("filtered out(0) = %v", got)
	}
	if got := sub.Neighbors(1, Forward); len(got) != 0 {
		t.Fatalf("filtered out(1) = %v, want empty (edge 1→2 dropped)", got)
	}
	// Label preserved, original untouched.
	if sub.Label() != "transfer" || es.Len() != 5 {
		t.Fatal("Filter disturbed the original set")
	}
	// COO of the subset covers exactly the kept edges.
	from, to := sub.COO()
	pairs := map[[2]uint32]bool{}
	for i := range from {
		pairs[[2]uint32{from[i], to[i]}] = true
	}
	want := map[[2]uint32]bool{{0, 1}: true, {2, 3}: true, {0, 2}: true}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("filtered COO = %v", pairs)
	}
}

func TestFilterEmptyResult(t *testing.T) {
	g := flaggedGraph(t)
	sub := g.Edges("transfer").Filter(func(int) bool { return false })
	if sub.Len() != 0 {
		t.Fatalf("Len = %d, want 0", sub.Len())
	}
	if got := sub.Neighbors(0, Both); len(got) != 0 {
		t.Fatalf("neighbors on empty subset = %v", got)
	}
}
