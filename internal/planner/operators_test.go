package planner

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// TestOperatorsLowering pins the lowering contract: one expand per distinct
// ExpandKey (symmetric edges collapse), every planned edge served exactly
// once.
func TestOperatorsLowering(t *testing.T) {
	g := socialGraph(t)
	p, err := Build(g, triangle(2))
	if err != nil {
		t.Fatal(err)
	}
	expands := p.Operators()
	for _, op := range expands {
		if op.Kind != "expand" {
			t.Fatalf("unknown op kind %q", op.Kind)
		}
	}

	// The symmetric triangle shares one expansion between two edges: two
	// distinct expands serve three planned edges.
	if len(expands) != 2 {
		t.Fatalf("expand ops = %d, want 2 (symmetry dedup)", len(expands))
	}
	covered := map[int]bool{}
	for _, op := range expands {
		if len(op.Edges) == 0 {
			t.Fatal("expand op serves no edges")
		}
		for _, ei := range op.Edges {
			if covered[ei] {
				t.Fatalf("planned edge %d served twice", ei)
			}
			covered[ei] = true
		}
	}
	if len(covered) != len(p.Edges) {
		t.Fatalf("expands cover %d edges, want %d", len(covered), len(p.Edges))
	}
	// Shared edges must agree on the expansion key.
	for _, op := range expands {
		rep := p.Edges[op.Edges[0]].ExpandKey()
		for _, ei := range op.Edges[1:] {
			if k := p.Edges[ei].ExpandKey(); k != rep {
				t.Fatalf("op shares edges with different keys: %q vs %q", rep, k)
			}
		}
	}
}

// TestOperatorsDistinctDeterminers pins the opposite case: edges with
// different determiners never share an operator.
func TestOperatorsDistinctDeterminers(t *testing.T) {
	g := socialGraph(t)
	mk := func(kmax int) pattern.Determiner {
		return pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	}
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: mk(1)},
			{Src: "b", Dst: "c", D: mk(2)},
			{Src: "a", Dst: "c", D: mk(3)},
		},
	}
	p, err := Build(g, pat)
	if err != nil {
		t.Fatal(err)
	}
	expands := 0
	for _, op := range p.Operators() {
		if op.Kind == "expand" {
			expands++
			if len(op.Edges) != 1 {
				t.Fatalf("distinct determiners collapsed: %v", op.Edges)
			}
		}
	}
	if expands != 3 {
		t.Fatalf("expand ops = %d, want 3", expands)
	}
}
