package planner

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func socialGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 500, NumEdges: 2000, Seed: 42, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func triangle(kmax int) *pattern.Pattern {
	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	return &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"Person", "SIGA"}},
			{Name: "b", Labels: []string{"Person", "SIGB"}},
			{Name: "c", Labels: []string{"Person", "SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
}

// checkPlanInvariants verifies the structural invariants any valid plan
// must satisfy.
func checkPlanInvariants(t *testing.T, g *graph.Graph, pat *pattern.Pattern, p *Plan) {
	t.Helper()
	n := len(pat.Vertices)
	if len(p.Order) != n {
		t.Fatalf("Order has %d entries, want %d", len(p.Order), n)
	}
	seen := map[int]bool{}
	for pos, v := range p.Order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("Order = %v is not a permutation", p.Order)
		}
		seen[v] = true
		if p.PosOf[v] != pos {
			t.Fatalf("PosOf[%d] = %d, want %d", v, p.PosOf[v], pos)
		}
	}
	if n < 2 {
		return
	}
	if len(p.Edges) != len(pat.Edges) {
		t.Fatalf("plan has %d edges, want %d", len(p.Edges), len(pat.Edges))
	}
	if p.Edges[0].EarlierPos != 0 || p.Edges[0].LaterPos != 1 {
		t.Fatalf("first planned edge joins %d-%d, want 0-1", p.Edges[0].EarlierPos, p.Edges[0].LaterPos)
	}
	coveredEdges := map[int]bool{}
	for _, pe := range p.Edges {
		if coveredEdges[pe.PatternEdge] {
			t.Fatalf("pattern edge %d planned twice", pe.PatternEdge)
		}
		coveredEdges[pe.PatternEdge] = true
		if pe.EarlierPos >= pe.LaterPos {
			t.Fatalf("edge positions not ordered: %d >= %d", pe.EarlierPos, pe.LaterPos)
		}
		// ExpandFrom must be the later endpoint, with the determiner
		// oriented accordingly.
		e := pat.Edges[pe.PatternEdge]
		s, d := pat.VertexIndex(e.Src), pat.VertexIndex(e.Dst)
		later := p.Order[pe.LaterPos]
		if pe.ExpandFrom != later {
			t.Fatalf("ExpandFrom = %d, later endpoint is %d", pe.ExpandFrom, later)
		}
		if later == d {
			if pe.D.Dir != e.D.Dir.Flip() {
				t.Fatalf("determiner not reversed for dst-side expansion")
			}
		} else if later == s {
			if pe.D.Dir != e.D.Dir {
				t.Fatalf("determiner flipped for src-side expansion")
			}
		} else {
			t.Fatalf("ExpandFrom %d is not an endpoint of pattern edge %d", pe.ExpandFrom, pe.PatternEdge)
		}
		if pe.EstPairs <= 0 {
			t.Fatalf("EstPairs = %f", pe.EstPairs)
		}
	}
	// Connectivity: every position ≥ 2 must have at least one planned
	// edge to an earlier position.
	for pos := 2; pos < n; pos++ {
		found := false
		for _, pe := range p.Edges {
			if pe.LaterPos == pos {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("position %d has no connecting edge", pos)
		}
	}
	// Candidates respect labels, and each list is exactly the evaluator's
	// set, ascending.
	for i, v := range pat.Vertices {
		for _, x := range p.CandList[i] {
			for _, l := range v.Labels {
				if !g.HasLabel(x, l) {
					t.Fatalf("candidate %d of %s lacks label %s", x, v.Name, l)
				}
			}
		}
		bm, err := pattern.Candidates(g, v)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.VertexID
		bm.ForEach(func(x int) { want = append(want, graph.VertexID(x)) })
		if !slices.Equal(p.CandList[i], want) {
			t.Fatalf("CandList and pattern.Candidates disagree for %s", v.Name)
		}
	}
}

// A vertex that is exactly one label takes the graph's shared list; a
// filtered vertex over the same label must get a list of its own, and
// planning must leave the shared one as it was.
func TestSharedLabelListNotAliased(t *testing.T) {
	g := socialGraph(t)
	shared := g.LabelVertices("Person")
	before := slices.Clone(shared)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"Person"}, PropCmp: []pattern.PropFilter{
				{Prop: "id", Op: pattern.CmpGe, Value: int64(0)}}}, // keeps every Person
			{Name: "q", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: d}},
	}
	p, err := Build(g, pat)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, g, pat, p)
	if &p.CandList[1][0] != &shared[0] {
		t.Error("label-only vertex did not take the shared label list")
	}
	if &p.CandList[0][0] == &shared[0] {
		t.Error("filtered vertex aliases the shared label list")
	}
	if !slices.Equal(p.CandList[0], shared) || !slices.Equal(shared, before) {
		t.Error("planning changed the shared label list")
	}
}

func TestTrianglePlan(t *testing.T) {
	g := socialGraph(t)
	pat := triangle(2)
	p, err := Build(g, pat)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, g, pat, p)
}

func TestSingleVertexPlan(t *testing.T) {
	g := socialGraph(t)
	pat := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "p", Labels: []string{"SIGA"}}}}
	p, err := Build(g, pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Order) != 1 || len(p.Edges) != 0 {
		t.Fatalf("single-vertex plan = %+v", p)
	}
	if len(p.CandList[0]) == 0 {
		t.Fatal("no SIGA candidates")
	}
}

func TestPlannerPrefersSelectiveSeed(t *testing.T) {
	// p has a unique-id filter (1 candidate), q is everything. The seed
	// pair must be {p, q}, with the 1-candidate vertex placed SECOND:
	// position 1 is the side VExpand starts from (§5.2's
	// expand-from-the-smaller-side rule).
	g := socialGraph(t)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "q", Labels: []string{"Person"}},
			{Name: "p", PropEq: map[string]any{"id": int64(1005)}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: d}},
	}
	p, err := Build(g, pat)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, g, pat, p)
	if p.Order[1] != 1 {
		t.Fatalf("expansion-side vertex is %d, want the selective one (1)", p.Order[1])
	}
}

func TestDisconnectedPatternRejected(t *testing.T) {
	g := socialGraph(t)
	d := pattern.Determiner{KMin: 1, KMax: 1, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
			{Name: "d", Labels: []string{"SIGA"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "c", Dst: "d", D: d},
		},
	}
	if _, err := Build(g, pat); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
}

func TestInvalidPatternRejected(t *testing.T) {
	g := socialGraph(t)
	if _, err := Build(g, &pattern.Pattern{}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	pat := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "a", Labels: []string{"NoSuchLabel"}}}}
	if _, err := Build(g, pat); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// Property: on random connected patterns over the social graph, plans
// always satisfy the invariants.
func TestQuickPlanInvariants(t *testing.T) {
	g := socialGraph(t)
	labels := [][]string{{"Person"}, {"SIGA"}, {"SIGB"}, {"SIGC"}, {"Person", "SIGA"}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		pat := &pattern.Pattern{}
		for i := 0; i < n; i++ {
			pat.Vertices = append(pat.Vertices, pattern.Vertex{
				Name:   string(rune('a' + i)),
				Labels: labels[rng.Intn(len(labels))],
			})
		}
		// Random spanning tree plus extra edges keeps it connected.
		mkDet := func() pattern.Determiner {
			return pattern.Determiner{
				KMin: 1, KMax: 1 + rng.Intn(3),
				Dir:        graph.Direction(rng.Intn(3)),
				Type:       pattern.PathType(rng.Intn(2)),
				EdgeLabels: []string{"knows"},
			}
		}
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			pat.Edges = append(pat.Edges, pattern.Edge{
				Src: pat.Vertices[j].Name, Dst: pat.Vertices[i].Name, D: mkDet(),
			})
		}
		for extra := rng.Intn(2); extra > 0; extra-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			dup := false
			for _, e := range pat.Edges {
				if (e.Src == pat.Vertices[i].Name && e.Dst == pat.Vertices[j].Name) ||
					(e.Src == pat.Vertices[j].Name && e.Dst == pat.Vertices[i].Name) {
					dup = true
				}
			}
			if dup {
				continue
			}
			pat.Edges = append(pat.Edges, pattern.Edge{
				Src: pat.Vertices[i].Name, Dst: pat.Vertices[j].Name, D: mkDet(),
			})
		}
		p, err := Build(g, pat)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		checkPlanInvariants(t, g, pat, p)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuildOrdered(t *testing.T) {
	g := socialGraph(t)
	pat := triangle(2)
	// Force the reverse of a typical order; invariants must still hold.
	p, err := BuildOrdered(g, pat, []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, g, pat, p)
	if p.Order[0] != 2 || p.Order[1] != 1 || p.Order[2] != 0 {
		t.Fatalf("Order = %v", p.Order)
	}

	if _, err := BuildOrdered(g, pat, nil); err == nil {
		t.Error("nil order accepted")
	}
	if _, err := BuildOrdered(g, pat, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := BuildOrdered(g, pat, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}

	// Disconnected forced order: a 4-vertex path a-b-c-d ordered so the
	// second position has no edge to the first.
	d := pattern.Determiner{KMin: 1, KMax: 1, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	path := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"Person"}},
			{Name: "b", Labels: []string{"Person"}},
			{Name: "c", Labels: []string{"Person"}},
			{Name: "d", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "c", Dst: "d", D: d},
		},
	}
	if _, err := BuildOrdered(g, path, []int{0, 3, 1, 2}); err == nil {
		t.Error("order whose first two vertices share no edge accepted")
	}
}
