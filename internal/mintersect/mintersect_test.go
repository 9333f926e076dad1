package mintersect

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// figure3 builds the paper's example social network with community labels:
// SIGA {0,1}, SIGB {2}, SIGC {3,4} (paper's 1-indexed {1,2},{3},{4,5}).
func figure3(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetLabel(graph.VertexID(v), "Person")
	}
	b.SetLabel(0, "SIGA").SetLabel(1, "SIGA")
	b.SetLabel(2, "SIGB")
	b.SetLabel(3, "SIGC").SetLabel(4, "SIGC")
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}} {
		b.AddEdge("knows", e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// collect runs the join through ForEachUntil and returns a copy of every
// tuple it hands over, in join order, with the result.
func collect(in *Input) ([][]graph.VertexID, *Result, error) {
	res := &Result{}
	var tuples [][]graph.VertexID
	err := ForEachUntil(context.Background(), in, Options{}, func(tuple []graph.VertexID) bool {
		tuples = append(tuples, slices.Clone(tuple))
		return true
	}, res)
	return tuples, res, err
}

// edgeMatrix expands from the candidates of the later endpoint toward the
// rest of the graph, producing the orientation MIntersect requires.
func edgeMatrix(t testing.TB, g *graph.Graph, laterCands []graph.VertexID, d pattern.Determiner) *bitmatrix.Matrix {
	t.Helper()
	r, err := vexpand.Expand(g, laterCands, d, vexpand.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.Reach
}

// TestCommunityTriangleOnFigure3 reproduces the worked example of §2.1 on
// our reconstruction of the example graph (the figure itself is not in the
// paper text; the reconstruction satisfies the text's D1/D2 determiner
// examples — see vexpand.TestPaperDeterminerExamples). The community
// triangle pattern has exactly two matches, verified by brute force:
// (2,3,4) and (2,3,5) in 1-indexed IDs, i.e. (1,2,3) and (1,2,4) here.
func TestCommunityTriangleOnFigure3(t *testing.T) {
	g := figure3(t)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}

	a := []graph.VertexID{0, 1} // SIGA
	bCand := []graph.VertexID{2}
	c := []graph.VertexID{3, 4} // SIGC

	// Join order a(0), b(1), c(2). All determiners are symmetric (Both),
	// so the reverse orientation uses the same determiner.
	mAB := edgeMatrix(t, g, bCand, d) // rows = b candidates
	mAC := edgeMatrix(t, g, c, d)     // rows = c candidates
	mBC := edgeMatrix(t, g, c, d)

	in := &Input{
		NumPatternVertices: 3,
		FirstCols:          a,
		First:              &EdgeMatrix{EarlierPos: 0, M: mAB},
		RowCandidates:      [][]graph.VertexID{nil, bCand, c},
		Ext: [][]*EdgeMatrix{nil, nil, {
			{EarlierPos: 0, M: mAC},
			{EarlierPos: 1, M: mBC},
		}},
	}
	got, res, err := collect(in)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]graph.VertexID{{1, 2, 3}, {1, 2, 4}}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][2] < got[j][2]
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	if res.Count != 2 {
		t.Fatalf("Count = %d, want 2", res.Count)
	}

	// Count-only must agree.
	cres, err := Run(in, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Count != 2 {
		t.Fatalf("count-only: Count=%d", cres.Count)
	}
}

func TestTwoVertexPattern(t *testing.T) {
	g := figure3(t)
	d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	siga := []graph.VertexID{0, 1}
	m := edgeMatrix(t, g, siga, d) // rows = q side (also SIGA)

	in := &Input{
		NumPatternVertices: 2,
		FirstCols:          siga,
		First:              &EdgeMatrix{EarlierPos: 0, M: m},
		RowCandidates:      [][]graph.VertexID{nil, siga},
		Ext:                [][]*EdgeMatrix{nil, nil},
	}
	got, res, err := collect(in)
	if err != nil {
		t.Fatal(err)
	}
	// Within 3 hops undirected, 0 and 1 reach each other; (p,q) ordered
	// pairs with p != q: (0,1) and (1,0). Walk semantics also lets 0
	// reach itself (0-1-0), but bijection excludes self pairs.
	want := [][]graph.VertexID{{0, 1}, {1, 0}}
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	// Counting fast path must agree with materialization.
	cres, err := Run(in, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Count != res.Count {
		t.Fatalf("count-only = %d, materialized = %d", cres.Count, res.Count)
	}
}

func TestValidationErrors(t *testing.T) {
	m := bitmatrix.New(2, 6)
	cands := []graph.VertexID{0, 1}
	good := func() *Input {
		return &Input{
			NumPatternVertices: 2,
			FirstCols:          cands,
			First:              &EdgeMatrix{EarlierPos: 0, M: m},
			RowCandidates:      [][]graph.VertexID{nil, cands},
			Ext:                [][]*EdgeMatrix{nil, nil},
		}
	}
	if _, err := Run(good(), Options{}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}

	in := good()
	in.NumPatternVertices = 1
	if _, err := Run(in, Options{}); err == nil {
		t.Error("n=1 accepted")
	}

	in = good()
	in.First = nil
	if _, err := Run(in, Options{}); err == nil {
		t.Error("missing first matrix accepted")
	}

	in = good()
	in.RowCandidates = [][]graph.VertexID{nil}
	if _, err := Run(in, Options{}); err == nil {
		t.Error("short RowCandidates accepted")
	}

	in = good()
	in.RowCandidates[1] = []graph.VertexID{0, 1, 2}
	if _, err := Run(in, Options{}); err == nil {
		t.Error("row count mismatch accepted")
	}

	// Disconnected position 2.
	in3 := &Input{
		NumPatternVertices: 3,
		FirstCols:          cands,
		First:              &EdgeMatrix{EarlierPos: 0, M: m},
		RowCandidates:      [][]graph.VertexID{nil, cands, cands},
		Ext:                [][]*EdgeMatrix{nil, nil, nil},
	}
	if _, err := Run(in3, Options{}); err == nil {
		t.Error("disconnected join order accepted")
	}

	// Invalid earlier position.
	in3.Ext[2] = []*EdgeMatrix{{EarlierPos: 5, M: bitmatrix.New(2, 6)}}
	if _, err := Run(in3, Options{}); err == nil {
		t.Error("invalid EarlierPos accepted")
	}

	// A three-vertex join whose later list is unsorted: the row arrays merge
	// it, so every join rejects it, counting or enumerating.
	in3.Ext[2] = []*EdgeMatrix{{EarlierPos: 0, M: bitmatrix.New(2, 6)}}
	in3.RowCandidates[2] = []graph.VertexID{1, 0}
	for _, opts := range []Options{{}, {CountOnly: true}} {
		if _, err := Run(in3, opts); err == nil || !strings.Contains(err.Error(), "strictly ascending") {
			t.Errorf("unsorted RowCandidates[2] with %+v: err %v, want it rejected", opts, err)
		}
	}
}

// buildReference enumerates all tuples by brute force from boolean reach
// functions.
type refEdge struct {
	a, b  int // pattern positions
	reach func(va, vb graph.VertexID) bool
}

func bruteForce(n int, cands [][]graph.VertexID, edges []refEdge) [][]graph.VertexID {
	var out [][]graph.VertexID
	tuple := make([]graph.VertexID, n)
	var rec func(t int)
	rec = func(t int) {
		if t == n {
			out = append(out, append([]graph.VertexID(nil), tuple...))
			return
		}
		for _, v := range cands[t] {
			dup := false
			for i := 0; i < t; i++ {
				if tuple[i] == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			ok := true
			for _, e := range edges {
				if e.b == t && e.a < t && !e.reach(tuple[e.a], v) {
					ok = false
					break
				}
			}
			if ok {
				tuple[t] = v
				rec(t + 1)
			}
		}
	}
	rec(0)
	return out
}

// Property: MIntersect over randomly generated reachability matrices equals
// brute-force enumeration, and CountOnly equals the materialized count.
func TestQuickGenericJoinMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nV := 15 + rng.Intn(25) // graph vertices
		nP := 2 + rng.Intn(3)   // pattern vertices: 2..4

		// Random candidate sets per position.
		cands := make([][]graph.VertexID, nP)
		for t := 0; t < nP; t++ {
			sz := 1 + rng.Intn(6)
			seen := map[graph.VertexID]bool{}
			for len(cands[t]) < sz {
				v := graph.VertexID(rng.Intn(nV))
				if !seen[v] {
					seen[v] = true
					cands[t] = append(cands[t], v)
				}
			}
		}
		// The join merges these lists and rejects unsorted ones; they keep
		// their overlaps, which exercise the bijection.
		for _, c := range cands {
			slices.Sort(c)
		}

		// Random symmetric-ish reachability per pattern edge: first edge
		// (0,1), and each t ≥ 2 connects to 1 + rng.Intn(t) earlier
		// positions.
		type edgeDef struct {
			earlier, later int
			m              *bitmatrix.Matrix
		}
		var defs []edgeDef
		makeMatrix := func(later int) *bitmatrix.Matrix {
			m := bitmatrix.New(len(cands[later]), nV)
			for i := range cands[later] {
				for j := 0; j < nV; j++ {
					if rng.Float64() < 0.35 {
						m.Set(i, j)
					}
				}
			}
			return m
		}
		defs = append(defs, edgeDef{0, 1, makeMatrix(1)})
		for t := 2; t < nP; t++ {
			used := map[int]bool{}
			k := 1 + rng.Intn(t)
			for len(used) < k {
				e := rng.Intn(t)
				if !used[e] {
					used[e] = true
					defs = append(defs, edgeDef{e, t, makeMatrix(t)})
				}
			}
		}

		in := &Input{
			NumPatternVertices: nP,
			FirstCols:          cands[0],
			RowCandidates:      cands,
			Ext:                make([][]*EdgeMatrix, nP),
		}
		var refs []refEdge
		for _, d := range defs {
			d := d
			rowOf := map[graph.VertexID]int{}
			for i, v := range cands[d.later] {
				rowOf[v] = i
			}
			refs = append(refs, refEdge{a: d.earlier, b: d.later,
				reach: func(va, vb graph.VertexID) bool {
					row, ok := rowOf[vb]
					return ok && d.m.Get(row, int(va))
				}})
			em := &EdgeMatrix{EarlierPos: d.earlier, M: d.m}
			if d.later == 1 {
				in.First = em
			} else {
				in.Ext[d.later] = append(in.Ext[d.later], em)
			}
		}

		want := bruteForce(nP, cands, refs)
		got, _, err := collect(in)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sortTuples(want)
		sortTuples(got)
		if len(want) == 0 && len(got) == 0 {
			// fall through to count check
		} else if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: got %d tuples, want %d", seed, len(got), len(want))
			return false
		}
		cres, err := Run(in, Options{CountOnly: true})
		if err != nil {
			return false
		}
		return cres.Count == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := figure3(t)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	c := []graph.VertexID{3, 4}
	mAB := edgeMatrix(t, g, []graph.VertexID{2}, d)
	mAC := edgeMatrix(t, g, c, d)
	mBC := edgeMatrix(t, g, c, d)
	in := &Input{
		NumPatternVertices: 3,
		FirstCols:          []graph.VertexID{0, 1},
		First:              &EdgeMatrix{EarlierPos: 0, M: mAB},
		RowCandidates:      [][]graph.VertexID{nil, {2}, c},
		Ext:                [][]*EdgeMatrix{nil, nil, {{EarlierPos: 0, M: mAC}, {EarlierPos: 1, M: mBC}}},
	}
	res, err := Run(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SeedPairs == 0 || res.Stats.Intersections == 0 {
		t.Fatalf("stats not accumulated: %+v", res.Stats)
	}
}

// Property: parallel Run equals serial Run — count, seed pairs and column
// intersections, enumerating and counting — and both count what
// ForEachUntil hands over.
func TestQuickParallelRunEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nV := 20 + rng.Intn(20)
		cands0 := make([]graph.VertexID, 0)
		cands1 := make([]graph.VertexID, 0)
		for v := 0; v < nV; v++ {
			if rng.Intn(2) == 0 {
				cands0 = append(cands0, graph.VertexID(v))
			}
			if rng.Intn(2) == 0 {
				cands1 = append(cands1, graph.VertexID(v))
			}
		}
		if len(cands0) == 0 || len(cands1) == 0 {
			return true
		}
		m := bitmatrix.New(len(cands1), nV)
		for i := range cands1 {
			for j := 0; j < nV; j++ {
				if rng.Float64() < 0.3 {
					m.Set(i, j)
				}
			}
		}
		in := &Input{
			NumPatternVertices: 2,
			FirstCols:          cands0,
			First:              &EdgeMatrix{EarlierPos: 0, M: m},
			RowCandidates:      [][]graph.VertexID{nil, cands1},
			Ext:                [][]*EdgeMatrix{nil, nil},
		}
		tuples, _, err := collect(in)
		if err != nil {
			return false
		}
		for _, opts := range []Options{{}, {CountOnly: true}} {
			serial, err1 := Run(in, opts)
			opts.Workers = 3
			par, err2 := Run(in, opts)
			if err1 != nil || err2 != nil {
				return false
			}
			if serial.Count != int64(len(tuples)) || par.Count != serial.Count || par.Stats != serial.Stats {
				t.Logf("seed %d, countOnly=%v: serial %d %+v, parallel %d %+v, enumerated %d",
					seed, opts.CountOnly, serial.Count, serial.Stats, par.Count, par.Stats, len(tuples))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// countInput builds a two-vertex join over a random undirected graph in
// which walks return to their start (every vertex with a neighbour reaches
// itself at length 2), so seeds that are also row candidates carry
// self-match bits the count must take out.
func countInput(t *testing.T, seeds, rows []graph.VertexID) *Input {
	t.Helper()
	const n = 60
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge("knows", uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	g := b.MustBuild()
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	return &Input{
		NumPatternVertices: 2,
		FirstCols:          seeds,
		First:              &EdgeMatrix{EarlierPos: 0, M: edgeMatrix(t, g, rows, d)},
		RowCandidates:      [][]graph.VertexID{nil, rows},
		Ext:                [][]*EdgeMatrix{nil, nil},
	}
}

func vertexRange(lo, hi int) []graph.VertexID {
	out := make([]graph.VertexID, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, graph.VertexID(v))
	}
	return out
}

// The two-vertex COUNT (column popcounts minus one merge for the
// self-matches) equals the enumerated count however the seed and row lists
// overlap, serial and partitioned; lists that are not strictly ascending —
// which the planner never produces — are rejected by every join, never
// miscounted.
func TestTwoVertexCountMatchesEnumeration(t *testing.T) {
	reversed := func(l []graph.VertexID) []graph.VertexID {
		out := slices.Clone(l)
		slices.Reverse(out)
		return out
	}
	cases := []struct {
		name        string
		seeds, rows []graph.VertexID
		selfMatches bool
		rejected    bool
	}{
		{"full overlap", vertexRange(0, 40), vertexRange(0, 40), true, false},
		{"partial overlap", vertexRange(0, 40), vertexRange(25, 60), true, false},
		{"rows inside seeds", vertexRange(0, 60), vertexRange(30, 33), true, false},
		{"disjoint", vertexRange(0, 30), vertexRange(30, 60), false, false},
		{"seeds descending", reversed(vertexRange(0, 40)), vertexRange(25, 60), true, true},
		{"rows descending", vertexRange(0, 40), reversed(vertexRange(25, 60)), true, true},
		{"duplicate seeds", []graph.VertexID{3, 3, 7, 30, 30}, vertexRange(0, 40), true, true},
	}
	for _, c := range cases {
		in := countInput(t, c.seeds, c.rows)
		self := 0
		for row, v := range c.rows {
			if slices.Contains(c.seeds, v) && in.First.M.Get(row, int(v)) {
				self++
			}
		}
		if (self > 0) != c.selfMatches {
			t.Fatalf("%s: fixture has %d self-matches", c.name, self)
		}
		enumerated, _, err := collect(in)
		if c.rejected {
			if err == nil || !strings.Contains(err.Error(), "strictly ascending") {
				t.Errorf("%s: enumerated %d tuples, err %v; want the input rejected", c.name, len(enumerated), err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		for _, tuple := range enumerated {
			if tuple[0] == tuple[1] {
				t.Fatalf("%s: enumerated a self pair %v", c.name, tuple)
			}
		}
		for _, workers := range []int{1, 3} {
			counted, err := Run(in, Options{CountOnly: true, Workers: workers})
			if c.rejected {
				if err == nil || !strings.Contains(err.Error(), "strictly ascending") {
					t.Errorf("%s, workers=%d: counted %v, err %v; want the input rejected", c.name, workers, counted, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if counted.Count != int64(len(enumerated)) || counted.Stats.SeedPairs != counted.Count {
				t.Errorf("%s, workers=%d: counted %d (seed pairs %d), enumerated %d",
					c.name, workers, counted.Count, counted.Stats.SeedPairs, len(enumerated))
			}
		}
	}
}
