package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// bruteForceMatch enumerates all matches of pat on g directly from the
// definitions: candidates per vertex, reachability per edge via walk/BFS
// oracles, injective binding.
func bruteForceMatch(t *testing.T, g *graph.Graph, pat *pattern.Pattern) [][]graph.VertexID {
	t.Helper()
	n := len(pat.Vertices)
	cands := make([][]graph.VertexID, n)
	for i, v := range pat.Vertices {
		bm, err := pattern.Candidates(g, v)
		if err != nil {
			t.Fatal(err)
		}
		bm.ForEach(func(x int) { cands[i] = append(cands[i], graph.VertexID(x)) })
	}
	// reach[e][u] = set of v with D(u, v).
	reach := make([]map[graph.VertexID]map[int]bool, len(pat.Edges))
	for ei, e := range pat.Edges {
		si := pat.VertexIndex(e.Src)
		reach[ei] = map[graph.VertexID]map[int]bool{}
		for _, u := range cands[si] {
			reach[ei][u] = reachOracle(g, u, e.D)
		}
	}
	var out [][]graph.VertexID
	tuple := make([]graph.VertexID, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, append([]graph.VertexID(nil), tuple...))
			return
		}
		for _, v := range cands[i] {
			dup := false
			for j := 0; j < i; j++ {
				if tuple[j] == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			tuple[i] = v
			ok := true
			for ei, e := range pat.Edges {
				si, di := pat.VertexIndex(e.Src), pat.VertexIndex(e.Dst)
				if si > i || di > i {
					continue // not fully bound yet
				}
				if !reach[ei][tuple[si]][int(tuple[di])] {
					ok = false
					break
				}
			}
			if ok {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return out
}

// reachOracle is the walk/shortest oracle shared with the other tests.
func reachOracle(g *graph.Graph, v graph.VertexID, d pattern.Determiner) map[int]bool {
	sets, err := g.EdgeSets(d.EdgeLabels)
	if err != nil {
		panic(err)
	}
	out := map[int]bool{}
	cur := map[int]bool{int(v): true}
	visited := map[int]bool{int(v): true}
	if d.KMin == 0 {
		out[int(v)] = true
	}
	kmax := d.KMax
	if kmax == pattern.Unbounded {
		kmax = g.NumVertices()
	}
	for step := 1; step <= kmax; step++ {
		next := map[int]bool{}
		for u := range cur {
			for _, es := range sets {
				for _, w := range es.Neighbors(graph.VertexID(u), d.Dir) {
					next[int(w)] = true
				}
			}
		}
		if d.Type == pattern.Shortest {
			for u := range visited {
				delete(next, u)
			}
			for u := range next {
				visited[u] = true
			}
		}
		if step >= d.KMin {
			for u := range next {
				out[u] = true
			}
		}
		if len(next) == 0 {
			break
		}
		cur = next
	}
	return out
}

func sortTuples(ts [][]graph.VertexID) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

// randomMatchCase draws a graph of nV vertices with four vertex labels and
// two edge labels, and a connected pattern of 2–4 vertices with mixed
// determiners over them.
func randomMatchCase(rng *rand.Rand, nV int) (*graph.Graph, *pattern.Pattern) {
	labels := []string{"L0", "L1", "L2", "L3"}
	b := graph.NewBuilder(nV)
	for v := 0; v < nV; v++ {
		// Round-robin base labels guarantee every label exists (an
		// entirely-unused label is a query error by design), plus a
		// random extra label on some vertices.
		b.SetLabel(graph.VertexID(v), labels[v%len(labels)])
		if rng.Intn(3) == 0 {
			b.SetLabel(graph.VertexID(v), labels[rng.Intn(len(labels))])
		}
	}
	// Two edge labels, both guaranteed present.
	b.AddEdge("e1", 0, uint32(1%nV))
	b.AddEdge("e2", uint32(1%nV), 0)
	m := rng.Intn(3 * nV)
	for i := 0; i < m; i++ {
		label := []string{"e1", "e2"}[rng.Intn(2)]
		b.AddEdge(label, uint32(rng.Intn(nV)), uint32(rng.Intn(nV)))
	}
	g := b.MustBuild()

	nP := 2 + rng.Intn(3)
	pat := &pattern.Pattern{}
	for i := 0; i < nP; i++ {
		pat.Vertices = append(pat.Vertices, pattern.Vertex{
			Name:   string(rune('a' + i)),
			Labels: []string{labels[rng.Intn(len(labels))]},
		})
	}
	mkDet := func() pattern.Determiner {
		d := pattern.Determiner{
			KMin:       1 + rng.Intn(2),
			Dir:        graph.Direction(rng.Intn(3)),
			Type:       pattern.PathType(rng.Intn(2)),
			EdgeLabels: [][]string{{"e1"}, {"e2"}, {"e1", "e2"}}[rng.Intn(3)],
		}
		d.KMax = d.KMin + rng.Intn(3)
		return d
	}
	// Spanning tree + occasional extra edge.
	for i := 1; i < nP; i++ {
		j := rng.Intn(i)
		pat.Edges = append(pat.Edges, pattern.Edge{
			Src: pat.Vertices[j].Name, Dst: pat.Vertices[i].Name, D: mkDet(),
		})
	}
	if nP > 2 && rng.Intn(2) == 0 {
		pat.Edges = append(pat.Edges, pattern.Edge{
			Src: pat.Vertices[0].Name, Dst: pat.Vertices[nP-1].Name, D: mkDet(),
		})
	}
	return g, pat
}

// matchDiffers runs pat on g under opts, as tuples and as a count, and
// describes how the result differs from brute force ("" when it agrees).
func matchDiffers(t *testing.T, g *graph.Graph, pat *pattern.Pattern, opts Options) string {
	eng := New(g, opts)
	res, err := eng.Match(pat, MatchOptions{})
	if err != nil {
		return err.Error()
	}
	want := bruteForceMatch(t, g, pat)
	got := res.Tuples
	sortTuples(got)
	sortTuples(want)
	if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("got %d tuples, want %d", len(got), len(want))
	}
	cres, err := eng.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		return err.Error()
	}
	if cres.Count != int64(len(want)) {
		return fmt.Sprintf("count %d, want %d", cres.Count, len(want))
	}
	return ""
}

// mixedFormsCase is a graph whose BFS reach matrices hold a dense stack
// beside a sparse one, and two patterns that AND two such matrices. The 600
// sources (label S) fill two 512-row stacks. Over e1 the first stack's
// sources reach a hub and, through it, 400 targets (label T), which
// promotes that stack to dense; over e2 every source reaches one target,
// and a second one a hop later, which keeps a stack sparse. The patterns
// put a {e1,e2} edge and a one-hop e2 edge between the same two vertices
// (parallel edges, in both orders), so the join clones the first matrix
// and ANDs the second into it: a dense stack with a sparse one, and a
// sparse stack with a dense one.
func mixedFormsCase() (*graph.Graph, []*pattern.Pattern) {
	const nV, sources, hub = 1500, 600, 1499
	b := graph.NewBuilder(nV)
	for v := 0; v < nV; v++ {
		b.SetLabel(graph.VertexID(v), []string{"S", "T"}[min(v/sources, 1)])
	}
	for i := uint32(0); i < sources; i++ {
		if i < bitmatrix.StackRows {
			b.AddEdge("e1", i, hub)
			if i%3 == 0 {
				b.AddEdge("e1", i, hub) // a parallel graph edge
			}
		}
		b.AddEdge("e2", i, sources+i%400)
		b.AddEdge("e2", sources+i%400, sources+(7*i+1)%400)
	}
	for v := uint32(sources); v < sources+400; v++ {
		b.AddEdge("e1", hub, v)
	}
	wide := pattern.Edge{Src: "a", Dst: "b", D: pattern.Determiner{KMin: 1, KMax: 2, EdgeLabels: []string{"e1", "e2"}}}
	narrow := pattern.Edge{Src: "a", Dst: "b", D: pattern.Determiner{KMin: 1, KMax: 1, EdgeLabels: []string{"e2"}}}
	var pats []*pattern.Pattern
	for _, edges := range [][]pattern.Edge{{wide, narrow}, {narrow, wide}} {
		pats = append(pats, &pattern.Pattern{
			Vertices: []pattern.Vertex{{Name: "a", Labels: []string{"S"}}, {Name: "b", Labels: []string{"T"}}},
			Edges:    edges,
		})
	}
	return b.MustBuild(), pats
}

// Property: Match agrees with brute force on random graphs and random
// connected patterns of 2–4 vertices with mixed determiners, and on
// mixedFormsCase under BFS (builder-made stacks) and Auto.
func TestQuickMatchAgainstBruteForce(t *testing.T) {
	g, pats := mixedFormsCase()
	for i, pat := range pats {
		for _, k := range []vexpand.Kernel{vexpand.BFS, vexpand.Auto} {
			if msg := matchDiffers(t, g, pat, Options{Kernel: k}); msg != "" {
				t.Errorf("mixed forms, pattern %d, %v: %s", i, k, msg)
			}
		}
		// The BFS matrices must really mix forms: one dense stack (|V|×64
		// bytes) among four, the other three sparse.
		res, err := New(g, Options{Kernel: vexpand.BFS}).Match(pat, MatchOptions{CountOnly: true})
		if dense := int64(g.NumVertices()) * 64; err != nil || res.ExpandStats.MatrixBytes <= dense || res.ExpandStats.MatrixBytes >= 2*dense {
			t.Errorf("mixed forms, pattern %d: matrix bytes %d (%v), want one dense stack of %d and sparse ones",
				i, res.ExpandStats.MatrixBytes, err, dense)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, pat := randomMatchCase(rng, 15+rng.Intn(25))
		if msg := matchDiffers(t, g, pat, Options{}); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: MatchEach hands over the identical tuple sequence, and the same
// count, whether VExpand runs the BFS kernel (sparse stacks) or Hilbert
// (dense ones), on graphs large enough for several 512-row stacks; and
// every query gives back all it reserved: the accountant returns to zero
// without a cache and to the cache's residency with one.
func TestQuickMatchEachSameSequenceAcrossKernels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nV := 15 + rng.Intn(25)
		if rng.Intn(2) == 0 {
			nV = 1200 + rng.Intn(2000) // label candidate sets past one 512-row stack
		}
		g, pat := randomMatchCase(rng, nV)
		var seqs [][][]graph.VertexID
		var counts []int64
		for _, k := range []vexpand.Kernel{vexpand.BFS, vexpand.Hilbert} {
			for _, cacheBytes := range []int64{0, DefaultCacheBytes} {
				eng := New(g, Options{Kernel: k, CacheBytes: cacheBytes})
				for run := 0; run < 2; run++ { // the second run reads the cache when there is one
					var seq [][]graph.VertexID
					res, err := eng.MatchEach(context.Background(), pat, MatchOptions{}, func(tuple []graph.VertexID) bool {
						seq = append(seq, append([]graph.VertexID(nil), tuple...))
						return true
					})
					if err != nil {
						t.Logf("seed %d: %v: %v", seed, k, err)
						return false
					}
					if in, cached := eng.Accountant().InUse(), eng.cache.Bytes(); in != cached {
						t.Logf("seed %d: %v: %d bytes reserved after the query, cache holds %d", seed, k, in, cached)
						return false
					}
					seqs = append(seqs, seq)
					counts = append(counts, res.Count)
				}
			}
		}
		for i := range seqs {
			if !reflect.DeepEqual(seqs[i], seqs[0]) || counts[i] != counts[0] || counts[i] != int64(len(seqs[i])) {
				t.Logf("seed %d: run %d gave %d tuples (count %d), run 0 gave %d (count %d)",
					seed, i, len(seqs[i]), counts[i], len(seqs[0]), counts[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
