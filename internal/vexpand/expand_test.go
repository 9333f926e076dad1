package vexpand

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// figure3 builds the paper's example social network (Figure 3), 0-indexed:
// knows edges 0-1, 1-2, 2-3, 2-4, 3-5.
func figure3(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}} {
		b.AddEdge("knows", e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chain builds a directed chain 0→1→2→…→n-1 with label "e".
func chain(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge("e", uint32(i), uint32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceExpand is an obviously-correct implementation of the determiner
// semantics, used as the oracle for every kernel.
func referenceExpand(g *graph.Graph, sources []graph.VertexID, d pattern.Determiner) map[[2]int]bool {
	sets, err := g.EdgeSets(d.EdgeLabels)
	if err != nil {
		panic(err)
	}
	result := map[[2]int]bool{}
	maxSteps := d.KMax
	if maxSteps == pattern.Unbounded {
		maxSteps = g.NumVertices()
	}
	for i, s := range sources {
		cur := map[int]bool{int(s): true}
		visited := map[int]bool{int(s): true}
		if d.KMin == 0 {
			result[[2]int{i, int(s)}] = true
		}
		for step := 1; step <= maxSteps; step++ {
			next := map[int]bool{}
			for v := range cur {
				for _, es := range sets {
					for _, j := range es.Neighbors(graph.VertexID(v), d.Dir) {
						next[int(j)] = true
					}
				}
			}
			if d.Type == pattern.Shortest {
				for v := range visited {
					delete(next, v)
				}
				for v := range next {
					visited[v] = true
				}
			}
			if step >= d.KMin {
				for v := range next {
					result[[2]int{i, v}] = true
				}
			}
			if len(next) == 0 {
				break
			}
			cur = next
		}
	}
	return result
}

func resultPairs(r *Result) map[[2]int]bool {
	out := map[[2]int]bool{}
	r.Reach.ForEachSet(func(row, col int) { out[[2]int{row, col}] = true })
	return out
}

var allKernels = []Kernel{Strawman, ColumnMajor, SIMD, Hilbert, BFS}

func expandWith(t *testing.T, g *graph.Graph, sources []graph.VertexID, d pattern.Determiner, k Kernel) *Result {
	t.Helper()
	r, err := Expand(g, sources, d, Options{Kernel: k})
	if err != nil {
		t.Fatalf("Expand(%v): %v", k, err)
	}
	return r
}

// TestPaperDeterminerExamples checks the two worked examples under
// Definition 2 of the paper (converted to 0-indexing):
// D1=(1,2,-,ANY): D1(v1,v6)=False, D1(v1,v2)=True.
// D2=(2,4,-,SHORTEST): D2(v1,v6)=True, D2(v1,v2)=False.
func TestPaperDeterminerExamples(t *testing.T) {
	g := figure3(t)
	d1 := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	d2 := pattern.Determiner{KMin: 2, KMax: 4, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}
	for _, k := range allKernels {
		r1 := expandWith(t, g, []graph.VertexID{0}, d1, k)
		if r1.Reach.Get(0, 5) {
			t.Errorf("%v: D1(v1,v6) should be False", k)
		}
		if !r1.Reach.Get(0, 1) {
			t.Errorf("%v: D1(v1,v2) should be True", k)
		}
		r2 := expandWith(t, g, []graph.VertexID{0}, d2, k)
		if !r2.Reach.Get(0, 5) {
			t.Errorf("%v: D2(v1,v6) should be True", k)
		}
		if r2.Reach.Get(0, 1) {
			t.Errorf("%v: D2(v1,v2) should be False", k)
		}
	}
}

func TestAllKernelsMatchReferenceOnFigure3(t *testing.T) {
	g := figure3(t)
	sources := []graph.VertexID{0, 2, 5}
	dets := []pattern.Determiner{
		{KMin: 1, KMax: 1, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}},
		{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}},
		{KMin: 0, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}},
		{KMin: 2, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}},
		{KMin: 1, KMax: 3, Dir: graph.Forward, Type: pattern.Any, EdgeLabels: []string{"knows"}},
		{KMin: 1, KMax: 3, Dir: graph.Reverse, Type: pattern.Any, EdgeLabels: []string{"knows"}},
		{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}},
		{KMin: 2, KMax: 4, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}},
	}
	for _, d := range dets {
		want := referenceExpand(g, sources, d)
		for _, k := range allKernels {
			got := resultPairs(expandWith(t, g, sources, d, k))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("kernel %v, determiner %v: got %v, want %v", k, d, got, want)
			}
		}
	}
}

func TestDirectedChainDirections(t *testing.T) {
	g := chain(t, 10)
	d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Forward, Type: pattern.Any, EdgeLabels: []string{"e"}}
	r := expandWith(t, g, []graph.VertexID{0}, d, BFS)
	if got := r.Reach.RowBits(0); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("forward reach = %v, want [1 2 3]", got)
	}
	d.Dir = graph.Reverse
	r = expandWith(t, g, []graph.VertexID{5}, d, Hilbert)
	if got := r.Reach.RowBits(0); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("reverse reach = %v, want [2 3 4]", got)
	}
	// Undirected ANY: the source itself reappears via a length-2 walk
	// (5→4→5) under walk semantics.
	d.Dir = graph.Both
	r = expandWith(t, g, []graph.VertexID{5}, d, SIMD)
	if got := r.Reach.RowBits(0); !reflect.DeepEqual(got, []int{2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("both reach = %v", got)
	}
}

// TestWalkVsShortestSemantics pins the walk-semantics subtlety: on an
// undirected edge, a walk of length 2 returns to the start, so ANY with
// kmin=2 includes the source itself, while SHORTEST does not.
func TestWalkVsShortestSemantics(t *testing.T) {
	g := chain(t, 3) // 0→1→2
	dAny := pattern.Determiner{KMin: 2, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"e"}}
	r := expandWith(t, g, []graph.VertexID{0}, dAny, Hilbert)
	if !r.Reach.Get(0, 0) {
		t.Error("ANY walk of length 2 should return to the source")
	}
	if !r.Reach.Get(0, 2) {
		t.Error("ANY walk of length 2 should reach vertex 2")
	}
	dShort := dAny
	dShort.Type = pattern.Shortest
	r = expandWith(t, g, []graph.VertexID{0}, dShort, Hilbert)
	if r.Reach.Get(0, 0) {
		t.Error("SHORTEST must not rediscover the source at distance 2")
	}
	if !r.Reach.Get(0, 2) {
		t.Error("SHORTEST distance 2 should reach vertex 2")
	}
}

func TestUnboundedShortest(t *testing.T) {
	g := chain(t, 50)
	d := pattern.Determiner{KMin: 1, KMax: pattern.Unbounded, Dir: graph.Forward, Type: pattern.Shortest, EdgeLabels: []string{"e"}}
	for _, k := range []Kernel{BFS, Hilbert} {
		r := expandWith(t, g, []graph.VertexID{0}, d, k)
		if got := r.Reach.ColumnPopCount(49); got != 1 {
			t.Errorf("%v: end of chain unreachable", k)
		}
		if got := r.PairCount(); got != 49 {
			t.Errorf("%v: PairCount = %d, want 49", k, got)
		}
		// Frontier exhaustion must stop the loop long before |V| steps
		// would on a 50-chain; steps is exactly 50: 49 productive + 1
		// empty-detecting step at most.
		if r.Stats.Steps > 50 {
			t.Errorf("%v: Steps = %d, expansion did not stop", k, r.Stats.Steps)
		}
	}
}

func TestPerStepMinLength(t *testing.T) {
	g := chain(t, 8)
	d := pattern.Determiner{KMin: 1, KMax: 5, Dir: graph.Forward, Type: pattern.Any, EdgeLabels: []string{"e"}}
	for _, k := range []Kernel{BFS, Hilbert, Strawman} {
		r, err := Expand(g, []graph.VertexID{0, 2}, d, Options{Kernel: k, KeepPerStep: true})
		if err != nil {
			t.Fatal(err)
		}
		// Matrix kernels retain step matrices; BFS keeps sparse distance
		// maps — MinLength must work either way.
		if k != BFS && len(r.PerStep) == 0 {
			t.Fatalf("%v: PerStep empty", k)
		}
		if l, ok := r.MinLength(0, 3); !ok || l != 3 {
			t.Errorf("%v: MinLength(0→3) = %d,%v want 3", k, l, ok)
		}
		if l, ok := r.MinLength(1, 3); !ok || l != 1 {
			t.Errorf("%v: MinLength(2→3) = %d,%v want 1", k, l, ok)
		}
		if _, ok := r.MinLength(1, 0); ok {
			t.Errorf("%v: MinLength to unreachable vertex succeeded", k)
		}
	}
}

func TestEmptySources(t *testing.T) {
	g := figure3(t)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	for _, k := range []Kernel{BFS, Hilbert} {
		r, err := Expand(g, nil, d, Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		if r.PairCount() != 0 || r.Reach.Rows() != 0 {
			t.Errorf("%v: empty sources produced results", k)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	g := figure3(t)
	if _, err := Expand(g, []graph.VertexID{0}, pattern.Determiner{KMin: 2, KMax: 1}, Options{}); err == nil {
		t.Error("invalid determiner accepted")
	}
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"nope"}}
	if _, err := Expand(g, []graph.VertexID{0}, d, Options{}); err == nil {
		t.Error("unknown edge label accepted")
	}
	d.EdgeLabels = []string{"knows"}
	if _, err := Expand(g, []graph.VertexID{99}, d, Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestAutoKernelSelection(t *testing.T) {
	g := figure3(t)
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
	r, err := Expand(g, []graph.VertexID{0}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Kernel != BFS {
		t.Errorf("small source set resolved to %v, want BFS", r.Stats.Kernel)
	}
	many := make([]graph.VertexID, 200)
	for i := range many {
		many[i] = graph.VertexID(i % 6)
	}
	r, err = Expand(g, many, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Kernel != Hilbert {
		t.Errorf("large source set resolved to %v, want Hilbert", r.Stats.Kernel)
	}
}

func TestMultiLabelUnion(t *testing.T) {
	// transfer: 0→1, withdraw: 1→2. With both labels, 2 is reachable in 2
	// steps from 0; with only transfer it is not (Case 12's pattern).
	b := graph.NewBuilder(3)
	b.AddEdge("transfer", 0, 1)
	b.AddEdge("withdraw", 1, 2)
	g := b.MustBuild()
	d := pattern.Determiner{KMin: 1, KMax: 2, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer", "withdraw"}}
	for _, k := range allKernels {
		r := expandWith(t, g, []graph.VertexID{0}, d, k)
		if got := r.Reach.RowBits(0); !reflect.DeepEqual(got, []int{1, 2}) {
			t.Errorf("%v: union reach = %v, want [1 2]", k, got)
		}
	}
	d.EdgeLabels = []string{"transfer"}
	r := expandWith(t, g, []graph.VertexID{0}, d, BFS)
	if got := r.Reach.RowBits(0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("transfer-only reach = %v, want [1]", got)
	}
}

func TestStatsBreakdown(t *testing.T) {
	g := chain(t, 30)
	dShort := pattern.Determiner{KMin: 1, KMax: 5, Dir: graph.Forward, Type: pattern.Shortest, EdgeLabels: []string{"e"}}
	r := expandWith(t, g, []graph.VertexID{0}, dShort, BFS)
	if r.Stats.UpdateVisitTime < 0 {
		t.Error("negative UpdateVisitTime")
	}
	if r.Stats.Steps != 5 {
		t.Errorf("Steps = %d, want 5", r.Stats.Steps)
	}
	if r.Stats.IntermediateResults != 5 {
		t.Errorf("IntermediateResults = %d, want 5 (one new vertex per step)", r.Stats.IntermediateResults)
	}
	dAny := dShort
	dAny.Type = pattern.Any
	r = expandWith(t, g, []graph.VertexID{0}, dAny, Hilbert)
	if r.Stats.UpdateVisitTime != 0 {
		t.Error("ANY expansion spent time on UpdateVisit (Figure 8 C11/C12 property violated)")
	}
	if r.Stats.MatrixBytes <= 0 {
		t.Error("MatrixBytes not recorded")
	}
}

// randomGraph builds a random directed multigraph with two edge labels.
func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	labels := []string{"e1", "e2"}
	// Guarantee both labels exist so random EdgeLabels choices resolve.
	b.AddEdge("e1", 0, uint32(1%n))
	b.AddEdge("e2", uint32(1%n), 0)
	for i := 0; i < m; i++ {
		b.AddEdge(labels[rng.Intn(2)], uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// Property: every kernel agrees with the reference oracle on random graphs,
// random source sets, and random determiners. This is the core correctness
// property of §4: all optimization rungs preserve semantics.
func TestQuickKernelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(4*n))
		numSources := 1 + rng.Intn(10)
		sources := make([]graph.VertexID, numSources)
		for i := range sources {
			sources[i] = graph.VertexID(rng.Intn(n))
		}
		d := pattern.Determiner{
			KMin:       rng.Intn(3),
			Dir:        graph.Direction(rng.Intn(3)),
			Type:       pattern.PathType(rng.Intn(2)),
			EdgeLabels: [][]string{{"e1"}, {"e2"}, {"e1", "e2"}}[rng.Intn(3)],
		}
		d.KMax = d.KMin + rng.Intn(4)
		if d.KMax == 0 {
			d.KMax = 1
		}
		want := referenceExpand(g, sources, d)
		for _, k := range allKernels {
			r, err := Expand(g, sources, d, Options{Kernel: k})
			if err != nil {
				t.Logf("seed %d kernel %v: %v", seed, k, err)
				return false
			}
			if got := resultPairs(r); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d kernel %v: %d pairs, want %d", seed, k, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// oracleRun is referenceExpand extended to everything a kernel reports:
// the reach pairs, the minimal walk length (at least kmin) of each, and the
// Steps / IntermediateResults a kernel family must count. The matrix rungs
// step all rows together over true frontiers (walk frontiers for ANY,
// newly-reached ones for SHORTEST); the BFS kernel steps each row on its
// own and prunes visited vertices whenever that cannot change the answer
// (SHORTEST, or ANY with kmin ≤ 1).
type oracleRun struct {
	reach              map[[2]int]bool
	minLen             map[[2]int]int
	matrixSteps        int
	matrixIntermediate int64
	bfsSteps           int
	bfsIntermediate    int64
}

func oracle(g *graph.Graph, sources []graph.VertexID, d pattern.Determiner, maxSteps int) oracleRun {
	sets, err := g.EdgeSets(d.EdgeLabels)
	if err != nil {
		panic(err)
	}
	if d.KMax != pattern.Unbounded {
		maxSteps = d.KMax
	}
	expand := func(cur map[int]bool) map[int]bool {
		next := map[int]bool{}
		for v := range cur {
			for _, es := range sets {
				for _, j := range es.Neighbors(graph.VertexID(v), d.Dir) {
					next[int(j)] = true
				}
			}
		}
		return next
	}
	o := oracleRun{reach: map[[2]int]bool{}, minLen: map[[2]int]int{}}
	perStep := make([]int64, maxSteps+1) // matrix kernels: frontier bits per step over all rows
	for i, s := range sources {
		if d.KMin == 0 {
			o.reach[[2]int{i, int(s)}] = true
		}
		// True frontiers: reach, minimal lengths, the matrix kernels' counts.
		cur, visited := map[int]bool{int(s): true}, map[int]bool{int(s): true}
		for step := 1; step <= maxSteps; step++ {
			next := expand(cur)
			if d.Type == pattern.Shortest {
				for v := range visited {
					delete(next, v)
				}
				for v := range next {
					visited[v] = true
				}
			}
			perStep[step] += int64(len(next))
			for v := range next {
				if step < d.KMin {
					continue
				}
				o.reach[[2]int{i, v}] = true
				if _, ok := o.minLen[[2]int{i, v}]; !ok {
					o.minLen[[2]int{i, v}] = step
				}
			}
			if len(next) == 0 {
				break
			}
			cur = next
		}
		// The BFS kernel's own frontiers.
		prune := d.Type == pattern.Shortest || d.KMin <= 1
		cur, visited = map[int]bool{int(s): true}, map[int]bool{}
		if d.Type == pattern.Shortest {
			visited[int(s)] = true
		}
		for step := 1; step <= maxSteps; step++ {
			next := expand(cur)
			if prune {
				for v := range visited {
					delete(next, v)
				}
				for v := range next {
					visited[v] = true
				}
			}
			o.bfsSteps = max(o.bfsSteps, step)
			o.bfsIntermediate += int64(len(next))
			if len(next) == 0 {
				break
			}
			cur = next
		}
	}
	// The matrix kernels stop after the first step whose frontier is empty
	// in every row.
	for step := 1; step <= maxSteps; step++ {
		o.matrixSteps = step
		o.matrixIntermediate += perStep[step]
		if perStep[step] == 0 {
			break
		}
	}
	return o
}

// propertyGraph builds a random multigraph with everything the kernels must
// not trip over: two edge labels, self-loops, parallel edges, and a block of
// isolated vertices.
func propertyGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	live := n - n/5 // the last fifth has no edges at all
	labels := []string{"e1", "e2"}
	b.AddEdge("e1", 0, 1)
	b.AddEdge("e2", 1, 0)
	for i := 0; i < 2*n; i++ {
		src, dst := uint32(rng.Intn(live)), uint32(rng.Intn(live))
		l := labels[rng.Intn(2)]
		b.AddEdge(l, src, dst)
		switch rng.Intn(8) {
		case 0:
			b.AddEdge(l, src, dst) // parallel edge
		case 1:
			b.AddEdge(l, src, src) // self-loop
		}
	}
	return b.MustBuild()
}

// TestKernelEquivalenceProperty is the contract of §4 — every optimization
// rung preserves semantics — over the full option space: every kernel
// returns the same Reach and the same MinLength for every pair, and within
// a kernel family the same Stats.Steps and Stats.IntermediateResults (Table
// 2 must not depend on how step 1 is computed or on the worker count).
func TestKernelEquivalenceProperty(t *testing.T) {
	const maxSteps = 5 // caps the unbounded determiners
	rng := rand.New(rand.NewSource(20240427))
	matrixRungs := map[Kernel]bool{Strawman: true, ColumnMajor: true, SIMD: true, Hilbert: true}
	for _, rows := range []int{1, 511, 512, 513} {
		g := propertyGraph(rng, 24+rng.Intn(12))
		n := g.NumVertices()
		sources := make([]graph.VertexID, rows)
		for i := range sources {
			sources[i] = graph.VertexID(rng.Intn(n)) // duplicates and isolated sources included
		}
		// MinLength is probed on every pair of a sample of rows.
		var probeRows []int
		for r := 0; r < rows; r += 61 {
			probeRows = append(probeRows, r)
		}
		probeRows = append(probeRows, rows-1)
		for _, dir := range []graph.Direction{graph.Forward, graph.Reverse, graph.Both} {
			for _, kmin := range []int{0, 1, 2} {
				for _, kmax := range []int{1, 2, 4, pattern.Unbounded} {
					for _, typ := range []pattern.PathType{pattern.Any, pattern.Shortest} {
						d := pattern.Determiner{KMin: kmin, KMax: kmax, Dir: dir, Type: typ,
							EdgeLabels: [][]string{{"e1"}, {"e1", "e2"}}[rng.Intn(2)]}
						if d.Validate() != nil {
							continue // kmin > kmax
						}
						want := oracle(g, sources, d, maxSteps)
						for _, keep := range []bool{false, true} {
							for _, workers := range []int{1, 4} {
								for _, k := range allKernels {
									r, err := Expand(g, sources, d, Options{Kernel: k, Workers: workers, KeepPerStep: keep, MaxSteps: maxSteps})
									if err != nil {
										t.Fatalf("rows=%d %v keep=%v workers=%d %v: %v", rows, d, keep, workers, k, err)
									}
									fail := func(format string, args ...any) {
										t.Helper()
										t.Fatalf("rows=%d %v keep=%v workers=%d kernel %v: "+format,
											append([]any{rows, d, keep, workers, k}, args...)...)
									}
									if got := resultPairs(r); !reflect.DeepEqual(got, want.reach) {
										fail("%d reach pairs, want %d", len(got), len(want.reach))
									}
									wantSteps, wantInter := want.bfsSteps, want.bfsIntermediate
									if matrixRungs[k] {
										wantSteps, wantInter = want.matrixSteps, want.matrixIntermediate
									}
									if r.Stats.Steps != wantSteps || r.Stats.IntermediateResults != wantInter {
										fail("Steps/IntermediateResults = %d/%d, want %d/%d",
											r.Stats.Steps, r.Stats.IntermediateResults, wantSteps, wantInter)
									}
									if !keep {
										continue
									}
									for _, row := range probeRows {
										for v := 0; v < n; v++ {
											wl, wok := want.minLen[[2]int{row, v}]
											if l, ok := r.MinLength(row, graph.VertexID(v)); ok != wok || l != wl {
												fail("MinLength(%d,%d) = %d,%v want %d,%v", row, v, l, ok, wl, wok)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// ledgerShape builds a synthetic graph with the |V|, |E| and single edge
// label of one perf-ledger dataset; the chooser reads nothing else.
func ledgerShape(nV, nE int) *graph.Graph {
	b := graph.NewBuilder(nV)
	for i := 0; i < nE; i++ {
		b.AddEdge("e", uint32(i%nV), uint32((i*7+1+i/nV)%nV))
	}
	return b.MustBuild()
}

// TestChooseKernelLedgerShapes pins the online decision on the four
// VExpand-bound shapes of the perf ledger (benchmark/workloads.go), and its
// monotonicity: adding sources or raising kmax only ever makes frontiers
// denser, so it may flip BFS → matrix but never back.
func TestChooseKernelLedgerShapes(t *testing.T) {
	social05 := ledgerShape(24000, 1150000) // LDBC-SN-SF100 at scale 0.05
	social02 := ledgerShape(9600, 460000)   // ... at scale 0.02
	bank := ledgerShape(162000, 413000)     // Rabobank at scale 0.1
	det := func(kmax int, dir graph.Direction) pattern.Determiner {
		return pattern.Determiner{KMin: 1, KMax: kmax, Dir: dir, Type: pattern.Any, EdgeLabels: []string{"e"}}
	}
	choose := func(g *graph.Graph, nSources int, d pattern.Determiner) Kernel {
		sets, err := pattern.ResolveEdgeSets(g, d)
		if err != nil {
			t.Fatal(err)
		}
		return chooseKernel(g, make([]graph.VertexID, nSources), d, sets)
	}
	shapes := []struct {
		name    string
		g       *graph.Graph
		sources int
		d       pattern.Determiner
		want    Kernel
	}{
		{"expand_miss", social05, 1024, det(3, graph.Both), Hilbert},
		{"triangle_join", social02, 512, det(2, graph.Both), Hilbert},
		{"triangle_join/community side", social02, 826, det(2, graph.Both), Hilbert},
		{"stream_rows", bank, 1024, det(2, graph.Forward), BFS},
		{"point_lookup", bank, 1, det(3, graph.Forward), BFS},
	}
	for _, sh := range shapes {
		if got := choose(sh.g, sh.sources, sh.d); got != sh.want {
			t.Errorf("%s: |S|=%d %v resolved to %v, want %v", sh.name, sh.sources, sh.d, got, sh.want)
		}
	}
	sourceCounts := []int{1, 2, 7, 64, 300, 511, 512, 513, 1023, 1024, 1025, 2000, 4096, 20000}
	for _, sh := range shapes {
		for _, dir := range []graph.Direction{graph.Forward, graph.Reverse, graph.Both} {
			// Along |S| at every kmax, and along kmax at every |S|.
			for kmax := 1; kmax <= 8; kmax++ {
				matrix := false
				for _, n := range sourceCounts {
					k := choose(sh.g, n, det(kmax, dir))
					if matrix && k == BFS {
						t.Errorf("%s dir %v kmax %d: |S|=%d flipped matrix → BFS", sh.name, dir, kmax, n)
					}
					matrix = matrix || k != BFS
				}
			}
			for _, n := range sourceCounts {
				matrix := false
				for _, kmax := range []int{1, 2, 3, 4, 5, 6, 8, 16, 32, pattern.Unbounded} {
					k := choose(sh.g, n, det(kmax, dir))
					if matrix && k == BFS {
						t.Errorf("%s dir %v |S|=%d: kmax=%d flipped matrix → BFS", sh.name, dir, n, kmax)
					}
					matrix = matrix || k != BFS
				}
			}
		}
	}
}

// Property: PerStep matrices of SHORTEST expansion partition the reach set:
// each reached vertex appears in exactly one step matrix.
func TestQuickShortestPerStepPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		d := pattern.Determiner{KMin: 1, KMax: 4, Dir: graph.Both, Type: pattern.Shortest,
			EdgeLabels: []string{"e1", "e2"}}
		sources := []graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))}
		r, err := Expand(g, sources, d, Options{Kernel: Hilbert, KeepPerStep: true})
		if err != nil {
			return false
		}
		counts := map[[2]int]int{}
		for _, m := range r.PerStep {
			m.ForEachSet(func(row, col int) { counts[[2]int{row, col}]++ })
		}
		for rc, c := range counts {
			if c != 1 {
				t.Logf("seed %d: pair %v appears in %d steps", seed, rc, c)
				return false
			}
			if !r.Reach.Get(rc[0], rc[1]) {
				return false
			}
		}
		return len(counts) == r.PairCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: multi-worker expansion equals single-worker expansion.
func TestQuickParallelDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 600 + rng.Intn(200) // multiple stacks worth of sources
		g := randomGraph(rng, 80, 300)
		sources := make([]graph.VertexID, n)
		for i := range sources {
			sources[i] = graph.VertexID(rng.Intn(80))
		}
		d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any,
			EdgeLabels: []string{"e1", "e2"}}
		r1, err1 := Expand(g, sources, d, Options{Kernel: Hilbert, Workers: 1})
		r4, err4 := Expand(g, sources, d, Options{Kernel: Hilbert, Workers: 4})
		if err1 != nil || err4 != nil {
			return false
		}
		return r1.Reach.Equal(r4.Reach)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestKernelString(t *testing.T) {
	names := map[Kernel]string{Auto: "auto", Strawman: "strawman", ColumnMajor: "column-major",
		SIMD: "simd", Hilbert: "hilbert", BFS: "bfs", Kernel(99): "unknown"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kernel(%d).String = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestRowMatrixRoundTrip(t *testing.T) {
	rm := newRowMatrix(700, 90)
	coords := [][2]int{{0, 0}, {699, 89}, {511, 64}, {512, 63}, {100, 65}}
	for _, rc := range coords {
		rm.setBit(rc[0], rc[1])
		if !rm.get(rc[0], rc[1]) {
			t.Fatalf("setBit(%v) lost", rc)
		}
	}
	stacked := rm.toStacked()
	if stacked.PopCount() != len(coords) {
		t.Fatalf("toStacked PopCount = %d", stacked.PopCount())
	}
	rm2 := newRowMatrix(700, 90)
	rm2.fromStacked(stacked)
	for _, rc := range coords {
		if !rm2.get(rc[0], rc[1]) {
			t.Fatalf("fromStacked lost %v", rc)
		}
	}
}

// Property: DetectFixpoint never changes the reach result, only the step
// count (it can only trigger on ANY expansions whose frontier saturates).
func TestQuickFixpointEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(30)
		g := randomGraph(rng, n, 2*n+rng.Intn(3*n))
		sources := make([]graph.VertexID, 1+rng.Intn(6))
		for i := range sources {
			sources[i] = graph.VertexID(rng.Intn(n))
		}
		d := pattern.Determiner{
			KMin: rng.Intn(3), Dir: graph.Direction(rng.Intn(3)),
			Type: pattern.Any, EdgeLabels: []string{"e1", "e2"},
		}
		d.KMax = max(d.KMin, 1) + rng.Intn(8)
		plain, err1 := Expand(g, sources, d, Options{Kernel: Hilbert})
		fixed, err2 := Expand(g, sources, d, Options{Kernel: Hilbert, DetectFixpoint: true})
		if err1 != nil || err2 != nil {
			return false
		}
		if !plain.Reach.Equal(fixed.Reach) {
			t.Logf("seed %d: reach differs (fixpoint steps %d vs %d)",
				seed, fixed.Stats.Steps, plain.Stats.Steps)
			return false
		}
		return fixed.Stats.Steps <= plain.Stats.Steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFixpointCutsSteps pins that the option actually triggers on a graph
// whose frontier saturates (a clique's exact-c reach is everything from
// c=1 on... with self-returns from c=2; fixpoint by c=3).
func TestFixpointCutsSteps(t *testing.T) {
	const n = 8
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge("e", uint32(i), uint32(j))
			}
		}
	}
	g := b.MustBuild()
	d := pattern.Determiner{KMin: 1, KMax: 50, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"e"}}
	plain, err := Expand(g, []graph.VertexID{0}, d, Options{Kernel: Hilbert})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Expand(g, []graph.VertexID{0}, d, Options{Kernel: Hilbert, DetectFixpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Steps != 50 {
		t.Fatalf("plain Steps = %d, want 50", plain.Stats.Steps)
	}
	if fixed.Stats.Steps >= 10 {
		t.Fatalf("fixpoint Steps = %d, want early exit", fixed.Stats.Steps)
	}
	if !plain.Reach.Equal(fixed.Reach) {
		t.Fatal("reach differs")
	}
}

// TestBFSMultiStackWorkers exercises the stack-boundary partitioning of
// the BFS kernel with more sources than one 512-row stack: word-sharing
// rows must land in the same worker.
func TestBFSMultiStackWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 60, 200)
	sources := make([]graph.VertexID, 1200)
	for i := range sources {
		sources[i] = graph.VertexID(rng.Intn(60))
	}
	d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any,
		EdgeLabels: []string{"e1", "e2"}}
	r1, err := Expand(g, sources, d, Options{Kernel: BFS, Workers: 1, KeepPerStep: true})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Expand(g, sources, d, Options{Kernel: BFS, Workers: 4, KeepPerStep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Reach.Equal(r4.Reach) {
		t.Fatal("multi-worker BFS reach differs")
	}
	for row := 0; row < len(sources); row += 97 {
		for v := 0; v < 60; v++ {
			l1, ok1 := r1.MinLength(row, graph.VertexID(v))
			l2, ok2 := r4.MinLength(row, graph.VertexID(v))
			if l1 != l2 || ok1 != ok2 {
				t.Fatalf("MinLength(%d,%d) differs across workers", row, v)
			}
		}
	}
}

// peakBudget records the most it ever had reserved at once.
type peakBudget struct{ used, peak int64 }

func (b *peakBudget) Reserve(n int64) error {
	b.used += n
	b.peak = max(b.peak, b.used)
	return nil
}

func (b *peakBudget) Release(n int64) { b.used -= n }

// A matrix kernel under KeepPerStep retains and reserves only the steps
// MinLength can read, those from kmin on, and still reports them under
// their own step numbers; MinLength agrees with the BFS kernel's distances.
func TestKeepPerStepRetainsStepsFromKMin(t *testing.T) {
	g := raceGraph(t, 1400, 7000)
	sources := make([]graph.VertexID, 600)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	for _, tc := range []struct {
		kmin, kmax int
		steps      []int
	}{{3, 3, []int{3}}, {2, 4, []int{2, 3, 4}}} {
		d := pattern.Determiner{KMin: tc.kmin, KMax: tc.kmax, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
		b := &peakBudget{}
		r, err := Expand(g, sources, d, Options{Kernel: Hilbert, KeepPerStep: true, Budget: b, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.PerStep) != len(tc.steps) {
			t.Fatalf("*%d..%d: retained %d step matrices, want %d", tc.kmin, tc.kmax, len(r.PerStep), len(tc.steps))
		}
		// cur, next and Reach, then one clone per retained step.
		if want := int64(3+len(tc.steps)) * int64(r.Reach.SizeBytes()); b.peak != want || b.used != 0 {
			t.Fatalf("*%d..%d: peak reservation %d, want %d; %d left reserved", tc.kmin, tc.kmax, b.peak, want, b.used)
		}
		var steps []int
		if err := r.ForEachStep(func(step int, _ *bitmatrix.Matrix) error {
			steps = append(steps, step)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(steps, tc.steps) {
			t.Fatalf("*%d..%d: ForEachStep reported steps %v, want %v", tc.kmin, tc.kmax, steps, tc.steps)
		}
		bfs, err := Expand(g, sources, d, Options{Kernel: BFS, KeepPerStep: true})
		if err != nil {
			t.Fatal(err)
		}
		for row := range sources {
			for dst := 0; dst < g.NumVertices(); dst++ {
				l, ok := r.MinLength(row, graph.VertexID(dst))
				wl, wok := bfs.MinLength(row, graph.VertexID(dst))
				if l != wl || ok != wok {
					t.Fatalf("*%d..%d: MinLength(%d, %d) = %d,%v; BFS says %d,%v", tc.kmin, tc.kmax, row, dst, l, ok, wl, wok)
				}
			}
		}
	}
}
