package vertexsurge

// Benchmarks, one family per table/figure of the paper's evaluation (§6).
// The cmd/vsbench harness prints the full tables; these testing.B entries
// make each experiment's hot path measurable with `go test -bench`.
//
// Datasets are generated once per size and cached; generation and Hilbert
// edge ordering happen outside the timed region (the paper's warm-up).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bitmatrix"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/vexpand"
)

// benchScale keeps every benchmark laptop-sized; raise it (and the
// vsbench -scale flag) to approach the paper's dataset sizes.
const benchScale = 0.02

var (
	dsMu    sync.Mutex
	dsCache = map[string]*datagen.Dataset{}
)

func dataset(b *testing.B, name string) *datagen.Dataset {
	b.Helper()
	return datasetAt(b, name, benchScale)
}

func datasetAt(b *testing.B, name string, scale float64) *datagen.Dataset {
	b.Helper()
	dsMu.Lock()
	defer dsMu.Unlock()
	key := fmt.Sprintf("%s@%g", name, scale)
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	ds, err := datagen.Generate(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up the Hilbert-ordered COO for every edge label (§6.2's
	// warm-up query) so one-time sorting stays out of the timed region.
	for _, label := range ds.Graph.EdgeLabels() {
		ds.Graph.Edges(label).COO()
	}
	dsCache[key] = ds
	return ds
}

// scaledSources returns the Table-2 source set (20480 in the paper),
// scaled with the datasets.
func scaledSources(g *graph.Graph) []graph.VertexID {
	scale := benchScale // shed const-ness so the product may truncate
	n := min(int(20480*scale), g.NumVertices())
	sources := make([]graph.VertexID, n)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	return sources
}

func socialDet(kmin, kmax int) pattern.Determiner {
	return pattern.Determiner{KMin: kmin, KMax: kmax, Dir: graph.Both, Type: pattern.Any,
		EdgeLabels: []string{"knows"}}
}

func transferDet(kmax int) pattern.Determiner {
	return pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
}

// --- Figure 2b: community triangle vs k_max, three systems ---

func BenchmarkFig2bVertexSurge(b *testing.B) {
	ds := dataset(b, "LastFM")
	eng := engine.New(ds.Graph, engine.Options{})
	for _, kmax := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("kmax=%d", kmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Case4(kmax); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig2bJoin(b *testing.B) {
	ds := dataset(b, "LastFM")
	g := ds.Graph
	j := baseline.NewJoinEngine(g)
	aC, bC, cC := g.LabelVertices("SIGA"), g.LabelVertices("SIGB"), g.LabelVertices("SIGC")
	for _, kmax := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("kmax=%d", kmax), func(b *testing.B) {
			d := socialDet(1, kmax)
			for i := 0; i < b.N; i++ {
				if _, _, err := j.CountTriangle(aC, bC, cC, d, d, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig2bGPM(b *testing.B) {
	ds := dataset(b, "LastFM")
	g := ds.Graph
	p := baseline.NewGPMEngine(g)
	aC, bC, cC := g.LabelVertices("SIGA"), g.LabelVertices("SIGB"), g.LabelVertices("SIGC")
	for _, kmax := range []int{1, 2} {
		b.Run(fmt.Sprintf("kmax=%d", kmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.CountTriangle(aC, bC, cC, socialDet(1, kmax)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 1: dataset generation + columnar sizing ---

func BenchmarkTable1Generate(b *testing.B) {
	for _, name := range []string{"LastFM", "Rabobank", "LDBC-FinBench-SF10"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datagen.Generate(name, benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 6: the twelve cases on their paper datasets ---

func fig6Params(b *testing.B, ds *datagen.Dataset) (ids []int64, accountID, personID, loanID, pairA, pairB int64) {
	b.Helper()
	g := ds.Graph
	n := int64(g.NumVertices())
	for i := int64(0); i < 20 && i < n; i++ {
		ids = append(ids, 1000+i*7%n)
	}
	if ds.Layout == nil {
		return ids, 1000 + n/3, 0, 0, 1001, 1000 + n - 2
	}
	lay := ds.Layout
	col := g.Prop("id").(graph.Int64Column)
	accountID = col[lay.AccountLo+graph.VertexID(int(lay.AccountHi-lay.AccountLo)/3)]
	loanID = col[lay.LoanLo+graph.VertexID(int(lay.LoanHi-lay.LoanLo)/2)]
	pairA, pairB = col[lay.AccountLo+1], col[lay.AccountHi-2]
	own := g.Edges("own")
	for p := lay.PersonLo; p < lay.PersonHi; p++ {
		if len(own.Neighbors(p, graph.Forward)) > 0 {
			personID = col[p]
			break
		}
	}
	return ids, accountID, personID, loanID, pairA, pairB
}

func BenchmarkFig6Cases(b *testing.B) {
	social := dataset(b, "LDBC-SN-SF100")
	bank := dataset(b, "Rabobank")
	fin := dataset(b, "LDBC-FinBench-SF10")
	engSN := engine.New(social.Graph, engine.Options{})
	engRB := engine.New(bank.Graph, engine.Options{})
	engFB := engine.New(fin.Graph, engine.Options{})
	idsSN, _, _, _, _, _ := fig6Params(b, social)
	_, acctRB, _, _, _, _ := fig6Params(b, bank)
	_, acctFB, personFB, loanFB, pa, pb := fig6Params(b, fin)

	const kmax = 3
	cases := []struct {
		name string
		run  func() error
	}{
		{"C1", func() error { _, _, err := engSN.Case1(kmax); return err }},
		{"C2", func() error { _, _, err := engSN.Case2(kmax, 100); return err }},
		{"C3", func() error { _, _, err := engSN.Case3(kmax, 100); return err }},
		{"C4", func() error { _, _, err := engSN.Case4(2); return err }},
		{"C5", func() error { _, _, err := engSN.Case5(idsSN, kmax); return err }},
		{"C6", func() error { _, _, err := engRB.Case6(6); return err }},
		{"C7", func() error { _, _, err := engRB.Case7(acctRB, kmax); return err }},
		{"C8", func() error { _, _, err := engFB.Case8(acctFB, kmax); return err }},
		{"C9", func() error { _, _, err := engFB.Case9(personFB, kmax); return err }},
		{"C10", func() error { _, _, err := engFB.Case10(pa, pb); return err }},
		{"C11", func() error { _, _, err := engFB.Case11(acctFB); return err }},
		{"C12", func() error { _, _, err := engFB.Case12(loanFB, kmax); return err }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6CasesCypher runs the twelve cases of BenchmarkFig6Cases, on
// the same datasets and parameters, as the paper's Cypher text: parse, bind,
// plan and execute, the path DB.Query takes. BenchmarkFig6Cases times the
// canned engine.CaseN methods instead; EXPERIMENTS.md compares the two.
func BenchmarkFig6CasesCypher(b *testing.B) {
	social := dataset(b, "LDBC-SN-SF100")
	bank := dataset(b, "Rabobank")
	fin := dataset(b, "LDBC-FinBench-SF10")
	engSN := engine.New(social.Graph, engine.Options{})
	engRB := engine.New(bank.Graph, engine.Options{})
	engFB := engine.New(fin.Graph, engine.Options{})
	idsSN, _, _, _, _, _ := fig6Params(b, social)
	_, acctRB, _, _, _, _ := fig6Params(b, bank)
	_, acctFB, personFB, loanFB, pa, pb := fig6Params(b, fin)

	cases := []struct {
		name   string
		eng    *engine.Engine
		query  string
		params map[string]any
	}{
		{"C1", engSN, `MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q)`, nil},
		{"C2", engSN, `MATCH (p:SIGA)-[:knows*..3]-(q:Person) WHERE NOT q:SIGA RETURN COUNT(DISTINCT p) as c,q ORDER BY c DESC LIMIT 100`, nil},
		{"C3", engSN, `MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p) as c,q ORDER BY c ASC LIMIT 100`, nil},
		{"C4", engSN, `MATCH (a:Person:SIGA)-[:knows*1..2]-(b:Person:SIGB) MATCH (b)-[:knows*1..2]-(c:Person:SIGC) MATCH (a)-[:knows*1..2]-(c) RETURN COUNT(DISTINCT a,b,c)`, nil},
		// Case5 treats knows as undirected, so this is the undirected form
		// of the paper's query.
		{"C5", engSN, `UNWIND $person_ids AS pid MATCH (p:Person{id:pid})-[:knows*2..3]-(q:Person) RETURN pid,COUNT(DISTINCT q)`,
			map[string]any{"person_ids": idsSN}},
		{"C6", engRB, `MATCH (a:Account:RISKA)-[:transfer*1..6]->(b:Account:RISKA) WITH DISTINCT a,b RETURN COUNT(*)`, nil},
		{"C7", engRB, `MATCH (a:Account{id:$rid})-[:transfer*1..3]->(b:Account) RETURN DISTINCT b`,
			map[string]any{"rid": acctRB}},
		{"C8", engFB, `MATCH p=(start:Account{id:$id})-[:transfer*1..3]->(neighbor:Account), (neighbor)<-[:signIn]-(medium:Medium) WHERE medium.isBlocked = true RETURN neighbor, length(p)`,
			map[string]any{"id": acctFB}},
		{"C9", engFB, `MATCH (person:Person{id:$id})-[:own]->(account:Account)<-[:transfer*1..3]-(other:Account)<-[:deposit]-(loan:Loan) RETURN other.id, SUM(DISTINCT loan.balance), COUNT(DISTINCT loan)`,
			map[string]any{"id": personFB}},
		{"C10", engFB, `MATCH (a:Account{id:$id1}), (b:Account{id:$id2}), p=shortestPath((a)-[:transfer*1..]->(b)) RETURN length(p)`,
			map[string]any{"id1": pa, "id2": pb}},
		{"C11", engFB, `MATCH (a:Account{id:$id})<-[:withdraw]-(mid:Account)<-[:transfer]-(other:Account) RETURN mid.id, other.id`,
			map[string]any{"id": acctFB}},
		{"C12", engFB, `MATCH (loan:Loan{id:$id})-[:deposit]->(src:Account)-[p:transfer|withdraw*1..3]->(other:Account) RETURN DISTINCT other.id, length(p)`,
			map[string]any{"id": loanFB}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := cypher.Parse(c.query)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cypher.Run(c.eng, q, c.params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: execution time vs k_max (linearity) ---

func BenchmarkFig7Case1Sweep(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF1000")
	eng := engine.New(ds.Graph, engine.Options{})
	for kmax := 1; kmax <= 6; kmax++ {
		b.Run(fmt.Sprintf("kmax=%d", kmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Case1(kmax); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8: the stage whose share the figure breaks down ---

func BenchmarkFig8ExpandStage(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF100")
	g := ds.Graph
	sources := g.LabelVertices("SIGA")
	for i := 0; i < b.N; i++ {
		if _, err := vexpand.Expand(g, sources, socialDet(1, 3), vexpand.Options{Kernel: vexpand.Hilbert}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: intermediate results of expand vs join walk counting ---

func BenchmarkTable2Expand(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF1000")
	g := ds.Graph
	sources := scaledSources(g)
	for _, kmax := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("kmax=%d", kmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vexpand.Expand(g, sources, socialDet(1, kmax), vexpand.Options{Kernel: vexpand.Hilbert}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2JoinWalkCount(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF1000")
	g := ds.Graph
	j := baseline.NewJoinEngine(g)
	sources := scaledSources(g)
	for _, kmax := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("kmax=%d", kmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := j.WalkCountDP(sources, socialDet(1, kmax)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: the VExpand kernel ladder ---

func BenchmarkFig9Kernels(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF1000")
	g := ds.Graph
	sources := scaledSources(g)
	// k_max = 3 reaches the dense-frontier regime the ladder targets
	// (§4.2's "high occupancy" observation).
	det := socialDet(1, 3)
	for _, k := range []vexpand.Kernel{
		vexpand.Strawman, vexpand.ColumnMajor, vexpand.SIMD, vexpand.Hilbert,
	} {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vexpand.Expand(g, sources, det, vexpand.Options{Kernel: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- MIntersect and bitmatrix micro-benchmarks (the §5.1 fast paths) ---

func BenchmarkMIntersectCountVsMaterialize(b *testing.B) {
	ds := dataset(b, "LastFM")
	eng := engine.New(ds.Graph, engine.Options{})
	d := socialDet(1, 2)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	b.Run("count-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Match(pat, engine.MatchOptions{CountOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Match(pat, engine.MatchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations of DESIGN.md's called-out decisions ---

// BenchmarkPlannerOrderAblation isolates the §5.2 planner: the same
// selective-seed query (one vertex pinned by id, the other unconstrained)
// executed with the planner's order versus the pessimal forced order that
// enumerates from the unselective side.
func BenchmarkPlannerOrderAblation(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF100")
	g := ds.Graph
	eng := engine.New(g, engine.Options{})
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", PropEq: map[string]any{"id": int64(1000)}},
			{Name: "q", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: socialDet(1, 2)}},
	}
	b.Run("planner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Match(pat, engine.MatchOptions{CountOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Worst order: the selective vertex first, so expansion starts from
	// every Person instead of the single pinned vertex.
	b.Run("forced-worst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Match(pat, engine.MatchOptions{CountOnly: true, Order: []int{0, 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelCrossover maps the BFS-vs-matrix crossover that Auto's
// source-count threshold encodes: the same expansion at growing |S|.
func BenchmarkKernelCrossover(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF100")
	g := ds.Graph
	det := socialDet(1, 3)
	for _, nSources := range []int{8, 64, 512, 4096} {
		sources := make([]graph.VertexID, nSources)
		for i := range sources {
			sources[i] = graph.VertexID(i % g.NumVertices())
		}
		for _, k := range []vexpand.Kernel{vexpand.BFS, vexpand.Hilbert} {
			b.Run(fmt.Sprintf("S=%d/%s", nSources, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := vexpand.Expand(g, sources, det, vexpand.Options{Kernel: k}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExpandLedgerShapes runs the expansions behind the perf ledger's
// four VExpand-bound workloads (benchmark/workloads.go) at the ledger's own
// dataset scales, source counts, k and direction, per kernel and at
// Workers 1 and 0 (GOMAXPROCS) — the seconds-long loop for kernel work that
// the 25 s harness run is too slow for. It is not a gate. The BFS kernel
// on the two social shapes takes seconds per op; filter with -bench.
func BenchmarkExpandLedgerShapes(b *testing.B) {
	shapes := []struct {
		name, dataset string
		scale         float64
		sources       int
		det           pattern.Determiner
	}{
		{"expand_miss", "LDBC-SN-SF100", 0.05, 1024, socialDet(1, 3)},
		{"triangle_join", "LDBC-SN-SF100", 0.02, 512, socialDet(1, 2)},
		{"stream_rows", "Rabobank", 0.1, 1024, transferDet(2)},
		{"point_lookup", "Rabobank", 0.1, 1, transferDet(3)},
	}
	for _, sh := range shapes {
		g := datasetAt(b, sh.dataset, sh.scale).Graph
		// A mid-graph id range, as the ledger's uniform draws average out to.
		sources := make([]graph.VertexID, sh.sources)
		for i := range sources {
			sources[i] = graph.VertexID(g.NumVertices()/2 + i)
		}
		for _, k := range []vexpand.Kernel{vexpand.Auto, vexpand.BFS, vexpand.Hilbert} {
			for _, workers := range []int{1, 0} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", sh.name, k, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := vexpand.Expand(g, sources, sh.det, vexpand.Options{Kernel: k, Workers: workers}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkPlanLedgerShapes runs planner.Build on the perf ledger's five
// query patterns (benchmark/workloads.go) at the ledger's dataset scales and
// id spans, with allocations reported — the seconds-long loop for planner
// work, since the per-query candidate scan is what a cached or selective
// query is left paying. It is not a gate.
func BenchmarkPlanLedgerShapes(b *testing.B) {
	idRange := func(name string, lo int64, span int64, labels ...string) pattern.Vertex {
		return pattern.Vertex{Name: name, Labels: labels, PropCmp: []pattern.PropFilter{
			{Prop: "id", Op: pattern.CmpGe, Value: lo},
			{Prop: "id", Op: pattern.CmpLt, Value: lo + span},
		}}
	}
	labeled := func(name string, labels ...string) pattern.Vertex {
		return pattern.Vertex{Name: name, Labels: labels}
	}
	expand := func(lo int64) *pattern.Pattern {
		return &pattern.Pattern{
			Vertices: []pattern.Vertex{idRange("p", lo, 1024, "Person"), labeled("q", "SIGB")},
			Edges:    []pattern.Edge{{Src: "p", Dst: "q", D: socialDet(1, 3)}},
		}
	}
	shapes := []struct {
		name, dataset string
		scale         float64
		pat           func(lo int64) *pattern.Pattern
	}{
		{"expand_miss", "LDBC-SN-SF100", 0.05, expand},
		{"expand_hit", "LDBC-SN-SF100", 0.05, expand},
		{"triangle_join", "LDBC-SN-SF100", 0.02, func(lo int64) *pattern.Pattern {
			return &pattern.Pattern{
				Vertices: []pattern.Vertex{idRange("a", lo, 512, "Person"), labeled("b", "Person", "SIGB"), labeled("c", "Person", "SIGC")},
				Edges: []pattern.Edge{
					{Src: "a", Dst: "b", D: socialDet(1, 2)},
					{Src: "b", Dst: "c", D: socialDet(1, 2)},
					{Src: "a", Dst: "c", D: socialDet(1, 2)},
				},
			}
		}},
		{"point_lookup", "Rabobank", 0.1, func(lo int64) *pattern.Pattern {
			a := labeled("a", "Account")
			a.PropEq = map[string]any{"id": lo}
			return &pattern.Pattern{
				Vertices: []pattern.Vertex{a, labeled("b", "Account")},
				Edges:    []pattern.Edge{{Src: "a", Dst: "b", D: transferDet(3)}},
			}
		}},
		{"stream_rows", "Rabobank", 0.1, func(lo int64) *pattern.Pattern {
			return &pattern.Pattern{
				Vertices: []pattern.Vertex{idRange("a", lo, 1024, "Account"), labeled("b", "Account")},
				Edges:    []pattern.Edge{{Src: "a", Dst: "b", D: transferDet(2)}},
			}
		}},
	}
	for _, sh := range shapes {
		g := datasetAt(b, sh.dataset, sh.scale).Graph
		// Datagen ids are vertex index + 1000; a mid-graph range, as the
		// ledger's uniform draws average out to.
		pat := sh.pat(1000 + int64(g.NumVertices()/2))
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := planner.Build(g, pat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBitmatrixPrimitives measures the §4.2 primitives directly.
func BenchmarkBitmatrixPrimitives(b *testing.B) {
	const rows, cols = 2048, 8192
	m1 := newRandomMatrix(rows, cols)
	m2 := newRandomMatrix(rows, cols)
	b.Run("OrColumnFrom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m1.OrColumnFrom(m2, i%4, i%cols, (i*7)%cols)
		}
	})
	b.Run("ElementwiseOr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m1.Or(m2)
		}
	})
	b.Run("PopCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m1.PopCount()
		}
	})
	b.Run("ColumnPopCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m1.ColumnPopCount(i % cols)
		}
	})
}

func newRandomMatrix(rows, cols int) *bitmatrix.Matrix {
	m := bitmatrix.New(rows, cols)
	w := m.Words()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w[i] = x
	}
	return m
}

// BenchmarkFixpointDetection ablates the opt-in frontier-fixpoint early
// exit: on a dense graph with large k_max, the default engine multiplies
// through every step (the paper's Figure 7 behaviour) while the fixpoint
// variant stops as soon as the frontier saturates.
func BenchmarkFixpointDetection(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF100")
	g := ds.Graph
	sources := scaledSources(g)
	det := socialDet(1, 12)
	b.Run("paper-faithful", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vexpand.Expand(g, sources, det, vexpand.Options{Kernel: vexpand.Hilbert}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vexpand.Expand(g, sources, det, vexpand.Options{Kernel: vexpand.Hilbert, DetectFixpoint: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
