package vertexsurge

// The paper's evaluation (§6), one benchmark family per table or figure;
// EXPERIMENTS.md's measured tables are medians of
//
//	go test -run '^$' -bench <family> -cpu 1 -count 10 .
//
// Samples come from -count and engine workers from -cpu (Workers 0 means
// GOMAXPROCS). What a figure reports beyond time is a b.ReportMetric on the
// family: Table 1's sizes, Figure 2b's triangle count, Figure 8's stage
// shares, Table 2's counts and bytes, the matrix cache's hits per op.
//
// Datasets are generated once per size and cached; generation and Hilbert
// edge ordering happen outside the timed region (the paper's warm-up).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bitmatrix"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mintersect"
	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// benchScale is the dataset size relative to the paper's Table 1 (1.0 is
// the paper's size). At 0.02 every family runs on a laptop; raise it here
// to approach the paper's sizes.
const benchScale = 0.02

// baselineBudget caps the join and GPM baselines' intermediate tuples, the
// stand-in for the paper's 10-minute timeout.
const baselineBudget = 20_000_000

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

// run calls fn b.N times. A baseline over baselineBudget skips with
// "timeout", which is Figure 2b's and Figure 6's timeout cell.
func run(b *testing.B, fn func() error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(); errors.Is(err, baseline.ErrBudgetExceeded) {
			b.Skipf("timeout: over %d intermediate tuples", baselineBudget)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// stages, err2 and err3 keep what a benchmark needs of a call's results.
func stages[T any](_ T, tm engine.Timings, err error) (engine.Timings, error) { return tm, err }
func err2[T any](_ T, err error) error                                        { return err }
func err3[T, S any](_ T, _ S, err error) error                                { return err }

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

// --- Table 1: the eight datasets ---

// BenchmarkTable1 times generating each dataset and reports its |V|, |E|,
// |E|/|V| and in-memory bytes beside the paper's |V| and |E|.
func BenchmarkTable1(b *testing.B) {
	for _, name := range datagen.Table1Names() {
		b.Run(name, func(b *testing.B) {
			var g *graph.Graph
			run(b, func() error {
				ds, err := datagen.Generate(name, benchScale)
				if err == nil {
					g = ds.Graph
				}
				return err
			})
			pv, pe, _ := datagen.Table1Size(name) // name is from Table1Names
			b.ReportMetric(float64(pv), "paper-vertices")
			b.ReportMetric(float64(pe), "paper-edges")
			v, e := float64(g.NumVertices()), float64(g.NumEdges())
			b.ReportMetric(v, "vertices")
			b.ReportMetric(e, "edges")
			b.ReportMetric(e/v, "edges/vertex")
			b.ReportMetric(float64(g.SizeBytes()), "bytes")
		})
	}
}

// --- Figure 2b: community triangle vs k_max, three systems ---

func BenchmarkFig2b(b *testing.B) {
	g := dataset(b, "LastFM").Graph
	eng := engine.New(g, engine.Options{})
	j, p := baseline.NewJoinEngine(g), baseline.NewGPMEngine(g)
	j.Budget, p.Budget = baselineBudget, baselineBudget
	aC, bC, cC := g.LabelVertices("SIGA"), g.LabelVertices("SIGB"), g.LabelVertices("SIGC")
	for kmax := 1; kmax <= 4; kmax++ {
		d := socialDet(1, kmax)
		b.Run(fmt.Sprintf("VertexSurge/kmax=%d", kmax), func(b *testing.B) {
			var n int64
			run(b, func() (err error) { n, _, err = eng.Case4(kmax); return err })
			b.ReportMetric(float64(n), "triangles")
		})
		b.Run(fmt.Sprintf("Join/kmax=%d", kmax), func(b *testing.B) {
			run(b, func() error { return err3(j.CountTriangle(aC, bC, cC, d, d, d)) })
		})
		b.Run(fmt.Sprintf("GPM/kmax=%d", kmax), func(b *testing.B) {
			run(b, func() error { return err3(p.CountTriangle(aC, bC, cC, d)) })
		})
	}
}

// --- Figures 6 and 8: the twelve cases across datasets and systems ---

// fig6Case is one Figure 6 cell: a paper case on one dataset as the canned
// engine method, as the paper's Cypher text, and as the join and GPM
// baselines. gpm is nil where the paper does not run Peregrine.
type fig6Case struct {
	name      string
	canned    func() (engine.Timings, error)
	eng       *engine.Engine
	query     string
	params    map[string]any
	join, gpm func() error
}

// fig6Cases lists Cases 1-5 on three social graphs, 6-7 on Rabobank and
// 8-12 on LDBC-FinBench-SF10, all with baseline.ParamsFor's parameters.
func fig6Cases(b *testing.B) []fig6Case {
	type on struct {
		g   *graph.Graph
		eng *engine.Engine
		p   baseline.CaseParams
		j   *baseline.JoinCases
		gpm *baseline.GPMEngine
	}
	setup := func(name string) on {
		ds := dataset(b, name)
		gpm := baseline.NewGPMEngine(ds.Graph)
		gpm.Budget = baselineBudget
		return on{ds.Graph, engine.New(ds.Graph, engine.Options{}), baseline.ParamsFor(ds),
			baseline.NewJoinCases(ds.Graph, baselineBudget), gpm}
	}
	const kmax = 3
	var cases []fig6Case
	for _, name := range []string{"LastFM", "Epinions", "LDBC-SN-SF100"} {
		s := setup(name)
		siga := s.g.LabelVertices("SIGA")
		cases = append(cases, []fig6Case{
			{"C1/" + name, func() (engine.Timings, error) { return stages(s.eng.Case1(kmax)) }, s.eng,
				`MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q)`, nil,
				func() error { return err2(s.j.Case1(kmax)) },
				func() error { return err3(s.gpm.CountPairs(siga, siga, socialDet(1, kmax))) }},
			{"C2/" + name, func() (engine.Timings, error) { return stages(s.eng.Case2(kmax, 100)) }, s.eng,
				`MATCH (p:SIGA)-[:knows*..3]-(q:Person) WHERE NOT q:SIGA RETURN COUNT(DISTINCT p) as c,q ORDER BY c DESC LIMIT 100`, nil,
				func() error { return err2(s.j.Case2(kmax, 100)) }, nil},
			{"C3/" + name, func() (engine.Timings, error) { return stages(s.eng.Case3(kmax, 100)) }, s.eng,
				`MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p) as c,q ORDER BY c ASC LIMIT 100`, nil,
				func() error { return err2(s.j.Case3(kmax, 100)) }, nil},
			{"C4/" + name, func() (engine.Timings, error) { return stages(s.eng.Case4(2)) }, s.eng,
				`MATCH (a:Person:SIGA)-[:knows*1..2]-(b:Person:SIGB) MATCH (b)-[:knows*1..2]-(c:Person:SIGC) MATCH (a)-[:knows*1..2]-(c) RETURN COUNT(DISTINCT a,b,c)`, nil,
				func() error { return err2(s.j.Case4(2)) },
				func() error {
					return err3(s.gpm.CountTriangle(siga, s.g.LabelVertices("SIGB"), s.g.LabelVertices("SIGC"), socialDet(1, 2)))
				}},
			// Case5 treats knows as undirected, so this is the undirected
			// form of the paper's query.
			{"C5/" + name, func() (engine.Timings, error) { return stages(s.eng.Case5(s.p.PersonIDs, kmax)) }, s.eng,
				`UNWIND $person_ids AS pid MATCH (p:Person{id:pid})-[:knows*2..3]-(q:Person) RETURN pid,COUNT(DISTINCT q)`,
				map[string]any{"person_ids": s.p.PersonIDs},
				func() error { return err2(s.j.Case5(s.p.PersonIDs, kmax)) }, nil},
		}...)
	}
	rb, fb := setup("Rabobank"), setup("LDBC-FinBench-SF10")
	risk := rb.g.LabelVertices("RISKA")
	// The paper skips Peregrine on FinBench (no directed edges or multiple
	// edge labels in its implementation).
	return append(cases, []fig6Case{
		{"C6/Rabobank", func() (engine.Timings, error) { return stages(rb.eng.Case6(6)) }, rb.eng,
			`MATCH (a:Account:RISKA)-[:transfer*1..6]->(b:Account:RISKA) WITH DISTINCT a,b RETURN COUNT(*)`, nil,
			func() error { return err2(rb.j.Case6(6)) },
			func() error { return err3(rb.gpm.CountPairs(risk, risk, transferDet(6))) }},
		{"C7/Rabobank", func() (engine.Timings, error) { return stages(rb.eng.Case7(rb.p.AccountID, kmax)) }, rb.eng,
			`MATCH (a:Account{id:$rid})-[:transfer*1..3]->(b:Account) RETURN DISTINCT b`,
			map[string]any{"rid": rb.p.AccountID},
			func() error { return err2(rb.j.Case7(rb.p.AccountID, kmax)) },
			func() error {
				src, _ := rb.g.FindByInt64("id", rb.p.AccountID)
				return err3(rb.gpm.CountReachFrom(src, rb.g.LabelVertices("Account"), transferDet(kmax)))
			}},
		{"C8/LDBC-FinBench-SF10", func() (engine.Timings, error) { return stages(fb.eng.Case8(fb.p.AccountID, kmax)) }, fb.eng,
			`MATCH p=(start:Account{id:$id})-[:transfer*1..3]->(neighbor:Account), (neighbor)<-[:signIn]-(medium:Medium) WHERE medium.isBlocked = true RETURN neighbor, length(p)`,
			map[string]any{"id": fb.p.AccountID},
			func() error { return err2(fb.j.Case8(fb.p.AccountID, kmax)) }, nil},
		{"C9/LDBC-FinBench-SF10", func() (engine.Timings, error) { return stages(fb.eng.Case9(fb.p.PersonID, kmax)) }, fb.eng,
			`MATCH (person:Person{id:$id})-[:own]->(account:Account)<-[:transfer*1..3]-(other:Account)<-[:deposit]-(loan:Loan) RETURN other.id, SUM(DISTINCT loan.balance), COUNT(DISTINCT loan)`,
			map[string]any{"id": fb.p.PersonID},
			func() error { return err2(fb.j.Case9(fb.p.PersonID, kmax)) }, nil},
		{"C10/LDBC-FinBench-SF10", func() (engine.Timings, error) { return stages(fb.eng.Case10(fb.p.PairA, fb.p.PairB)) }, fb.eng,
			`MATCH (a:Account{id:$id1}), (b:Account{id:$id2}), p=shortestPath((a)-[:transfer*1..]->(b)) RETURN length(p)`,
			map[string]any{"id1": fb.p.PairA, "id2": fb.p.PairB},
			func() error { return err2(fb.j.Case10(fb.p.PairA, fb.p.PairB)) }, nil},
		{"C11/LDBC-FinBench-SF10", func() (engine.Timings, error) { return stages(fb.eng.Case11(fb.p.AccountID)) }, fb.eng,
			`MATCH (a:Account{id:$id})<-[:withdraw]-(mid:Account)<-[:transfer]-(other:Account) RETURN mid.id, other.id`,
			map[string]any{"id": fb.p.AccountID},
			func() error { return err2(fb.j.Case11(fb.p.AccountID)) }, nil},
		{"C12/LDBC-FinBench-SF10", func() (engine.Timings, error) { return stages(fb.eng.Case12(fb.p.LoanID, kmax)) }, fb.eng,
			`MATCH (loan:Loan{id:$id})-[:deposit]->(src:Account)-[p:transfer|withdraw*1..3]->(other:Account) RETURN DISTINCT other.id, length(p)`,
			map[string]any{"id": fb.p.LoanID},
			func() error { return err2(fb.j.Case12(fb.p.LoanID, kmax)) }, nil},
	}...)
}

// BenchmarkFig6Cases times the canned engine.CaseN methods and reports
// Figure 8's per-stage shares of their Timings.Total.
func BenchmarkFig6Cases(b *testing.B) {
	for _, c := range fig6Cases(b) {
		b.Run(c.name, func(b *testing.B) {
			var tm engine.Timings
			run(b, func() error {
				t, err := c.canned()
				tm.Add(t)
				return err
			})
			if tm.Total <= 0 {
				return
			}
			for _, s := range []struct {
				unit string
				d    time.Duration
			}{
				{"%scan", tm.Scan}, {"%expand", tm.Expand}, {"%updatevisit", tm.UpdateVisit},
				{"%intersect", tm.Intersect}, {"%aggregate", tm.Aggregate}, {"%other", tm.Other()},
			} {
				b.ReportMetric(100*float64(s.d)/float64(tm.Total), s.unit)
			}
		})
	}
}

// BenchmarkFig6CasesCypher runs the same cells as the paper's Cypher text:
// parse, bind, plan and execute, the path DB.Query takes. EXPERIMENTS.md
// compares it with BenchmarkFig6Cases.
func BenchmarkFig6CasesCypher(b *testing.B) {
	for _, c := range fig6Cases(b) {
		b.Run(c.name, func(b *testing.B) {
			run(b, func() error {
				q, err := cypher.Parse(c.query)
				if err != nil {
					return err
				}
				return err2(cypher.Run(c.eng, q, c.params))
			})
		})
	}
}

// BenchmarkFig6Join runs the cells on the join baseline (Kuzu/TigerGraph).
func BenchmarkFig6Join(b *testing.B) {
	for _, c := range fig6Cases(b) {
		b.Run(c.name, func(b *testing.B) { run(b, c.join) })
	}
}

// BenchmarkFig6GPM runs the cells the paper runs on Peregrine on the GPM
// baseline.
func BenchmarkFig6GPM(b *testing.B) {
	for _, c := range fig6Cases(b) {
		if c.gpm != nil {
			b.Run(c.name, func(b *testing.B) { run(b, c.gpm) })
		}
	}
}

// --- Figure 7: execution time vs k_max (linearity) ---

// BenchmarkFig7 sweeps k_max over Cases 1-7 with the Hilbert kernel
// pinned. The figure's claim is about the bit-matrix VExpand; Auto picks
// BFS for some cells and hides the trend (EXPERIMENTS.md, Figure 7).
func BenchmarkFig7(b *testing.B) {
	sn, rb := dataset(b, "LDBC-SN-SF1000"), dataset(b, "Rabobank")
	opts := engine.Options{Kernel: vexpand.Hilbert}
	esn, erb := engine.New(sn.Graph, opts), engine.New(rb.Graph, opts)
	psn, prb := baseline.ParamsFor(sn), baseline.ParamsFor(rb)
	cases := []struct {
		name string
		run  func(kmax int) error
	}{
		{"C1/" + sn.Name, func(k int) error { return err3(esn.Case1(k)) }},
		{"C2/" + sn.Name, func(k int) error { return err3(esn.Case2(k, 100)) }},
		{"C3/" + sn.Name, func(k int) error { return err3(esn.Case3(k, 100)) }},
		{"C4/" + sn.Name, func(k int) error { return err3(esn.Case4(k)) }},
		// Case 5's paths start at two hops, so k_max=1 runs as 2.
		{"C5/" + sn.Name, func(k int) error { return err3(esn.Case5(psn.PersonIDs, max(k, 2))) }},
		{"C6/" + rb.Name, func(k int) error { return err3(erb.Case6(k)) }},
		{"C7/" + rb.Name, func(k int) error { return err3(erb.Case7(prb.AccountID, k)) }},
	}
	for _, c := range cases {
		for kmax := 1; kmax <= 6; kmax++ {
			b.Run(fmt.Sprintf("%s/kmax=%d", c.name, kmax), func(b *testing.B) {
				run(b, func() error { return c.run(kmax) })
			})
		}
	}
}

// --- Table 2: intermediate results of expand vs join walk counting ---

// BenchmarkTable2 times one VExpand and the join method's walk count from
// the Table 2 source set. The expand run reports its distinct pairs and
// matrix bytes; the join run after it reports the walks, their flat-tuple
// bytes, and both ratios against that expand run.
func BenchmarkTable2(b *testing.B) {
	g := dataset(b, "LDBC-SN-SF1000").Graph
	j := baseline.NewJoinEngine(g)
	sources := scaledSources(g)
	for kmax := 1; kmax <= 3; kmax++ {
		d := socialDet(1, kmax)
		var st vexpand.Stats
		b.Run(fmt.Sprintf("kmax=%d/expand", kmax), func(b *testing.B) {
			run(b, func() error {
				r, err := vexpand.Expand(g, sources, d, vexpand.Options{Kernel: vexpand.Hilbert})
				if err == nil {
					st = r.Stats
				}
				return err
			})
			b.ReportMetric(float64(st.IntermediateResults), "pairs")
			b.ReportMetric(float64(st.MatrixBytes), "matrix-bytes")
		})
		b.Run(fmt.Sprintf("kmax=%d/join", kmax), func(b *testing.B) {
			var walks float64
			run(b, func() (err error) { walks, err = j.WalkCountDP(sources, d); return err })
			flat := 16 * walks // two uncompressed 64-bit ids per tuple (§4.1)
			b.ReportMetric(walks, "walks")
			b.ReportMetric(flat, "flat-bytes")
			if st.IntermediateResults > 0 {
				b.ReportMetric(walks/float64(st.IntermediateResults), "walks/pair")
				b.ReportMetric(flat/float64(st.MatrixBytes), "flat/matrix")
			}
		})
	}
}

// --- Figure 9: the VExpand kernel ladder ---

func BenchmarkFig9Kernels(b *testing.B) {
	g := dataset(b, "LDBC-SN-SF1000").Graph
	sources := scaledSources(g)
	// k_max = 3 reaches the dense-frontier regime the ladder targets
	// (§4.2's "high occupancy" observation).
	det := socialDet(1, 3)
	for _, k := range []vexpand.Kernel{
		vexpand.Strawman, vexpand.ColumnMajor, vexpand.SIMD, vexpand.Hilbert,
	} {
		b.Run(k.String(), func(b *testing.B) {
			run(b, func() error { return err2(vexpand.Expand(g, sources, det, vexpand.Options{Kernel: k})) })
		})
	}
}

// --- The engine-level matrix cache: a repeated query, cold vs warm ---

// BenchmarkCache runs a query shape on a fresh cache every op (cold) and
// on a primed one (warm), reporting the matches and matrix-cache hits per
// op.
func BenchmarkCache(b *testing.B) {
	g := dataset(b, "LastFM").Graph
	cached := func() *engine.Engine {
		return engine.New(g, engine.Options{CacheBytes: engine.DefaultCacheBytes})
	}
	shapes := []struct {
		name  string
		query func(*engine.Engine) (int64, engine.Timings, error)
	}{
		{"triangle_k2", func(e *engine.Engine) (int64, engine.Timings, error) { return e.Case4(2) }},
		{"pair_k3", func(e *engine.Engine) (int64, engine.Timings, error) { return e.Case1(3) }},
	}
	for _, s := range shapes {
		warm := cached()
		if _, _, err := s.query(warm); err != nil {
			b.Fatal(err)
		}
		for _, state := range []string{"cold", "warm"} {
			b.Run(s.name+"/"+state, func(b *testing.B) {
				var n int64
				hits := telemetry.MatrixCacheHits.Value()
				run(b, func() (err error) {
					e := warm
					if state == "cold" {
						e = cached()
					}
					n, _, err = s.query(e)
					return err
				})
				b.ReportMetric(float64(n), "matches")
				b.ReportMetric(float64(telemetry.MatrixCacheHits.Value()-hits)/float64(b.N), "hits/op")
			})
		}
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
		run(b, func() error { return err2(eng.Match(pat, engine.MatchOptions{CountOnly: true})) })
	})
	b.Run("materialize", func(b *testing.B) {
		run(b, func() error { return err2(eng.Match(pat, engine.MatchOptions{})) })
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
		run(b, func() error { return err2(eng.Match(pat, engine.MatchOptions{CountOnly: true})) })
	})
	// Worst order: the selective vertex first, so expansion starts from
	// every Person instead of the single pinned vertex.
	b.Run("forced-worst", func(b *testing.B) {
		run(b, func() error { return err2(eng.Match(pat, engine.MatchOptions{CountOnly: true, Order: []int{0, 1}})) })
	})
}

// BenchmarkKernelCrossoverAblation maps the BFS-vs-matrix crossover that
// Auto's source-count threshold encodes: the same expansion at growing |S|.
func BenchmarkKernelCrossoverAblation(b *testing.B) {
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
				run(b, func() error { return err2(vexpand.Expand(g, sources, det, vexpand.Options{Kernel: k})) })
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
					run(b, func() error {
						return err2(vexpand.Expand(g, sources, sh.det, vexpand.Options{Kernel: k, Workers: workers}))
					})
				})
			}
		}
	}
}

// BenchmarkJoinLedgerShapes runs the Generic Join behind the perf ledger's
// triangle_join workload (benchmark/workloads.go) at the ledger's dataset
// scale and 512-id span, warm: the plan, the three expansions and the join
// input are built once outside the timed loop, so each op is the counting
// join a cached ledger query runs. It reports the column ANDs per op and the
// count — the seconds-long loop for join work. It is not a gate.
func BenchmarkJoinLedgerShapes(b *testing.B) {
	g := datasetAt(b, "LDBC-SN-SF100", 0.02).Graph
	// Datagen ids are vertex index + 1000; a mid-graph range, as the
	// ledger's uniform draws average out to.
	lo := int64(1000 + g.NumVertices()/2)
	a := pattern.Vertex{Name: "a", Labels: []string{"Person"}, PropCmp: []pattern.PropFilter{
		{Prop: "id", Op: pattern.CmpGe, Value: lo},
		{Prop: "id", Op: pattern.CmpLt, Value: lo + 512},
	}}
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{a,
			{Name: "b", Labels: []string{"Person", "SIGB"}},
			{Name: "c", Labels: []string{"Person", "SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: socialDet(1, 2)},
			{Src: "b", Dst: "c", D: socialDet(1, 2)},
			{Src: "a", Dst: "c", D: socialDet(1, 2)},
		},
	}
	plan, err := planner.Build(g, pat)
	if err != nil {
		b.Fatal(err)
	}
	// Lower the plan as the engine does: one expansion per distinct edge,
	// serving every plan edge that shares it.
	n := len(plan.Order)
	iop := &exec.IntersectOp{NumPatternVertices: n, FirstCols: plan.CandList[plan.Order[0]],
		RowCandidates: make([][]graph.VertexID, n)}
	for t := 1; t < n; t++ {
		iop.RowCandidates[t] = plan.CandList[plan.Order[t]]
	}
	for _, spec := range plan.Operators() {
		pe := &plan.Edges[spec.Edges[0]]
		r, err := vexpand.Expand(g, plan.CandList[pe.ExpandFrom], pe.D, vexpand.Options{})
		if err != nil {
			b.Fatal(err)
		}
		src := &exec.ExpandOp{Result: r}
		for _, ei := range spec.Edges {
			iop.Edges = append(iop.Edges, exec.JoinEdge{EarlierPos: plan.Edges[ei].EarlierPos, LaterPos: plan.Edges[ei].LaterPos, Src: src})
		}
	}
	acct := exec.NewAccountant(0)
	in, cloned, err := iop.Assemble(exec.NewQueryContext(context.Background(), acct, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer acct.Release(cloned)
	b.Run("triangle_join", func(b *testing.B) {
		var res *mintersect.Result
		run(b, func() (err error) {
			res, err = mintersect.Run(in, mintersect.Options{CountOnly: true, Workers: 1})
			return err
		})
		b.ReportMetric(float64(res.Stats.Intersections), "intersections/op")
		b.ReportMetric(float64(res.Count), "tuples")
	})
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
			run(b, func() error { return err2(planner.Build(g, pat)) })
		})
	}
}

// BenchmarkBitmatrixPrimitives measures the §4.2 primitives directly.
func BenchmarkBitmatrixPrimitives(b *testing.B) {
	const rows, cols = 2048, 8192
	m1 := newRandomMatrix(rows, cols)
	m2 := newRandomMatrix(rows, cols)
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
	x := uint64(0x9e3779b97f4a7c15)
	for s := 0; s < m.Stacks(); s++ {
		w := m.StackWords(s)
		for i := range w {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			w[i] = x
		}
	}
	return m
}

// BenchmarkFixpointAblation ablates the opt-in frontier-fixpoint early
// exit: on a dense graph with large k_max, the default engine multiplies
// through every step (the paper's Figure 7 behaviour) while the fixpoint
// variant stops as soon as the frontier saturates.
func BenchmarkFixpointAblation(b *testing.B) {
	ds := dataset(b, "LDBC-SN-SF100")
	g := ds.Graph
	sources := scaledSources(g)
	det := socialDet(1, 12)
	b.Run("paper-faithful", func(b *testing.B) {
		run(b, func() error { return err2(vexpand.Expand(g, sources, det, vexpand.Options{Kernel: vexpand.Hilbert})) })
	})
	b.Run("fixpoint", func(b *testing.B) {
		run(b, func() error {
			return err2(vexpand.Expand(g, sources, det, vexpand.Options{Kernel: vexpand.Hilbert, DetectFixpoint: true}))
		})
	})
}
