package main

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// idBase is the "id" property of vertex 0 in every datagen graph: ids are
// vertex index + idBase.
const idBase = 1000

// workload is one named traffic shape: a dataset, one query text, and the
// distribution its parameters are drawn from. The program under test sees
// only Query and the drawn params.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json's
	// "why"); the README has the paragraph.
	Why     string
	Dataset string
	Scale   float64
	// SmokeScale replaces Scale under -smoke (tests).
	SmokeScale float64
	Query      string
	// Count marks a single-row COUNT(DISTINCT …) query; the others return
	// one row per match.
	Count bool
	// Span is hi-lo of the id range predicate; 0 means the query takes a
	// single $id instead of $lo/$hi.
	Span int64
	// Pool > 0 draws lo from a fixed pool of that many values, spread
	// evenly over the id space and shared by every client and seed, instead
	// of uniformly.
	Pool int
	// CheckSpan is the reduced span the pre-timing output check runs at:
	// small enough that baseline.JoinEngine's flat walk enumeration stays
	// around a second on the full-size graph.
	CheckSpan int64
	// Dominant lists the layers whose summed self time must exceed every
	// other layer's in the traced table (the sizing guard); empty means no
	// single layer may own more than half.
	Dominant []string
	// buildPattern mirrors Query as the pattern the binder lowers it to —
	// cypher's bind is unexported, so per-layer calls below the cypher
	// package (planner, vexpand, mintersect, engine) take this. The output
	// check proves the two agree.
	buildPattern func(lo, hi int64) *pattern.Pattern
}

func knows(kmax int) pattern.Determiner {
	return pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}
}

func transfer(kmax int) pattern.Determiner {
	return pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any, EdgeLabels: []string{"transfer"}}
}

// idRange is the pattern-vertex constraint `v.id >= lo AND v.id < hi`.
func idRange(name string, labels []string, lo, hi int64) pattern.Vertex {
	return pattern.Vertex{
		Name: name, Labels: labels, PropEq: map[string]any{},
		PropCmp: []pattern.PropFilter{
			{Prop: "id", Op: pattern.CmpGe, Value: lo},
			{Prop: "id", Op: pattern.CmpLt, Value: hi},
		},
	}
}

func labeled(name string, labels ...string) pattern.Vertex {
	return pattern.Vertex{Name: name, Labels: labels, PropEq: map[string]any{}}
}

func expandPattern(lo, hi int64) *pattern.Pattern {
	return &pattern.Pattern{
		Vertices: []pattern.Vertex{idRange("p", []string{"Person"}, lo, hi), labeled("q", "SIGB")},
		Edges:    []pattern.Edge{{Src: "p", Dst: "q", D: knows(3)}},
	}
}

func pointPattern(id, _ int64) *pattern.Pattern {
	a := labeled("a", "Account")
	a.PropEq["id"] = id
	return &pattern.Pattern{
		Vertices: []pattern.Vertex{a, labeled("b", "Account")},
		Edges:    []pattern.Edge{{Src: "a", Dst: "b", D: transfer(3)}},
	}
}

const expandQuery = "MATCH (p:Person)-[:knows*1..3]-(q:SIGB) WHERE p.id >= $lo AND p.id < $hi RETURN COUNT(DISTINCT p,q)"

// workloads is the ledger's fixed workload list, in report order.
var workloads = []*workload{
	{
		Name:    "expand_miss",
		Why:     "fresh id range per query on a graph larger than L2: every expansion misses the 64 MiB matrix cache, so VExpand does nearly all the work",
		Dataset: "LDBC-SN-SF100", Scale: 0.05, SmokeScale: 0.005,
		Query: expandQuery, Count: true, Span: 1024, CheckSpan: 2,
		Dominant:     []string{"vexpand"},
		buildPattern: expandPattern,
	},
	{
		Name:    "expand_hit",
		Why:     "same query over a pool of 8 id ranges that fits the cache: after warm-up only parse/bind/plan, cache lookup, popcount and the round trip remain",
		Dataset: "LDBC-SN-SF100", Scale: 0.05, SmokeScale: 0.005,
		Query: expandQuery, Count: true, Span: 1024, Pool: 8, CheckSpan: 2,
		// Every per-query fixed cost, i.e. everything but vexpand: the
		// planner's O(|V|) candidate scan alone owns ~60% of a hit at any
		// span, so "no layer above half" cannot be had by resizing (README).
		Dominant:     []string{"planner", "engine", "mintersect", "cypher", "session", "client", "wire"},
		buildPattern: expandPattern,
	},
	{
		Name:    "triangle_join",
		Why:     "three-edge community triangle: the only workload where the exec DAG overlaps expands and MIntersect runs a real generic join",
		Dataset: "LDBC-SN-SF100", Scale: 0.02, SmokeScale: 0.005,
		Query: "MATCH (a:Person)-[:knows*1..2]-(b:Person:SIGB) MATCH (b)-[:knows*1..2]-(c:Person:SIGC) MATCH (a)-[:knows*1..2]-(c) " +
			"WHERE a.id >= $lo AND a.id < $hi RETURN COUNT(DISTINCT a,b,c)",
		Count: true, Span: 512, CheckSpan: 2,
		Dominant: []string{"mintersect", "vexpand"},
		buildPattern: func(lo, hi int64) *pattern.Pattern {
			return &pattern.Pattern{
				Vertices: []pattern.Vertex{
					idRange("a", []string{"Person"}, lo, hi),
					labeled("b", "Person", "SIGB"),
					labeled("c", "Person", "SIGC"),
				},
				Edges: []pattern.Edge{
					{Src: "a", Dst: "b", D: knows(2)},
					{Src: "b", Dst: "c", D: knows(2)},
					{Src: "a", Dst: "c", D: knows(2)},
				},
			}
		},
	},
	{
		Name:    "point_lookup",
		Why:     "single-source 3-hop lookup reaching a few dozen vertices: pays the O(|V|) padded-matrix floor the sparse-column roadmap item must remove",
		Dataset: "Rabobank", Scale: 0.1, SmokeScale: 0.005,
		Query:        "MATCH (a:Account{id:$id})-[:transfer*1..3]->(b:Account) RETURN DISTINCT b",
		buildPattern: pointPattern,
	},
	{
		Name:    "stream_rows",
		Why:     "about ten thousand rows per query through MatchForEach, the stream projector, cursor batches and the wire codec: the engine's other execution path",
		Dataset: "Rabobank", Scale: 0.1, SmokeScale: 0.005,
		Query: "MATCH (a:Account)-[:transfer*1..2]->(b:Account) WHERE a.id >= $lo AND a.id < $hi RETURN a, b",
		Span:  1024, CheckSpan: 32,
		Dominant: []string{"session", "wire", "client", "cypher"},
		buildPattern: func(lo, hi int64) *pattern.Pattern {
			return &pattern.Pattern{
				Vertices: []pattern.Vertex{idRange("a", []string{"Account"}, lo, hi), labeled("b", "Account")},
				Edges:    []pattern.Edge{{Src: "a", Dst: "b", D: transfer(2)}},
			}
		},
	},
}

func byName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// params renders the drawn value as the query's parameter map at the given
// span (the workload's own, or the output check's reduced one).
func (w *workload) params(lo, span int64) map[string]any {
	if w.Span == 0 {
		return map[string]any{"id": lo}
	}
	return map[string]any{"lo": lo, "hi": lo + span}
}

// pattern is buildPattern at the given span.
func (w *workload) pattern(lo, span int64) *pattern.Pattern {
	return w.buildPattern(lo, lo+span)
}

// paramGen draws a workload's parameter stream. It is a pure function of
// (seed, client): the draw sequence is seeded with seed+client; the pool
// (when the workload has one) is fixed.
type paramGen struct {
	rng  *rand.Rand
	pool []int64
	n    int64 // distinct values next can return
}

func newParamGen(w *workload, numVertices int, seed int64, client int) *paramGen {
	g := &paramGen{n: int64(numVertices) - max(w.Span, 1) + 1}
	if g.n < int64(max(w.Pool, 1)) {
		panic(fmt.Sprintf("workload %s: span %d does not fit %d vertices", w.Name, w.Span, numVertices))
	}
	if w.Pool > 0 {
		// The pool is the same for every seed — the midpoints of Pool equal
		// slices of the id space — and only the order of draws is seeded. A
		// query's cost falls steadily with lo (1.23 ms at the low, hub-heavy
		// ids to 0.77 ms at the high end on expand_hit): eight seeded draws
		// moved the workload's median by 30% from seed to seed, eight evenly
		// spaced values from a seeded offset still by 15%.
		stride := g.n / int64(w.Pool)
		for i := 0; i < w.Pool; i++ {
			g.pool = append(g.pool, idBase+stride/2+int64(i)*stride)
		}
	}
	g.rng = rand.New(rand.NewSource(seed + int64(client)))
	return g
}

// next returns the next lo (or id). Every range [lo, lo+Span) lies inside
// the graph's id space, so all queries of one workload have equally many
// sources.
func (g *paramGen) next() int64 {
	if g.pool != nil {
		return g.pool[g.rng.Intn(len(g.pool))]
	}
	return idBase + g.rng.Int63n(g.n)
}
