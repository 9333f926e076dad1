package vertexsurge

import (
	"context"
	"strings"
	"testing"
)

func lastFM(t testing.TB) *DB {
	t.Helper()
	db, err := Generate("LastFM", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateAndQuery(t *testing.T) {
	db := lastFM(t)
	if db.Graph().NumVertices() == 0 {
		t.Fatal("empty graph")
	}
	res, err := db.Query(`MATCH (p:SIGA)-[:knows*..2]-(q:SIGA) RETURN COUNT(DISTINCT p,q)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	count := res.Rows[0][0].(int64)
	if count <= 0 {
		t.Fatalf("count = %d, want > 0", count)
	}

	// The same query through the typed API must agree.
	d := Determiner{KMin: 1, KMax: 2, Dir: Both, Type: Any, EdgeLabels: []string{"knows"}}
	pat := &Pattern{
		Vertices: []PatternVertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGA"}},
		},
		Edges: []PatternEdge{{Src: "p", Dst: "q", D: d}},
	}
	n, err := db.MatchCount(pat)
	if err != nil {
		t.Fatal(err)
	}
	if n != count {
		t.Fatalf("typed API = %d, Cypher = %d", n, count)
	}
	full, err := db.Match(pat)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full.Tuples)) != n {
		t.Fatalf("materialized %d tuples, count %d", len(full.Tuples), n)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	db := lastFM(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := `MATCH (p:SIGA)-[:knows*..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`
	r1, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0] != r2.Rows[0][0] {
		t.Fatalf("counts differ after round trip: %v vs %v", r1.Rows[0][0], r2.Rows[0][0])
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewGraphBuilder(4)
	b.SetLabel(0, "X").SetLabel(3, "Y")
	b.AddEdge("e", 0, 1).AddEdge("e", 1, 2).AddEdge("e", 2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := FromGraph(g, Options{Kernel: KernelHilbert})
	r, err := db.Expand([]VertexID{0},
		Determiner{KMin: 1, KMax: 3, Dir: Forward, Type: Any, EdgeLabels: []string{"e"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.PairCount() != 3 {
		t.Fatalf("PairCount = %d, want 3", r.PairCount())
	}
	if l, ok := r.MinLength(0, 3); !ok || l != 3 {
		t.Fatalf("MinLength = %d,%v", l, ok)
	}
	if l, err := db.ShortestPathLength(0, 3, []string{"e"}, Forward); err != nil || l != 3 {
		t.Fatalf("ShortestPathLength = %d, %v", l, err)
	}
}

func TestVertexByID(t *testing.T) {
	db := lastFM(t)
	v, err := db.VertexByID(1000)
	if err != nil || v != 0 {
		t.Fatalf("VertexByID = %d, %v", v, err)
	}
	if _, err := db.VertexByID(-5); err == nil {
		t.Fatal("missing id accepted")
	}
}

func TestEngineCasesAccessible(t *testing.T) {
	db := lastFM(t)
	count, tm, err := db.Engine().Case1(2)
	if err != nil {
		t.Fatal(err)
	}
	if count < 0 || tm.Total <= 0 {
		t.Fatalf("Case1 = %d, %v", count, tm.Total)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("NoSuch", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := lastFM(t).Query("MATCH oops", nil); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestExplain pins the query prefixes as the facade's way to a plan and
// an analysis: EXPLAIN fills QueryResult.Plan without executing, EXPLAIN
// ANALYZE fills QueryResult.Analysis.
func TestExplain(t *testing.T) {
	db := lastFM(t)
	const count = `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`
	res, err := db.Query("EXPLAIN "+count, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Scan", "Join order", "VExpand", "expansion side", "candidates"} {
		if !strings.Contains(res.Plan, want) {
			t.Errorf("EXPLAIN plan missing %q:\n%s", want, res.Plan)
		}
	}
	if len(res.Rows) != 0 || res.Analysis != nil {
		t.Errorf("EXPLAIN executed: %d rows, analysis %v", len(res.Rows), res.Analysis)
	}
	sp, err := db.Query(`EXPLAIN MATCH (a {id:1000}), (b {id:1001}), p=shortestPath((a)-[:knows*1..]-(b)) RETURN length(p)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.Plan, "shortestPath") {
		t.Errorf("shortestPath explain = %q", sp.Plan)
	}
	if _, err := db.Query(`EXPLAIN MATCH (p:NoSuch)-[:knows]-(q) RETURN q`, nil); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := db.Query(`EXPLAIN not a query`, nil); err == nil {
		t.Error("garbage accepted")
	}

	an, err := db.QueryContext(context.Background(), "EXPLAIN ANALYZE "+count, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if an.Analysis == nil || len(an.Analysis.Ops) == 0 {
		t.Fatalf("EXPLAIN ANALYZE returned no operator table: %+v", an)
	}
	if got := an.Analysis.Count; got != want.Rows[0][0].(int64) {
		t.Errorf("EXPLAIN ANALYZE count = %d, want %v", got, want.Rows[0][0])
	}
}

func TestFacadeMatchForEach(t *testing.T) {
	db := lastFM(t)
	d := Determiner{KMin: 1, KMax: 2, Dir: Both, Type: Any, EdgeLabels: []string{"knows"}}
	pat := &Pattern{
		Vertices: []PatternVertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGB"}},
		},
		Edges: []PatternEdge{{Src: "p", Dst: "q", D: d}},
	}
	var n int64
	if err := db.MatchForEach(pat, func([]VertexID) { n++ }); err != nil {
		t.Fatal(err)
	}
	want, err := db.MatchCount(pat)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("streamed %d, count %d", n, want)
	}
}

func TestFacadeComparisonQuery(t *testing.T) {
	db := lastFM(t)
	res, err := db.Query(`MATCH (p:SIGA)-[:knows]-(q:Person) WHERE q.id >= 1100 RETURN DISTINCT q ORDER BY q LIMIT 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].(int64) < 1100 {
			t.Fatalf("comparison leaked %v", row[0])
		}
	}
}
