package cypher

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// paperQueries are the twelve evaluation queries verbatim from §6.2 (modulo
// the paper's `[knows*1..2]` typo in Case 4, which drops the colon).
var paperQueries = []string{
	`MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q);`,
	`MATCH (p:SIGA)-[:knows*..3]-(q:Person) WHERE NOT q:SIGA RETURN COUNT(DISTINCT p) as c,q ORDER BY c DESC LIMIT 100;`,
	`MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p) as c,q ORDER BY c ASC LIMIT 100;`,
	`MATCH (a:Person:SIGA)-[:knows*1..2]-(b:Person:SIGB) MATCH (b)-[:knows*1..2]-(c:Person:SIGC) MATCH (a)-[:knows*1..2]-(c) RETURN COUNT(DISTINCT a,b,c);`,
	`UNWIND $person_ids AS pid MATCH (p:Person{id:pid})<-[:knows*2..3]-(q:Person) RETURN pid,COUNT(DISTINCT q);`,
	`MATCH (a:Account:RISKA)-[:transfer*1..6]->(b:Account:RISKA) WITH DISTINCT a,b RETURN COUNT(*);`,
	`MATCH (a:Account{id:$rid})-[:transfer*1..3]->(b:Account) RETURN DISTINCT b;`,
	`MATCH p=(start:Account{id:$id})-[:transfer*1..3]->(neighbor:Account), (neighbor)<-[:signIn]-(medium:Medium) WHERE medium.isBlocked = true RETURN neighbor, length(p);`,
	`MATCH (person:Person{id:$id})-[:own]->(account:Account)<-[:transfer*1..3]-(other:Account)<-[:deposit]-(loan:Loan) RETURN other.id, SUM(DISTINCT loan.balance), COUNT(DISTINCT loan);`,
	`MATCH (a:Account{id:$id1}), (b:Account{id:$id2}), p=shortestPath((a)-[:transfer*1..]->(b)) RETURN length(p);`,
	`MATCH (a:Account{id:$id})<-[:withdraw]-(mid:Account)<-[:transfer]-(other:Account) RETURN mid.id, other.id;`,
	`MATCH (loan:Loan{id:$id})-[:deposit]->(src:Account)-[p:transfer|withdraw*1..3]->(other:Account) RETURN DISTINCT other.id, length(p);`,
}

func TestAllPaperQueriesParse(t *testing.T) {
	for i, src := range paperQueries {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("case %d: %v", i+1, err)
			continue
		}
		if len(q.Parts) == 0 || len(q.Return) == 0 {
			t.Errorf("case %d parsed to empty query", i+1)
		}
	}
}

func TestParseDetails(t *testing.T) {
	q, err := Parse(`MATCH (p:SIGA)-[:knows*..3]-(q:SIGA) RETURN COUNT(DISTINCT p,q)`)
	if err != nil {
		t.Fatal(err)
	}
	rel := q.Parts[0].Rels[0]
	if rel.KMin != 1 || rel.KMax != 3 {
		t.Fatalf("*..3 parsed as %d..%d", rel.KMin, rel.KMax)
	}
	if rel.ArrowLeft || rel.ArrowRight {
		t.Fatal("undirected rel has arrows")
	}
	if !reflect.DeepEqual(rel.Types, []string{"knows"}) {
		t.Fatalf("types = %v", rel.Types)
	}
	item := q.Return[0]
	if item.Agg != "count" || !item.Distinct || len(item.Args) != 2 {
		t.Fatalf("return item = %+v", item)
	}

	q, err = Parse(`MATCH (a)-[:t*3]->(b) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	rel = q.Parts[0].Rels[0]
	if rel.KMin != 3 || rel.KMax != 3 || !rel.ArrowRight {
		t.Fatalf("*3 -> parsed as %+v", rel)
	}

	q, err = Parse(`MATCH (a)<-[:t*2..]-(b) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	rel = q.Parts[0].Rels[0]
	if rel.KMin != 2 || rel.KMax != pattern.Unbounded || !rel.ArrowLeft {
		t.Fatalf("*2.. <- parsed as %+v", rel)
	}

	q, err = Parse(`MATCH (a)-[x:t1|t2]-(b) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Parts[0].Rels[0].Types, []string{"t1", "t2"}) {
		t.Fatalf("types = %v", q.Parts[0].Rels[0].Types)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`RETURN 1`,
		`MATCH (a)`,
		`MATCH (a RETURN a`,
		`MATCH (a)-[:t*3..1]-(b) RETURN a`,
		`MATCH (a)<-[:t]->(b) RETURN a`,
		`MATCH (a)-[:t]-(b) RETURN`,
		`MATCH (a)-[:t]-(b) RETURN a LIMIT x`,
		`MATCH (a)-[:t]-(b) RETURN a extra`,
		`MATCH (a {id:}) RETURN a`,
		`UNWIND ids AS x MATCH (a) RETURN a`,
		`MATCH (a)-[:t]-(b) WHERE RETURN a`,
		`MATCH (a)-[:t]-(b) RETURN COUNT(*)`,
		// ORDER BY names an output column, checked before the query runs.
		`MATCH (a)-[:t]-(b) RETURN a ORDER BY nope`,
		`MATCH (a)-[:t]-(b) RETURN a, COUNT(b) AS c ORDER BY c, b`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestLexerStringsAndComments(t *testing.T) {
	q, err := Parse(`
-- leading comment
MATCH (a {name: 'it\'s'}) // trailing
-[:t]-(b) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Parts[0].Nodes[0].Props["name"].Str != "it's" {
		t.Fatalf("string literal = %q", q.Parts[0].Nodes[0].Props["name"].Str)
	}
	if _, err := Parse(`MATCH (a {s:'unterminated}) RETURN a`); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := Parse(`MATCH (a {x:$}) RETURN a`); err == nil {
		t.Fatal("empty param accepted")
	}
	if _, err := Parse("MATCH (a)?"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func socialEngine(t testing.TB) *engine.Engine {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 300, NumEdges: 1200, Seed: 31, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{})
}

func finEngine(t testing.TB) (*engine.Engine, *datagen.FinLayout) {
	t.Helper()
	g, lay, err := datagen.FinancialGraph(datagen.FinConfig{
		NumPersons: 50, NumAccounts: 200, NumLoans: 30, NumMediums: 40,
		NumTransfers: 700, NumWithdraws: 150, Seed: 41, BlockedFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{}), lay
}

func run(t *testing.T, e *engine.Engine, src string, params map[string]any) *Result {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := Run(e, q, params)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return res
}

func TestCase1ViaCypherMatchesEngine(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, paperQueries[0], nil)
	want, _, err := e.Case1(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != want {
		t.Fatalf("cypher = %v, engine = %d", res.Rows, want)
	}
}

func TestCase2ViaCypherMatchesEngine(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, paperQueries[1], nil)
	want, _, err := e.Case2(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	ids := e.Graph().Prop("id").(graph.Int64Column)
	// Counts must match position-wise (ties may order differently, so
	// compare count sequences and the (id → count) mapping).
	wantMap := map[int64]int64{}
	for _, gc := range want {
		wantMap[ids[gc.Vertex]] = int64(gc.Count)
	}
	for i, row := range res.Rows {
		c := row[0].(int64)
		qid := row[1].(int64)
		if int64(want[i].Count) != c {
			t.Fatalf("row %d count = %d, engine %d", i, c, want[i].Count)
		}
		if wantMap[qid] != c {
			t.Fatalf("id %d count = %d, engine %d", qid, c, wantMap[qid])
		}
	}
}

func TestCase4ViaCypherMatchesEngine(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, paperQueries[3], nil)
	want, _, err := e.Case4(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != want {
		t.Fatalf("cypher = %v, engine = %d", res.Rows[0][0], want)
	}
}

func TestCase5ViaCypherMatchesEngine(t *testing.T) {
	e := socialEngine(t)
	ids := []int64{1001, 1015, 1044}
	// The engine's Case5 treats knows as undirected (our social datasets
	// store undirected friendships in one arbitrary orientation), so the
	// comparison uses the undirected form of the paper's query.
	undirected := `UNWIND $person_ids AS pid MATCH (p:Person{id:pid})-[:knows*2..3]-(q:Person) RETURN pid,COUNT(DISTINCT q);`
	res := run(t, e, undirected, map[string]any{"person_ids": ids})
	want, _, err := e.Case5(ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		if row[0].(int64) != want[i].ID || row[1].(int64) != int64(want[i].Count) {
			t.Fatalf("row %d = %v, engine %+v", i, row, want[i])
		}
	}
}

func bankEngine(t testing.TB) *engine.Engine {
	t.Helper()
	g, err := datagen.BankGraph(datagen.BankConfig{
		NumAccounts: 300, NumTransfers: 900, Seed: 61, RiskFraction: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{})
}

func TestCase6ViaCypherMatchesEngine(t *testing.T) {
	e := bankEngine(t)
	res := run(t, e, paperQueries[5], nil)
	want, _, err := e.Case6(6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != want {
		t.Fatalf("cypher = %v, engine = %d", res.Rows[0][0], want)
	}
}

func TestCase7ViaCypherMatchesEngine(t *testing.T) {
	e := bankEngine(t)
	res := run(t, e, paperQueries[6], map[string]any{"rid": int64(1042)})
	want, _, err := e.Case7(1042, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := e.Graph().Prop("id").(graph.Int64Column)
	wantIDs := map[int64]bool{}
	for _, v := range want {
		wantIDs[ids[v]] = true
	}
	if len(res.Rows) != len(wantIDs) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(wantIDs))
	}
	for _, row := range res.Rows {
		if !wantIDs[row[0].(int64)] {
			t.Fatalf("unexpected row %v", row)
		}
	}
}

func TestCase8ViaCypherMatchesEngine(t *testing.T) {
	e, lay := finEngine(t)
	ids := e.Graph().Prop("id").(graph.Int64Column)
	start := ids[lay.AccountLo+5]
	res := run(t, e, paperQueries[7], map[string]any{"id": start})
	want, _, err := e.Case8(start, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantMap := map[int64]int64{}
	for _, nd := range want {
		wantMap[nd.ID] = int64(nd.Distance)
	}
	gotMap := map[int64]int64{}
	for _, row := range res.Rows {
		gotMap[row[0].(int64)] = row[1].(int64)
	}
	if !reflect.DeepEqual(gotMap, wantMap) {
		t.Fatalf("cypher %v, engine %v", gotMap, wantMap)
	}
}

func TestCase9ViaCypherMatchesEngine(t *testing.T) {
	e, lay := finEngine(t)
	g := e.Graph()
	ids := g.Prop("id").(graph.Int64Column)
	own := g.Edges("own")
	var person graph.VertexID
	for p := lay.PersonLo; p < lay.PersonHi; p++ {
		if len(own.Neighbors(p, graph.Forward)) > 0 {
			person = p
			break
		}
	}
	res := run(t, e, paperQueries[8], map[string]any{"id": ids[person]})
	want, _, err := e.Case9(ids[person], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	wantMap := map[int64]engine.LoanAgg{}
	for _, agg := range want {
		wantMap[agg.OtherID] = agg
	}
	for _, row := range res.Rows {
		id := row[0].(int64)
		w, ok := wantMap[id]
		if !ok {
			t.Fatalf("unexpected other %d", id)
		}
		if row[1].(float64) != w.BalanceSum || row[2].(int64) != int64(w.LoanCount) {
			t.Fatalf("row %v, engine %+v", row, w)
		}
	}
}

func TestCase10ViaCypherMatchesEngine(t *testing.T) {
	e, lay := finEngine(t)
	ids := e.Graph().Prop("id").(graph.Int64Column)
	a, b := ids[lay.AccountLo+1], ids[lay.AccountLo+77]
	res := run(t, e, paperQueries[9], map[string]any{"id1": a, "id2": b})
	want, _, err := e.Case10(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != int64(want) {
		t.Fatalf("cypher = %v, engine = %d", res.Rows[0][0], want)
	}
}

// withdrawTarget returns the first account some other account withdraws to
// (Case 11's anchor).
func withdrawTarget(e *engine.Engine, lay *datagen.FinLayout) graph.VertexID {
	withdraw := e.Graph().Edges("withdraw")
	for v := lay.AccountLo; v < lay.AccountHi; v++ {
		if len(withdraw.Neighbors(v, graph.Reverse)) > 0 {
			return v
		}
	}
	return 0
}

func TestCase11ViaCypherMatchesEngine(t *testing.T) {
	e, lay := finEngine(t)
	ids := e.Graph().Prop("id").(graph.Int64Column)
	a := withdrawTarget(e, lay)
	res := run(t, e, paperQueries[10], map[string]any{"id": ids[a]})
	want, _, err := e.Case11(ids[a])
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ mid, other int64 }
	wantSet := map[pair]bool{}
	for _, mo := range want {
		wantSet[pair{mo.MidID, mo.OtherID}] = true
	}
	// The engine's Case11 does not enforce the bijection across the
	// 3 variables beyond dedup; the Match path does (mid ≠ other ≠ a).
	gotSet := map[pair]bool{}
	for _, row := range res.Rows {
		p := pair{row[0].(int64), row[1].(int64)}
		gotSet[p] = true
		if !wantSet[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	for p := range wantSet {
		if !gotSet[p] && p.mid != p.other && p.other != ids[a] && p.mid != ids[a] {
			t.Fatalf("missing pair %v", p)
		}
	}
}

func TestCase12ViaCypherMatchesEngine(t *testing.T) {
	e, lay := finEngine(t)
	ids := e.Graph().Prop("id").(graph.Int64Column)
	loan := ids[lay.LoanLo+1]
	res := run(t, e, paperQueries[11], map[string]any{"id": loan})
	want, _, err := e.Case12(loan, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantMap := map[int64]int64{}
	for _, nd := range want {
		wantMap[nd.ID] = int64(nd.Distance)
	}
	gotMap := map[int64]int64{}
	for _, row := range res.Rows {
		id, dist := row[0].(int64), row[1].(int64)
		if cur, ok := gotMap[id]; !ok || dist < cur {
			gotMap[id] = dist
		}
	}
	if !reflect.DeepEqual(gotMap, wantMap) {
		t.Fatalf("cypher %v\nengine %v", gotMap, wantMap)
	}
}

func TestRunErrors(t *testing.T) {
	e := socialEngine(t)
	cases := []struct {
		src    string
		params map[string]any
	}{
		{`MATCH (p:SIGA)-[:nosuch*1..2]-(q:SIGA) RETURN COUNT(DISTINCT p,q)`, nil},
		{`MATCH (p {id:$missing})-[:knows]-(q) RETURN q`, nil},
		{`MATCH (p)-[:knows*1..]-(q) RETURN q`, nil}, // unbounded without shortestPath
		{`MATCH (p:SIGA)-[:knows]-(q) WHERE x.id = 3 RETURN q`, nil},
		{`MATCH (p:SIGA)-[:knows]-(q) WHERE p.id > 'str' RETURN q`, nil}, // ordering across types
		{`MATCH (p:SIGA)-[:knows]-(q) RETURN COUNT(DISTINCT p) as c, q ORDER BY zzz LIMIT 5`, nil},
		{`UNWIND $ids AS x MATCH (p {id:x})-[:knows]-(q) RETURN x, COUNT(DISTINCT q)`, map[string]any{"ids": 42}},
		{`UNWIND $ids AS x MATCH (p {id:x})-[:knows]-(q) RETURN x, COUNT(DISTINCT q)`, nil},
		{`MATCH (a {id:1000}), (b {id:1001}), p=shortestPath((a)-[:knows*1..]->(b)) RETURN a`, nil},
		{`MATCH (a:SIGA), (b:SIGA), p=shortestPath((a)-[:knows*1..]->(b)) RETURN length(p)`, nil},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			continue // parse-time rejection is fine too
		}
		if _, err := Run(e, q, c.params); err == nil {
			t.Errorf("accepted: %s", c.src)
		}
	}
}

func TestShortestPathViaCypherOnSocial(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e,
		`MATCH (a:Person{id:1000}), (b:Person{id:1005}), p=shortestPath((a)-[:knows*1..]-(b)) RETURN length(p)`,
		nil)
	want, err := e.ShortestPathLength(context.Background(), 0, 5, []string{"knows"}, graph.Both, pattern.Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != int64(want) {
		t.Fatalf("cypher = %v, engine = %d", res.Rows[0][0], want)
	}
}

// TestShortestPathCanceledAndBounded pins that a shortestPath query stops on
// a canceled context (KILL and QueryTimeout cancel it) and that a bounded
// `*1..k` answers -1 when the shortest path is longer than k.
func TestShortestPathCanceledAndBounded(t *testing.T) {
	e := socialEngine(t)
	const src = `MATCH (a:Person{id:1000}), (b:Person{id:1005}), p=shortestPath((a)-[:knows*1..%s]-(b)) RETURN length(p)`
	q, err := Parse(fmt.Sprintf(src, ""))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, e, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled shortestPath: err=%v, want context.Canceled", err)
	}

	l := run(t, e, fmt.Sprintf(src, ""), nil).Rows[0][0].(int64)
	if l < 2 {
		t.Fatalf("test needs a path of length >= 2, got %d", l)
	}
	for k, want := range map[int64]int64{l: l, l - 1: -1} {
		if got := run(t, e, fmt.Sprintf(src, fmt.Sprint(k)), nil).Rows[0][0]; got != want {
			t.Errorf("*1..%d: length = %v, want %d", k, got, want)
		}
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e,
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT q) AS c, p ORDER BY c DESC, p ASC LIMIT 10`,
		nil)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i := 1; i < len(res.Rows); i++ {
		c0, c1 := res.Rows[i-1][0].(int64), res.Rows[i][0].(int64)
		if c1 > c0 {
			t.Fatal("not descending by c")
		}
		if c1 == c0 && res.Rows[i][1].(int64) < res.Rows[i-1][1].(int64) {
			t.Fatal("ties not ascending by p")
		}
	}
}

func TestDistinctRowsAreDistinct(t *testing.T) {
	e := socialEngine(t)
	src := `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN DISTINCT q`
	res := run(t, e, src, nil)
	seen := map[int64]bool{}
	for _, row := range res.Rows {
		id := row[0].(int64)
		if seen[id] {
			t.Fatalf("duplicate row %d", id)
		}
		seen[id] = true
	}
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.MatchContext(context.Background(), b.pat, engine.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := map[graph.VertexID]bool{}
	for _, tuple := range m.Tuples {
		qs[tuple[b.varIdx["q"]]] = true
	}
	if len(res.Rows) == 0 || len(res.Rows) != len(qs) {
		t.Fatalf("%d rows, want one per distinct q among the matches (%d)", len(res.Rows), len(qs))
	}
}

// TestStreamMatchesRunContext pins the two cypher entry points against each
// other: they are two sinks of drive, so every query returns the same rows
// either way, in the same order under ORDER BY.
func TestStreamMatchesRunContext(t *testing.T) {
	type parityCase struct {
		eng    *engine.Engine
		src    string
		params map[string]any
	}
	social := socialEngine(t)
	cases := []parityCase{
		// Every pattern vertex projected bare: no dedup state on either side.
		{social, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q`, nil},
		// Omits p, so rows deduplicate through the seen-set.
		{social, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN DISTINCT q`, nil},
		// Property projection.
		{social, `MATCH (p:SIGA)-[:knows]-(q:Person) RETURN p, q.id`, nil},
		// Single-vertex pattern (no join).
		{social, `MATCH (p:SIGA) RETURN p`, nil},
		// Held shapes: groups, and ORDER BY (compared in order).
		{social, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN q, COUNT(p) AS c`, nil},
		{social, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN q, COUNT(p) AS c ORDER BY c DESC, q LIMIT 9`, nil},
	}
	// Plus every streamable query of the paper's twelve.
	for i, src := range paperQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !Streamable(q) {
			continue
		}
		switch i + 1 {
		case 7:
			cases = append(cases, parityCase{bankEngine(t), src, map[string]any{"rid": int64(1042)}})
		case 11:
			e, lay := finEngine(t)
			ids := e.Graph().Prop("id").(graph.Int64Column)
			cases = append(cases, parityCase{e, src, map[string]any{"id": ids[withdrawTarget(e, lay)]}})
		default:
			t.Fatalf("streamable paper query %d has no parity fixture", i+1)
		}
	}

	sorted := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = fmt.Sprint(row...)
		}
		sort.Strings(out)
		return out
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		want, err := RunContext(context.Background(), c.eng, q, c.params)
		if err != nil {
			t.Fatalf("run %q: %v", c.src, err)
		}
		var got [][]any
		err = Stream(context.Background(), c.eng, q, c.params, func(_ context.Context, row []any) error {
			got = append(got, row)
			return nil
		})
		if err != nil {
			t.Fatalf("stream %q: %v", c.src, err)
		}
		if len(got) == 0 {
			t.Fatalf("%q returned no rows; the fixture proves nothing", c.src)
		}
		same := reflect.DeepEqual(got, want.Rows)
		if len(q.OrderBy) == 0 {
			same = reflect.DeepEqual(sorted(got), sorted(want.Rows))
		}
		if !same {
			t.Fatalf("%q: Stream returned %d rows, RunContext %d, or they differ", c.src, len(got), len(want.Rows))
		}
	}
}

func TestRelationshipPropertyFilter(t *testing.T) {
	// Chain 0→1→2→3 with only edges 0→1 and 2→3 flagged: with the edge
	// property constraint, nothing 2 hops away from 0 remains reachable.
	b := graph.NewBuilder(4)
	b.AddEdge("transfer", 0, 1)
	b.AddEdge("transfer", 1, 2)
	b.AddEdge("transfer", 2, 3)
	b.SetEdgeProp("transfer", "flagged", graph.BoolColumn{true, false, true})
	b.SetProp("id", graph.Int64Column{1000, 1001, 1002, 1003})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g, engine.Options{})

	res := run(t, e, `MATCH (a {id:1000})-[:transfer {flagged: true} *1..3]->(b) RETURN DISTINCT b`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 1001 {
		t.Fatalf("flagged-only reach = %v, want just 1001", res.Rows)
	}

	// Property map after the star bounds parses too.
	res = run(t, e, `MATCH (a {id:1000})-[:transfer *1..3 {flagged: true}]->(b) RETURN DISTINCT b`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("post-star props: rows = %v", res.Rows)
	}

	// Without the constraint the whole chain is reachable.
	res = run(t, e, `MATCH (a {id:1000})-[:transfer*1..3]->(b) RETURN DISTINCT b`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("unfiltered rows = %v", res.Rows)
	}
}

// Property: the parser never panics, on arbitrary byte soup or on
// mutilated variants of real queries — it either parses or errors.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(raw []byte, pick uint8, cut uint16) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse panicked on %q: %v", raw, r)
			}
		}()
		_, _ = Parse(string(raw))
		// Mutilated real query: truncate at a random point.
		q := paperQueries[int(pick)%len(paperQueries)]
		if int(cut) < len(q) {
			_, _ = Parse(q[:cut])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSumOverNonNumericRejected(t *testing.T) {
	e := socialEngine(t)
	for _, c := range []struct{ src, want string }{
		{`MATCH (p:SIGA)-[:knows]-(q:SIGB) RETURN q, SUM(DISTINCT p.name)`, "cypher: SUM over non-numeric value string"},
		{`MATCH (p:SIGA)-[:knows]-(q:SIGB) RETURN AVG(p.name)`, "cypher: AVG over non-numeric value string"},
	} {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(e, q, nil); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.src, err, c.want)
		}
	}
}

func TestOrderByStringColumn(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN DISTINCT q.name AS n ORDER BY n ASC LIMIT 5`, nil)
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].(string) < res.Rows[i-1][0].(string) {
			t.Fatal("not ascending")
		}
	}
}

func TestReturnPropertyProjection(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, `MATCH (p:SIGA)-[:knows]-(q:Person) RETURN DISTINCT q.id LIMIT 3`, nil)
	for _, row := range res.Rows {
		if _, ok := row[0].(int64); !ok {
			t.Fatalf("q.id type %T", row[0])
		}
	}
	if _, err := Parse(`MATCH (p)-[:knows]-(q) RETURN q.`); err == nil {
		t.Fatal("dangling property accepted")
	}
	q, err := Parse(`MATCH (p:SIGA)-[:knows]-(q) RETURN q.nosuchprop`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, q, nil); err == nil {
		t.Fatal("unknown property accepted")
	}
}

func TestMultipleAggregatesInOneReturn(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p), COUNT(DISTINCT q)`, nil)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Cross-check against the materialized pairs.
	full := run(t, e, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q`, nil)
	ps, qs := map[any]bool{}, map[any]bool{}
	for _, row := range full.Rows {
		ps[row[0]] = true
		qs[row[1]] = true
	}
	if res.Rows[0][0].(int64) != int64(len(ps)) || res.Rows[0][1].(int64) != int64(len(qs)) {
		t.Fatalf("counts %v, want %d/%d", res.Rows[0], len(ps), len(qs))
	}
}

// TestComparisonPredicates covers the WHERE comparison operators end to
// end against manual filtering.
func TestComparisonPredicates(t *testing.T) {
	e := socialEngine(t)
	g := e.Graph()
	ids := g.Prop("id").(graph.Int64Column)

	countWith := func(where string) int {
		res := run(t, e, `MATCH (p:SIGA)-[:knows]-(q:Person) WHERE `+where+` RETURN DISTINCT q`, nil)
		return len(res.Rows)
	}
	manual := func(keep func(int64) bool) int {
		res := run(t, e, `MATCH (p:SIGA)-[:knows]-(q:Person) RETURN DISTINCT q`, nil)
		n := 0
		for _, row := range res.Rows {
			if keep(row[0].(int64)) {
				n++
			}
		}
		return n
	}
	mid := ids[len(ids)/2]
	cases := []struct {
		where string
		keep  func(int64) bool
	}{
		{fmt.Sprintf("q.id > %d", mid), func(x int64) bool { return x > mid }},
		{fmt.Sprintf("q.id >= %d", mid), func(x int64) bool { return x >= mid }},
		{fmt.Sprintf("q.id < %d", mid), func(x int64) bool { return x < mid }},
		{fmt.Sprintf("q.id <= %d", mid), func(x int64) bool { return x <= mid }},
		{fmt.Sprintf("q.id <> %d", mid), func(x int64) bool { return x != mid }},
		{fmt.Sprintf("NOT q.id = %d", mid), func(x int64) bool { return x != mid }},
		{fmt.Sprintf("NOT q.id > %d", mid), func(x int64) bool { return x <= mid }},
	}
	for _, c := range cases {
		if got, want := countWith(c.where), manual(c.keep); got != want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, got, want)
		}
	}
	// String ordering.
	res := run(t, e, `MATCH (p:SIGA)-[:knows]-(q:Person) WHERE q.name < 'person-2' RETURN DISTINCT q.name`, nil)
	for _, row := range res.Rows {
		if row[0].(string) >= "person-2" {
			t.Errorf("string comparison leaked %q", row[0])
		}
	}
}

// TestMinMaxAvgAggregates checks the extended aggregates against manual
// computation over the materialized rows.
func TestMinMaxAvgAggregates(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e,
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN MIN(q.id), MAX(q.id), AVG(DISTINCT q.id), COUNT(DISTINCT q)`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	full := run(t, e, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN DISTINCT q.id`, nil)
	var minV, maxV, sum int64
	minV = 1 << 62
	for _, row := range full.Rows {
		v := row[0].(int64)
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	n := int64(len(full.Rows))
	row := res.Rows[0]
	if row[0].(int64) != minV || row[1].(int64) != maxV {
		t.Fatalf("min/max = %v/%v, want %d/%d", row[0], row[1], minV, maxV)
	}
	wantAvg := float64(sum) / float64(n)
	if got := row[2].(float64); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
		t.Fatalf("avg = %v, want %v", got, wantAvg)
	}
	if row[3].(int64) != n {
		t.Fatalf("count = %v, want %d", row[3], n)
	}

	// Grouped MIN with ORDER BY on the aggregate alias.
	grouped := run(t, e,
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN q, MIN(p.id) AS m ORDER BY m ASC LIMIT 5`, nil)
	for i := 1; i < len(grouped.Rows); i++ {
		if grouped.Rows[i][1].(int64) < grouped.Rows[i-1][1].(int64) {
			t.Fatal("grouped MIN not ascending")
		}
	}
}

// Property: for random small graphs, COUNT(DISTINCT p,q) through the full
// stack (parse → bind → plan → expand → intersect → count) matches a
// walk-semantics brute force.
func TestQuickCypherCountAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(25)
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(graph.VertexID(v), []string{"A", "B"}[v%2])
		}
		m := 1 + rng.Intn(3*n)
		for i := 0; i < m; i++ {
			b.AddEdge("e", uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		e := engine.New(g, engine.Options{})
		kmax := 1 + rng.Intn(3)
		dirTok := []string{"-", "->", "<-"}[rng.Intn(3)]
		var qtext string
		switch dirTok {
		case "->":
			qtext = fmt.Sprintf(`MATCH (p:A)-[:e*1..%d]->(q:B) RETURN COUNT(DISTINCT p,q)`, kmax)
		case "<-":
			qtext = fmt.Sprintf(`MATCH (p:A)<-[:e*1..%d]-(q:B) RETURN COUNT(DISTINCT p,q)`, kmax)
		default:
			qtext = fmt.Sprintf(`MATCH (p:A)-[:e*1..%d]-(q:B) RETURN COUNT(DISTINCT p,q)`, kmax)
		}
		q, err := Parse(qtext)
		if err != nil {
			return false
		}
		res, err := Run(e, q, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got := res.Rows[0][0].(int64)

		// Oracle: walk reach per p, restricted to B-labeled q ≠ p.
		dir := map[string]graph.Direction{"-": graph.Both, "->": graph.Forward, "<-": graph.Reverse}[dirTok]
		var want int64
		es := g.Edges("e")
		for p := 0; p < n; p += 2 { // label A
			cur := map[int]bool{p: true}
			reach := map[int]bool{}
			for step := 1; step <= kmax; step++ {
				next := map[int]bool{}
				for v := range cur {
					for _, w := range es.Neighbors(graph.VertexID(v), dir) {
						next[int(w)] = true
					}
				}
				for v := range next {
					reach[v] = true
				}
				cur = next
			}
			for v := range reach {
				if v%2 == 1 && v != p {
					want++
				}
			}
		}
		if got != want {
			t.Logf("seed %d: %s -> %d, oracle %d", seed, qtext, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
