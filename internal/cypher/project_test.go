package cypher

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/vexpand"
)

// idGraph builds n vertices with ids 100+v, label A on even and B on odd
// vertices, and the given "e" edges and "w" property.
func idGraph(t *testing.T, n int, edges [][2]graph.VertexID, w graph.Int64Column) *engine.Engine {
	t.Helper()
	b := graph.NewBuilder(n)
	ids := make(graph.Int64Column, n)
	for v := range ids {
		ids[v] = int64(100 + v)
		b.SetLabel(graph.VertexID(v), []string{"A", "B"}[v%2])
	}
	b.SetProp("id", ids)
	if w != nil {
		b.SetProp("w", w)
	}
	for _, e := range edges {
		b.AddEdge("e", e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{})
}

func checkRows(t *testing.T, e *engine.Engine, src string, params map[string]any, want [][]any) {
	t.Helper()
	if got := run(t, e, src, params).Rows; (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
		t.Errorf("%s\n got %v\nwant %v", src, got, want)
	}
}

// TestLengthBelowHopMinimum pins length(p) to the lengths the relationship
// allows: on the undirected path 100-101-102, the shortest walk from 100 to
// 101 has one edge, but under *3..3 the length is 3 (100-101-100-101), under
// either kernel that records per-step reach.
func TestLengthBelowHopMinimum(t *testing.T) {
	b := graph.NewBuilder(3)
	b.SetProp("id", graph.Int64Column{100, 101, 102})
	for v := graph.VertexID(0); v < 3; v++ {
		b.SetLabel(v, "P")
	}
	b.AddEdge("knows", 0, 1)
	b.AddEdge("knows", 1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []vexpand.Kernel{vexpand.BFS, vexpand.Hilbert} {
		e := engine.New(g, engine.Options{Kernel: kernel})
		for _, c := range []struct {
			rel  string
			want [][]any
		}{
			{"*1..3", [][]any{{int64(101), int64(1)}, {int64(102), int64(2)}}},
			{"*3..3", [][]any{{int64(101), int64(3)}}},
			{"*2..3", [][]any{{int64(101), int64(3)}, {int64(102), int64(2)}}},
		} {
			src := fmt.Sprintf("MATCH p=(a:P{id:100})-[:knows%s]-(b:P) RETURN b, length(p) ORDER BY b ASC", c.rel)
			if got := run(t, e, src, nil).Rows; !reflect.DeepEqual(got, c.want) {
				t.Errorf("%v: %s\n got %v\nwant %v", kernel, src, got, c.want)
			}
		}
	}
}

// TestAggregateWithoutDistinctCountsEveryRow: two matches whose b.w are both
// 5 are two rows, so SUM and COUNT see both values; only DISTINCT folds them.
func TestAggregateWithoutDistinctCountsEveryRow(t *testing.T) {
	e := idGraph(t, 4, [][2]graph.VertexID{{0, 1}, {2, 3}}, graph.Int64Column{0, 5, 0, 5})
	checkRows(t, e, `MATCH (a)-[:e]->(b) RETURN SUM(b.w)`, nil, [][]any{{10.0}})
	checkRows(t, e, `MATCH (a)-[:e]->(b) RETURN COUNT(b.w)`, nil, [][]any{{int64(2)}})
	checkRows(t, e, `MATCH (a)-[:e]->(b) RETURN SUM(DISTINCT b.w)`, nil, [][]any{{5.0}})
	checkRows(t, e, `MATCH (a)-[:e]->(b) RETURN AVG(b.w), COUNT(DISTINCT b.w)`, nil, [][]any{{5.0, int64(1)}})
}

// unwindGraph has edges 0→2, 1→2 and 1→3, so UNWIND [100, 101] reaches 102
// from both anchors and 103 from one.
func unwindGraph(t *testing.T) (*engine.Engine, map[string]any) {
	e := idGraph(t, 4, [][2]graph.VertexID{{0, 2}, {1, 2}, {1, 3}}, nil)
	return e, map[string]any{"ids": []int64{100, 101}}
}

const unwindMatch = `UNWIND $ids AS x MATCH (a {id: x})-[:e]->(b) `

// TestUnwindAggregatesOnce: an aggregate is one result across every UNWIND
// value, not one per value. Grouped by the alias (C5's shape) it keeps one
// row per value, in list order.
func TestUnwindAggregatesOnce(t *testing.T) {
	e, ids := unwindGraph(t)
	checkRows(t, e, unwindMatch+`RETURN COUNT(DISTINCT b)`, ids, [][]any{{int64(2)}})
	checkRows(t, e, unwindMatch+`RETURN COUNT(b)`, ids, [][]any{{int64(3)}})
	checkRows(t, e, unwindMatch+`RETURN x, COUNT(DISTINCT b)`,
		map[string]any{"ids": []int64{101, 100}}, [][]any{{int64(101), int64(2)}, {int64(100), int64(1)}})
}

// TestUnwindDistinctRowsOnce: a row reached under two UNWIND values is
// returned once.
func TestUnwindDistinctRowsOnce(t *testing.T) {
	e, ids := unwindGraph(t)
	checkRows(t, e, unwindMatch+`RETURN DISTINCT b`, ids, [][]any{{int64(102)}, {int64(103)}})
}

// TestUnwindOrderAndLimitOnce: ORDER BY and LIMIT apply to the whole answer.
func TestUnwindOrderAndLimitOnce(t *testing.T) {
	e, ids := unwindGraph(t)
	checkRows(t, e, unwindMatch+`RETURN b ORDER BY b DESC LIMIT 1`, ids, [][]any{{int64(103)}})
}

// TestUnwindEmptyListKeepsColumns: an empty UNWIND list still answers with
// the RETURN columns.
func TestUnwindEmptyListKeepsColumns(t *testing.T) {
	e, _ := unwindGraph(t)
	res := run(t, e, unwindMatch+`RETURN x, b`, map[string]any{"ids": []int64{}})
	if want := []string{"x", "b"}; !reflect.DeepEqual(res.Columns, want) || len(res.Rows) != 0 {
		t.Fatalf("columns %v rows %v, want %v and no rows", res.Columns, res.Rows, want)
	}
}

// TestKeylessAggregateOverNoMatches: a key-less aggregate returns exactly one
// row over zero matches, as the COUNT fast path already does.
func TestKeylessAggregateOverNoMatches(t *testing.T) {
	e := idGraph(t, 4, [][2]graph.VertexID{{0, 1}, {2, 3}}, graph.Int64Column{0, 5, 0, 5})
	none := `MATCH (a {id: 999})-[:e]->(b) `
	checkRows(t, e, none+`RETURN COUNT(DISTINCT a, b)`, nil, [][]any{{int64(0)}})
	checkRows(t, e, none+`RETURN COUNT(DISTINCT b)`, nil, [][]any{{int64(0)}})
	checkRows(t, e, none+`RETURN COUNT(b), SUM(b.w), AVG(b.w), MIN(b.w), MAX(b.w)`, nil,
		[][]any{{int64(0), 0.0, nil, nil, nil}})
	checkRows(t, e, `UNWIND $ids AS x MATCH (a {id: x})-[:e]->(b) RETURN COUNT(b)`,
		map[string]any{"ids": []int64{}}, [][]any{{int64(0)}})
	// A grouped aggregate over no matches has no groups.
	checkRows(t, e, none+`RETURN a, COUNT(b)`, nil, nil)
}

// TestLimitStopsMatch: a plain RETURN with LIMIT and no ORDER BY returns the
// first LIMIT rows of the full answer, as it did when every tuple was
// collected first, and now stops the match there: its PROFILE intersect span
// reports fewer tuples than the full match. Stream returns the same rows.
func TestLimitStopsMatch(t *testing.T) {
	e := socialEngine(t)
	full, err := e.MatchContext(context.Background(), mustBind(t, `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p`).pat,
		engine.MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q`,
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN DISTINCT q`,
	} {
		all := run(t, e, src, nil).Rows
		const limit = 7
		if len(all) <= limit {
			t.Fatalf("%q: %d rows, too few to limit", src, len(all))
		}
		res := run(t, e, fmt.Sprintf("PROFILE %s LIMIT %d", src, limit), nil)
		if !reflect.DeepEqual(res.Rows, all[:limit]) {
			t.Errorf("%q LIMIT %d = %v, want the first rows of the full answer %v", src, limit, res.Rows, all[:limit])
		}
		tuples, ok := res.Profile.Find("intersect").Int("tuples")
		if !ok || tuples >= full.Count {
			t.Errorf("%q LIMIT %d: intersect span reports %d tuples (set: %v), want fewer than the full match's %d",
				src, limit, tuples, ok, full.Count)
		}
		q, err := Parse(fmt.Sprintf("%s LIMIT %d", src, limit))
		if err != nil {
			t.Fatal(err)
		}
		var streamed [][]any
		if err := Stream(context.Background(), e, q, nil, func(_ context.Context, row []any) error {
			streamed = append(streamed, row)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, all[:limit]) {
			t.Errorf("%q LIMIT %d streamed %v, want %v", src, limit, streamed, all[:limit])
		}
	}
}

func mustBind(t *testing.T, src string) *boundQuery {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// allocsPerTuple measures projector.add's allocations per tuple for src
// over the bank test graph's tuples.
func allocsPerTuple(t *testing.T, src string) float64 {
	t.Helper()
	e := bankEngine(t)
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MatchContext(context.Background(), b.pat, engine.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) < 1000 {
		t.Fatalf("%d tuples, too few to measure", len(res.Tuples))
	}
	p := newProjector(e.Graph(), q)
	p.pass(b, nil, nil)
	allocs := testing.AllocsPerRun(10, func() {
		for _, tuple := range res.Tuples {
			if _, err := p.add(tuple); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := allocs / float64(len(res.Tuples))
	t.Logf("%s: %.3f allocs per tuple over %d tuples", src, per, len(res.Tuples))
	return per
}

// TestPlainRowAllocs pins the streamed projection's allocations per tuple on
// the bank test graph: RETURN a, b allocates its row and boxes two ids, and
// keeps no dedup state.
func TestPlainRowAllocs(t *testing.T) {
	if per := allocsPerTuple(t, `MATCH (a:Account)-[:transfer*1..2]->(b:Account) RETURN a, b`); per > 3 {
		t.Errorf("%.3f allocs per tuple, want at most 3", per)
	}
}

// bruteForce answers q by hand over the engine's matched tuples: evaluate
// every RETURN item per tuple under each UNWIND value, then deduplicate plain
// rows or group and aggregate, then ORDER BY and LIMIT. It also returns how
// many tuples matched.
func bruteForce(t *testing.T, e *engine.Engine, q *Query, params map[string]any) ([][]any, int) {
	t.Helper()
	g := e.Graph()
	ids, w := g.Prop("id").(graph.Int64Column), g.Prop("w").(graph.Int64Column)
	values := []any{nil}
	if q.Unwind != nil {
		values = params["ids"].([]any)
	}
	// in[r][i] holds RETURN item i's argument values for input row r.
	var in [][][]any
	for _, x := range values {
		sub := map[string]any{"ids": params["ids"], "x": x}
		b, err := bind(q, sub)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.MatchContext(context.Background(), b.pat, engine.MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tuple := range res.Tuples {
			row := make([][]any, len(q.Return))
			for i, item := range q.Return {
				for _, a := range item.Args {
					var v any = x
					if a.IsLength {
						bp := b.paths[a.PathVar]
						v = minWalk(g, tuple[b.varIdx[bp.srcVar]], tuple[b.varIdx[bp.dstVar]], bp.d.KMin, bp.d.KMax)
					} else if idx, ok := b.varIdx[a.Var]; ok {
						v = ids[tuple[idx]]
						if a.Prop == "w" {
							v = w[tuple[idx]]
						}
					}
					row[i] = append(row[i], v)
				}
			}
			in = append(in, row)
		}
	}

	type groupIn struct {
		key  []any
		args [][][]any // per item: every input row's argument values
	}
	var groups []*groupIn
	byKey := map[string]*groupIn{}
	aggs := 0
	for _, item := range q.Return {
		if item.Agg != "" {
			aggs++
		}
	}
	for _, row := range in {
		var key []any
		for i, item := range q.Return {
			if item.Agg == "" {
				key = append(key, row[i][0])
			}
		}
		k := fmt.Sprint(key)
		gr, ok := byKey[k]
		if !ok {
			gr = &groupIn{key: key, args: make([][][]any, len(q.Return))}
			byKey[k] = gr
			groups = append(groups, gr)
		}
		for i := range q.Return {
			gr.args[i] = append(gr.args[i], row[i])
		}
	}
	if aggs == len(q.Return) && len(groups) == 0 {
		groups = append(groups, &groupIn{args: make([][][]any, len(q.Return))})
	}

	var out [][]any
	for _, gr := range groups {
		row := make([]any, len(q.Return))
		ki := 0
		for i, item := range q.Return {
			if item.Agg == "" {
				row[i] = gr.key[ki]
				ki++
				continue
			}
			vals := gr.args[i]
			if item.Distinct {
				seen := map[string]bool{}
				var kept [][]any
				for _, v := range vals {
					if k := fmt.Sprint(v); !seen[k] {
						seen[k] = true
						kept = append(kept, v)
					}
				}
				vals = kept
			}
			var sum float64
			var lo, hi any
			for _, v := range vals {
				n := v[0].(int64)
				sum += float64(n)
				if lo == nil || n < lo.(int64) {
					lo = n
				}
				if hi == nil || n > hi.(int64) {
					hi = n
				}
			}
			switch item.Agg {
			case "count":
				row[i] = int64(len(vals))
			case "sum":
				row[i] = sum
			case "avg":
				if len(vals) > 0 {
					row[i] = sum / float64(len(vals))
				}
			case "min":
				row[i] = lo
			case "max":
				row[i] = hi
			}
		}
		out = append(out, row)
	}

	cols := Columns(q)
	num := func(v any) float64 {
		if f, ok := v.(float64); ok {
			return f
		}
		return float64(v.(int64))
	}
	sort.SliceStable(out, func(a, b int) bool {
		for _, key := range q.OrderBy {
			ci := 0
			for cols[ci] != key.Ref {
				ci++
			}
			x, y := num(out[a][ci]), num(out[b][ci])
			if x != y {
				return (x < y) != key.Desc
			}
		}
		return false
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, len(in)
}

// minWalk is bruteForce's length() oracle: the fewest edges, at least kmin
// and at most kmax, of a directed walk over "e" edges from src to dst, or
// nil when no such walk exists.
func minWalk(g *graph.Graph, src, dst graph.VertexID, kmin, kmax int) any {
	es := g.Edges("e")
	at := map[graph.VertexID]bool{src: true} // the walks' ends after k edges
	for k := 1; k <= kmax; k++ {
		next := map[graph.VertexID]bool{}
		for v := range at {
			for _, u := range es.Neighbors(v, graph.Forward) {
				next[graph.VertexID(u)] = true
			}
		}
		if k >= kmin && next[dst] {
			return int64(k)
		}
		at = next
	}
	return nil
}

// lengthShapes lists the RETURN tails the differential test runs over a
// path variable p.
func lengthShapes() []string {
	return []string{
		"RETURN b, length(p)",
		"RETURN a, b, length(p)",
		"RETURN length(p) AS l, COUNT(a) AS c ORDER BY l ASC",
		"RETURN b, MIN(length(p)), MAX(length(p))",
	}
}

// projectionShapes lists the RETURN tails the differential test runs, each
// without and with UNWIND. ORDER BY keys are total, so the limited answer is
// unique.
func projectionShapes() []string {
	shapes := []string{
		"RETURN a, b",
		"RETURN b",
		"RETURN DISTINCT b.w",
		"RETURN a.w, b",
		"RETURN COUNT(DISTINCT a, b)",
		"RETURN COUNT(DISTINCT b), COUNT(a)",
		"RETURN b.w AS k, COUNT(DISTINCT a) AS c ORDER BY k ASC",
		"RETURN b ORDER BY b DESC LIMIT 3",
		"RETURN b, COUNT(a) AS c ORDER BY c DESC, b ASC LIMIT 3",
	}
	for _, agg := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		for _, d := range []string{"", "DISTINCT "} {
			shapes = append(shapes,
				fmt.Sprintf("RETURN %s(%sa.w)", agg, d),
				fmt.Sprintf("RETURN b, %s(%sa.w)", agg, d))
		}
	}
	return shapes
}

// TestProjectionAgainstBruteForce is a differential property test of the
// RETURN pipeline: on random small labelled graphs, every shape, with and
// without UNWIND, equals bruteForce's answer over the matched tuples, and
// every streamable shape streams the same rows as a multiset. The length()
// shapes run at kmin 1 and at kmin ≥ 2.
func TestProjectionAgainstBruteForce(t *testing.T) {
	shapes, lengths := projectionShapes(), lengthShapes()
	sorted := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = fmt.Sprint(row...)
		}
		sort.Strings(out)
		return out
	}
	runs, matched := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(14)
		var edges [][2]graph.VertexID
		for i := rng.Intn(3 * n); i >= 0; i-- {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))})
		}
		// One A→B edge (even vertices are A, odd ones B), so that every
		// graph matches the one-hop patterns and the share of runs that
		// project something does not hang on the edge draws.
		edges = append(edges, [2]graph.VertexID{graph.VertexID(2 * rng.Intn((n+1)/2)), graph.VertexID(2*rng.Intn(n/2) + 1)})
		w := make(graph.Int64Column, n)
		for v := range w {
			w[v] = int64(rng.Intn(5))
		}
		e := idGraph(t, n, edges, w)
		var ids []any
		for i := rng.Intn(5); i > 0; i-- {
			ids = append(ids, int64(100+rng.Intn(n+2))) // may repeat or miss
		}
		kmax, kmin := 1+rng.Intn(3), 2+rng.Intn(2)
		rels := []struct {
			rel    string
			shapes []string
		}{
			{fmt.Sprintf("*1..%d", kmax), shapes},
			{fmt.Sprintf("*1..%d", kmax), lengths},
			{fmt.Sprintf("*%d..%d", kmin, kmin+rng.Intn(2)), lengths},
		}
		for _, r := range rels {
			for _, shape := range r.shapes {
				for _, m := range []string{
					"MATCH p=(a:A)-[:e%s]->(b:B) ",
					"UNWIND $ids AS x MATCH p=(a:A {id: x})-[:e%s]->(b:B) ",
				} {
					src := fmt.Sprintf(m, r.rel) + shape
					q, err := Parse(src)
					if err != nil {
						t.Fatalf("parse %q: %v", src, err)
					}
					params := map[string]any{"ids": ids}
					res, err := RunContext(context.Background(), e, q, params)
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, src, err)
					}
					want, tuples := bruteForce(t, e, q, params)
					runs++
					if tuples > 0 {
						matched++
					}
					same := reflect.DeepEqual(res.Rows, want)
					if len(q.OrderBy) == 0 {
						same = reflect.DeepEqual(sorted(res.Rows), sorted(want))
					}
					if !same {
						t.Logf("seed %d: %s\n got %v\nwant %v", seed, src, res.Rows, want)
						return false
					}
					var streamed [][]any
					err = Stream(context.Background(), e, q, params, func(_ context.Context, row []any) error {
						streamed = append(streamed, row)
						return nil
					})
					if err != nil {
						t.Fatalf("stream %q: %v", src, err)
					}
					same = reflect.DeepEqual(streamed, res.Rows)
					if len(q.OrderBy) == 0 {
						same = reflect.DeepEqual(sorted(streamed), sorted(res.Rows))
					}
					if !same {
						t.Logf("seed %d: %s: streamed %v, materialized %v", seed, src, streamed, res.Rows)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	// Most runs must project something.
	if matched*2 < runs {
		t.Fatalf("only %d of %d runs matched a tuple", matched, runs)
	}
	t.Logf("%d of %d runs matched a tuple", matched, runs)
}
