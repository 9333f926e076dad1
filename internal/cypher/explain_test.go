package cypher

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

const triangleSrc = `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`

func TestParseExplainFlags(t *testing.T) {
	q, err := Parse("EXPLAIN " + triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain || q.Analyze {
		t.Fatalf("EXPLAIN parsed as Explain=%v Analyze=%v", q.Explain, q.Analyze)
	}

	q, err = Parse("EXPLAIN ANALYZE " + triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain || !q.Analyze {
		t.Fatalf("EXPLAIN ANALYZE parsed as Explain=%v Analyze=%v", q.Explain, q.Analyze)
	}

	q, err = Parse(triangleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain || q.Analyze {
		t.Fatalf("plain query parsed as Explain=%v Analyze=%v", q.Explain, q.Analyze)
	}

	if _, err := Parse("EXPLAIN PROFILE " + triangleSrc); err == nil {
		t.Fatal("EXPLAIN PROFILE accepted")
	}
}

func TestRunExplainReturnsPlanWithoutExecuting(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, "EXPLAIN "+triangleSrc, nil)
	if res.Plan == "" {
		t.Fatal("EXPLAIN returned no plan")
	}
	if len(res.Rows) != 0 || len(res.Columns) != 0 {
		t.Fatalf("EXPLAIN executed the query: %d rows, %d columns", len(res.Rows), len(res.Columns))
	}
	if res.Analysis != nil {
		t.Fatal("plain EXPLAIN attached an analysis")
	}
}

func TestRunExplainAnalyze(t *testing.T) {
	e := socialEngine(t)
	res := run(t, e, "EXPLAIN ANALYZE "+triangleSrc, nil)
	a := res.Analysis
	if a == nil {
		t.Fatal("EXPLAIN ANALYZE returned no analysis")
	}
	if a.Count <= 0 {
		t.Fatalf("analysis count = %d, want > 0", a.Count)
	}
	kinds := map[string]int{}
	for _, op := range a.Ops {
		kinds[op.Op]++
	}
	if kinds["scan"] != 2 || kinds["expand"] != 1 {
		t.Fatalf("operator kinds = %v, want 2 scans and 1 expand", kinds)
	}
	if out := a.Render(); !strings.Contains(out, "est/act") || !strings.Contains(out, "expand") {
		t.Fatalf("render lacks est/act table:\n%s", out)
	}
}

func TestAnalyzeQueryRejections(t *testing.T) {
	e := socialEngine(t)
	cases := []struct {
		src    string
		params map[string]any
	}{
		{`EXPLAIN ANALYZE UNWIND $ids AS x MATCH (p {id:x})-[:knows]-(q) RETURN x, COUNT(DISTINCT q)`,
			map[string]any{"ids": []int64{1000, 1001}}},
		{`EXPLAIN ANALYZE MATCH (a:Person{id:1000}), (b:Person{id:1005}), p=shortestPath((a)-[:knows*1..]-(b)) RETURN length(p)`, nil},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %s: %v", c.src, err)
		}
		if _, err := RunContext(context.Background(), e, q, c.params); err == nil {
			t.Errorf("EXPLAIN ANALYZE accepted: %s", c.src)
		}
	}
}

// TestAnalyzeMatchesProfile pins that EXPLAIN ANALYZE reads the run PROFILE
// records: for each query shape, every expand row's actual equals the pairs
// of PROFILE's span for that pattern edge, and the intersect and aggregate
// rows' actuals equal the tuples of PROFILE's spans. With LIMIT the match
// stops early on both.
func TestAnalyzeMatchesProfile(t *testing.T) {
	e := bankEngine(t)
	const match = `MATCH (a:Account)-[:transfer*1..2]->(b:Account) `
	for _, src := range []string{
		match + `RETURN a, b`,
		match + `RETURN a, b LIMIT 2`,
		match + `RETURN DISTINCT b`,
		match + `RETURN b, COUNT(a) AS c ORDER BY c DESC, b LIMIT 3`,
		match + `RETURN COUNT(DISTINCT a, b)`,
		`MATCH (a:Account) RETURN a`,
	} {
		a := run(t, e, "EXPLAIN ANALYZE "+src, nil).Analysis
		profile := run(t, e, "PROFILE "+src, nil).Profile
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, plan, err := planQuery(e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		pairs := map[int64]int64{}
		for _, sp := range profile.ByName("expand") {
			edge, _ := sp.Int("edge")
			pairs[edge], _ = sp.Int("pairs")
		}
		expands := 0
		for _, op := range a.Ops {
			want, ok := int64(-1), false
			switch op.Op {
			case "expand":
				want, ok = pairs[int64(plan.Edges[expands].PatternEdge)]
				expands++
			case "intersect", "aggregate":
				want, ok = profile.Find(op.Op).Int("tuples")
			default:
				continue
			}
			if !ok || op.ActualRows != want {
				t.Errorf("%s: %s %q actual %d, PROFILE says %d (recorded: %v)", src, op.Op, op.Detail, op.ActualRows, want, ok)
			}
		}
		if expands != len(pairs) {
			t.Errorf("%s: %d expand rows, PROFILE has %d expand spans", src, expands, len(pairs))
		}
		for _, name := range []string{"intersect", "aggregate"} {
			if hasOp(a, name) != (profile.Find(name) != nil) {
				t.Errorf("%s: %s row present %v, PROFILE span present %v", src, name, hasOp(a, name), profile.Find(name) != nil)
			}
		}
	}
}

func hasOp(a *engine.Analysis, name string) bool {
	for _, op := range a.Ops {
		if op.Op == name {
			return true
		}
	}
	return false
}

// underTrace runs src with a caller's trace on the context, as vsquery
// -trace-out and the server's slow-query log do, and returns the result and
// the caller's span tree.
func underTrace(t *testing.T, src string) (*Result, *telemetry.SpanSnapshot) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := telemetry.NewTrace(context.Background(), "outer")
	res, err := RunContext(ctx, socialEngine(t), q, nil)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	return res, root.Snapshot()
}

// TestProfileUnderCallerTrace pins that PROFILE fills Result.Profile when
// the caller already traces the context: its query span nests under the
// caller's, and carries the operator spans.
func TestProfileUnderCallerTrace(t *testing.T) {
	res, outer := underTrace(t, "PROFILE "+triangleSrc)
	if res.Profile == nil || res.Profile.Name != "query" {
		t.Fatalf("Profile = %+v, want the query span", res.Profile)
	}
	if len(outer.Children) != 1 || outer.Children[0].Name != "query" {
		t.Fatalf("caller's trace children = %+v, want the one query span", outer.Children)
	}
	if res.Profile.Find("intersect") == nil || len(res.Rows) != 1 {
		t.Fatalf("PROFILE under a trace: %d rows, span tree\n%s", len(res.Rows), res.Profile.Render())
	}
}

// TestExplainAnalyzeUnderExistingTrace pins nesting: when the caller
// already traces the context, EXPLAIN ANALYZE attaches its query span under
// it instead of starting a new trace, and still extracts a complete table.
func TestExplainAnalyzeUnderExistingTrace(t *testing.T) {
	res, outer := underTrace(t, "EXPLAIN ANALYZE "+triangleSrc)
	a := res.Analysis
	if a.Profile.Name != "query" {
		t.Fatalf("analysis rooted at %q, want the analyze-owned query span", a.Profile.Name)
	}
	if outer.Find("query") == nil {
		t.Fatal("analyze span not nested under the caller's trace")
	}
	if got := len(a.Ops); got == 0 {
		t.Fatal("no operator rows under an existing trace")
	}
}
