package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// collectSpans flattens a snapshot tree into name → snapshots.
func collectSpans(s *telemetry.SpanSnapshot, out map[string][]*telemetry.SpanSnapshot) {
	out[s.Name] = append(out[s.Name], s)
	for _, c := range s.Children {
		collectSpans(c, out)
	}
}

// TestMatchSpanTree pins the tentpole tracing contract: a Match under a
// trace emits one plan span, one expand span per pattern edge (annotated
// with the kernel and memo state), one intersect span, and an aggregate
// span — and every child's window falls inside its parent's. (Sibling
// durations may sum past the parent: the scheduler overlaps independent
// expands, so the old sum-of-children check no longer holds.)
func TestMatchSpanTree(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	d := knowsDet(1, 2)
	// All three edges share one determiner, so the pattern-symmetry memo
	// (§2.3.2) must answer at least one expansion for free.
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

	ctx, root := telemetry.NewTrace(context.Background(), "query")
	if _, err := e.MatchContext(ctx, pat, MatchOptions{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	snap := root.Snapshot()

	byName := map[string][]*telemetry.SpanSnapshot{}
	collectSpans(snap, byName)

	if n := len(byName["plan"]); n != 1 {
		t.Fatalf("plan spans = %d, want 1", n)
	}
	if n := len(byName["expand"]); n != len(pat.Edges) {
		t.Fatalf("expand spans = %d, want %d (one per edge)", n, len(pat.Edges))
	}
	if n := len(byName["intersect"]); n != 1 {
		t.Fatalf("intersect spans = %d, want 1", n)
	}
	if n := len(byName["aggregate"]); n != 1 {
		t.Fatalf("aggregate spans = %d, want 1", n)
	}

	// Every expand span carries memo state, kernel, and source count; with
	// a fully symmetric triangle at least one must be a memo hit and at
	// least one a miss.
	hits, misses := 0, 0
	for _, es := range byName["expand"] {
		switch es.Attrs["memo"] {
		case "hit":
			hits++
		case "miss":
			misses++
		default:
			t.Fatalf("expand span without memo attribute: %+v", es.Attrs)
		}
		if k, ok := es.Attrs["kernel"].(string); !ok || k == "" {
			t.Fatalf("expand span without kernel attribute: %+v", es.Attrs)
		}
		if _, ok := es.Attrs["sources"]; !ok {
			t.Fatalf("expand span without sources attribute: %+v", es.Attrs)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("memo hits = %d, misses = %d; want both > 0", hits, misses)
	}

	// Span windows must nest: every child starts no earlier and ends no
	// later than its parent (small slack: start/end are captured on
	// different goroutines under concurrent scheduling).
	const slackNs = int64(2e6)
	var checkNesting func(s *telemetry.SpanSnapshot)
	checkNesting = func(s *telemetry.SpanSnapshot) {
		for _, c := range s.Children {
			if c.StartUnixNs+slackNs < s.StartUnixNs {
				t.Fatalf("span %q child %q starts %dns before parent", s.Name, c.Name, s.StartUnixNs-c.StartUnixNs)
			}
			if c.EndUnixNs() > s.EndUnixNs()+slackNs {
				t.Fatalf("span %q child %q ends %dns after parent", s.Name, c.Name, c.EndUnixNs()-s.EndUnixNs())
			}
			checkNesting(c)
		}
	}
	checkNesting(snap)
}

// TestMatchWithoutTraceEmitsNoSpans pins the disabled path: without a trace
// in the context, Match runs and CurrentSpan stays nil throughout.
func TestMatchWithoutTraceEmitsNoSpans(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
		},
		Edges: []pattern.Edge{{Src: "a", Dst: "b", D: knowsDet(1, 2)}},
	}
	if _, err := e.MatchContext(context.Background(), pat, MatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if sp := telemetry.CurrentSpan(context.Background()); sp != nil {
		t.Fatalf("CurrentSpan on background context = %v, want nil", sp)
	}
}

// TestStreamedMatchSameOperatorRows pins that a streamed match is the
// materialized execution with a consumer plugged in: under a trace, both
// record spans that join into the same EXPLAIN ANALYZE operator rows, wall
// times aside.
func TestStreamedMatchSameOperatorRows(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGB"}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: knowsDet(1, 2)}},
	}
	traced := func(run func(ctx context.Context) error) *telemetry.SpanSnapshot {
		t.Helper()
		ctx, root := telemetry.NewTrace(context.Background(), "query")
		err := run(ctx)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		return root.Snapshot()
	}
	var res *MatchResult
	materialized := traced(func(ctx context.Context) (err error) {
		res, err = e.MatchContext(ctx, pat, MatchOptions{})
		return err
	})
	streamed := traced(func(ctx context.Context) error {
		return e.MatchForEachOpts(ctx, pat, MatchOptions{}, func([]graph.VertexID) {})
	})
	rows := func(snap *telemetry.SpanSnapshot) []AnalyzedOp {
		ops := joinPlanAndSpans(pat, res, snap)
		for i := range ops {
			ops[i].TimeMs = 0
		}
		return ops
	}
	want, got := rows(materialized), rows(streamed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed match rows\n%+v\nmaterialized match rows\n%+v", got, want)
	}
	kinds := map[string]int{}
	for _, op := range want {
		if op.ActualRows > 0 {
			kinds[op.Op]++
		}
	}
	if kinds["scan"] != 2 || kinds["expand"] != 1 || kinds["intersect"] != 1 || kinds["aggregate"] != 1 {
		t.Fatalf("operator rows with actuals %v, want 2 scans, 1 expand, intersect, aggregate: %+v", kinds, want)
	}
}
