package engine

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/pattern"
	"repro/internal/telemetry"
)

func trianglePattern(kmax int) *pattern.Pattern {
	d := knowsDet(1, kmax)
	return &pattern.Pattern{
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
}

// analyze runs pat under a new trace, as a PROFILE or EXPLAIN ANALYZE query
// does, and joins the run's spans to the plan it executed.
func analyze(t *testing.T, e *Engine, pat *pattern.Pattern, opts MatchOptions) *Analysis {
	t.Helper()
	ctx, root := telemetry.NewTrace(context.Background(), "query")
	res, err := e.MatchContext(ctx, pat, opts)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(pat, res.Plan, root.Snapshot())
}

// TestExplainAnalyzeJoinsEstimatesAndActuals is the regression test for
// the estimate→actual join on a fixed query: the fig-6-style community
// triangle. It pins the operator sequence, that each expand row carries
// the plan's EstPairs on one side and the span's measured pair count on
// the other, and that the error ratio is their quotient.
func TestExplainAnalyzeJoinsEstimatesAndActuals(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	pat := trianglePattern(2)

	a := analyze(t, e, pat, MatchOptions{CountOnly: true})
	if a.Count <= 0 {
		t.Fatalf("Count = %d, want > 0 (the triangle query matches on the social graph)", a.Count)
	}
	if a.Profile == nil {
		t.Fatal("Profile span tree missing")
	}

	// Operator sequence: plan, one scan per vertex, one expand per edge,
	// intersect, aggregate.
	var kinds []string
	for _, op := range a.Ops {
		kinds = append(kinds, op.Op)
	}
	want := []string{"plan", "scan", "scan", "scan", "expand", "expand", "expand", "intersect", "aggregate"}
	if len(kinds) != len(want) {
		t.Fatalf("operator kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("operator %d = %s, want %s (full: %v)", i, kinds[i], want[i], kinds)
		}
	}

	// Scan rows are exact by construction: est == actual, ratio 1.
	for _, op := range a.Ops[1:4] {
		if op.EstRows != float64(op.ActualRows) {
			t.Fatalf("scan %q est %.0f != actual %d", op.Detail, op.EstRows, op.ActualRows)
		}
		if op.ActualRows > 0 && op.ErrRatio != 1 {
			t.Fatalf("scan %q ratio = %v, want 1", op.Detail, op.ErrRatio)
		}
	}

	// Expand rows: estimates come verbatim from the plan, actuals from the
	// expand spans' pairs attribute, the ratio is their quotient.
	rerun, err := e.MatchContext(context.Background(), pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	expandSpans := a.Profile.ByName("expand")
	if len(expandSpans) != len(pat.Edges) {
		t.Fatalf("expand spans = %d, want %d", len(expandSpans), len(pat.Edges))
	}
	spanPairs := map[int64]int64{}
	for _, es := range expandSpans {
		edge, ok := es.Int("edge")
		if !ok {
			t.Fatalf("expand span lacks edge attr: %+v", es.Attrs)
		}
		pairs, ok := es.Int("pairs")
		if !ok {
			t.Fatalf("expand span lacks pairs attr: %+v", es.Attrs)
		}
		spanPairs[edge] = pairs
	}
	memoStates := map[string]int{}
	for i, op := range a.Ops[4:7] {
		pe := rerun.Plan.Edges[i]
		// The planner is deterministic on a fixed graph and pattern, so
		// the rerun's plan is the analyzed plan.
		if op.EstRows != pe.EstPairs {
			t.Fatalf("expand %d est %.2f, plan says %.2f", i, op.EstRows, pe.EstPairs)
		}
		wantPairs, ok := spanPairs[int64(pe.PatternEdge)]
		if !ok {
			t.Fatalf("no span for pattern edge %d", pe.PatternEdge)
		}
		if op.ActualRows != wantPairs {
			t.Fatalf("expand %d actual %d, span says %d", i, op.ActualRows, wantPairs)
		}
		if op.ActualRows <= 0 {
			t.Fatalf("expand %d actual %d, want > 0 on this graph", i, op.ActualRows)
		}
		if got, want := op.ErrRatio, op.EstRows/float64(op.ActualRows); math.Abs(got-want) > 1e-9 {
			t.Fatalf("expand %d ratio %.6f, want %.6f", i, got, want)
		}
		if op.Kernel == "" {
			t.Fatalf("expand %d missing kernel", i)
		}
		if op.Memo != "hit" && op.Memo != "miss" {
			t.Fatalf("expand %d memo = %q", i, op.Memo)
		}
		memoStates[op.Memo]++
	}
	// The symmetric triangle must produce both memo states, and the
	// memo-hit rows must still carry actual cardinalities (the hit path
	// sets pairs explicitly since no ExpandContext runs).
	if memoStates["hit"] == 0 || memoStates["miss"] == 0 {
		t.Fatalf("memo states = %v, want both hit and miss", memoStates)
	}

	// Intersect and aggregate carry measured tuples but no estimate.
	for _, op := range a.Ops[7:] {
		if op.EstRows != -1 {
			t.Fatalf("%s est = %v, want -1 (no planner estimate)", op.Op, op.EstRows)
		}
		if op.ActualRows < 0 {
			t.Fatalf("%s actual missing", op.Op)
		}
	}

	// Render includes a header and one line per operator plus the footer.
	if out := a.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestExplainAnalyzeActualsMatchProfile pins the acceptance criterion
// directly: the analyze table's actuals equal the pair counts a separate
// PROFILE-style traced run records for the same query.
func TestExplainAnalyzeActualsMatchProfile(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	pat := trianglePattern(2)

	a := analyze(t, e, pat, MatchOptions{CountOnly: true})

	ctx, root := telemetry.NewTrace(context.Background(), "query")
	if _, err := e.MatchContext(ctx, pat, MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}
	root.End()
	profile := root.Snapshot()

	profilePairs := map[int64]int64{}
	for _, es := range profile.ByName("expand") {
		edge, _ := es.Int("edge")
		pairs, _ := es.Int("pairs")
		profilePairs[edge] = pairs
	}
	rerun, err := e.MatchContext(context.Background(), pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	expandOps := 0
	for _, op := range a.Ops {
		if op.Op != "expand" {
			continue
		}
		pe := rerun.Plan.Edges[expandOps]
		if want := profilePairs[int64(pe.PatternEdge)]; op.ActualRows != want {
			t.Fatalf("edge %d: analyze actual %d != profile pairs %d", pe.PatternEdge, op.ActualRows, want)
		}
		expandOps++
	}
	if expandOps != len(pat.Edges) {
		t.Fatalf("analyze produced %d expand rows, want %d", expandOps, len(pat.Edges))
	}
}

// TestAnalysisJSONRoundTrip pins the HTTP contract: the analysis marshals
// (no Inf/NaN anywhere) and each operator arrives as a struct.
func TestAnalysisJSONRoundTrip(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	a := analyze(t, e, trianglePattern(2), MatchOptions{CountOnly: true})
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("analysis does not marshal: %v", err)
	}
	var back Analysis
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != len(a.Ops) {
		t.Fatalf("round trip lost operators: %d != %d", len(back.Ops), len(a.Ops))
	}
	for i, op := range back.Ops {
		if op.Op != a.Ops[i].Op || op.ActualRows != a.Ops[i].ActualRows {
			t.Fatalf("operator %d changed in round trip: %+v vs %+v", i, op, a.Ops[i])
		}
		if math.IsInf(op.ErrRatio, 0) || math.IsNaN(op.ErrRatio) {
			t.Fatalf("operator %d has non-finite ratio", i)
		}
	}
}

// TestExplainAnalyzeSingleVertex pins the degenerate path: a one-vertex
// pattern has no expands or joins, just the plan, its scan and the hand-off.
func TestExplainAnalyzeSingleVertex(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	pat := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "p", Labels: []string{"SIGA"}}}}
	a := analyze(t, e, pat, MatchOptions{})
	if a.Count <= 0 {
		t.Fatalf("Count = %d, want the SIGA candidate count", a.Count)
	}
	var scans int
	for _, op := range a.Ops {
		if op.Op == "expand" || op.Op == "intersect" {
			t.Fatalf("unexpected %s row on a single-vertex pattern", op.Op)
		}
		if op.Op == "scan" {
			scans++
			if op.ActualRows != a.Count {
				t.Fatalf("scan actual %d != count %d", op.ActualRows, a.Count)
			}
		}
	}
	if scans != 1 {
		t.Fatalf("scan rows = %d, want 1", scans)
	}
}
