package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/telemetry"
)

const analyzeQuery = `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`

// TestExplainEndpointPlanOnly pins that an EXPLAIN prefix on POST /query is
// the way to get a plan, and that the former POST /explain route is gone.
func TestExplainEndpointPlanOnly(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: "EXPLAIN " + analyzeQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan == "" {
		t.Fatal("no plan in response")
	}
	if qr.Analysis != nil {
		t.Fatal("plain EXPLAIN attached an analysis")
	}
	if len(qr.Rows) != 0 {
		t.Fatalf("EXPLAIN returned result rows: %v", qr.Rows)
	}

	resp, body = post(t, srv, "/explain", QueryRequest{Query: analyzeQuery})
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /explain status %d, want 404 or 405: %s", resp.StatusCode, body)
	}
}

// TestExplainEndpointAnalyze pins the EXPLAIN ANALYZE prefix on POST
// /query: the analysis is structured JSON, and the former body switches
// ("analyze", "profile") are unknown fields that answer 400.
func TestExplainEndpointAnalyze(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: "EXPLAIN ANALYZE " + analyzeQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Analysis == nil {
		t.Fatalf("no analysis in response: %s", body)
	}
	if len(qr.Analysis.Ops) == 0 {
		t.Fatal("analysis has no operator rows")
	}

	// The wire contract: each operator is a JSON object with named fields,
	// not a pre-rendered string.
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	analysis, ok := raw["analysis"].(map[string]any)
	if !ok {
		t.Fatalf("analysis not an object: %s", body)
	}
	ops, ok := analysis["operators"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("operators not a non-empty array: %s", body)
	}
	first, ok := ops[0].(map[string]any)
	if !ok {
		t.Fatalf("operator rows are not objects: %s", body)
	}
	if _, ok := first["op"]; !ok {
		t.Fatalf("operator row lacks op field: %v", first)
	}

	for _, field := range []string{"profile", "analyze"} {
		resp, body := post(t, srv, "/query", map[string]any{"query": analyzeQuery, field: true})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf(`body with %q: status %d, want 400: %s`, field, resp.StatusCode, body)
		}
	}
}

// TestExplainAnalyzeIsRegistered pins that EXPLAIN ANALYZE executes like
// any other query: it lands in the /debug/queries history with status ok
// and counts into vs_queries_total.
func TestExplainAnalyzeIsRegistered(t *testing.T) {
	srv, _ := testServer(t)
	const src = "EXPLAIN ANALYZE " + analyzeQuery
	total0 := scrapeCounter(t, srv, "vs_queries_total")
	resp, body := post(t, srv, "/query", QueryRequest{Query: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if total := scrapeCounter(t, srv, "vs_queries_total"); total != total0+1 {
		t.Fatalf("vs_queries_total %v -> %v, want +1", total0, total)
	}

	dresp, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dq DebugQueriesResponse
	if err := json.NewDecoder(dresp.Body).Decode(&dq); err != nil {
		t.Fatal(err)
	}
	var rec *telemetry.QueryRecord
	for i := range dq.History {
		if dq.History[i].RequestID == reqID {
			rec = &dq.History[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("EXPLAIN ANALYZE (request %s) not in history (%d records)", reqID, len(dq.History))
	}
	if rec.Status != "ok" || rec.Query != src {
		t.Fatalf("history record = %+v", rec)
	}
}

func TestQueryEndpointExplainAnalyzePrefix(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: "EXPLAIN ANALYZE " + analyzeQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Analysis == nil {
		t.Fatalf("EXPLAIN ANALYZE via /query returned no analysis: %s", body)
	}
	if len(qr.Rows) != 0 {
		t.Fatalf("EXPLAIN ANALYZE returned result rows: %v", qr.Rows)
	}

	resp, body = post(t, srv, "/query", QueryRequest{Query: "EXPLAIN " + analyzeQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	qr = QueryResponse{}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan == "" {
		t.Fatalf("EXPLAIN via /query returned no plan: %s", body)
	}
}
