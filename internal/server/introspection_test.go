package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// TestDebugQueriesHistory runs a query and asserts it lands in the
// completed-history side of GET /debug/queries, stamped with the access
// log's request id.
func TestDebugQueriesHistory(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("query response missing X-Request-Id")
	}

	dresp, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status %d", dresp.StatusCode)
	}
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
		t.Fatalf("query with request id %s not in history (%d records)", reqID, len(dq.History))
	}
	if rec.Status != "ok" || rec.Query != countQuery || rec.Rows != 1 {
		t.Fatalf("history record = %+v", rec)
	}
	if rec.ID == 0 || rec.DurationMs < 0 {
		t.Fatalf("history record not stamped: %+v", rec)
	}
}

// TestQueryCostInHistory runs a real query through a server built with
// Options{} and asserts the completed record carries attributed cost — the
// end-to-end check that exec/engine attribution lands in /debug/queries.
func TestQueryCostInHistory(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	dq, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer dq.Body.Close()
	var dbg DebugQueriesResponse
	if err := json.NewDecoder(dq.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.History) == 0 {
		t.Fatal("no completed queries in history")
	}
	rec := dbg.History[0]
	if rec.Cost.CPUMs <= 0 {
		t.Errorf("history record has no attributed CPU: %+v", rec.Cost)
	}
	if rec.Cost.MatrixBytes <= 0 && rec.Cost.CacheBytes <= 0 {
		t.Errorf("history record has no attributed matrix/cache bytes: %+v", rec.Cost)
	}
}

func TestKillUnknownQuery(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"999999999", http.StatusNotFound},
		{"not-a-number", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/"+tc.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("DELETE /debug/queries/%s status = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}
}

func TestQueryChromeTrace(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery, Trace: "chrome"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.ChromeTrace == nil || len(qr.ChromeTrace.TraceEvents) == 0 {
		t.Fatalf("chrome_trace missing or empty: %s", body)
	}
	root := qr.ChromeTrace.TraceEvents[0]
	if root.Ph != "X" || root.Ts != 0 {
		t.Fatalf("root event = %+v, want complete event at ts 0", root)
	}
	if got := root.Args["request_id"]; got != resp.Header.Get("X-Request-Id") {
		t.Fatalf("root request_id arg = %v, want %q", got, resp.Header.Get("X-Request-Id"))
	}

	// Untraced queries must not pay for (or carry) a trace.
	resp, body = post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "chrome_trace") {
		t.Fatalf("untraced response carries chrome_trace: %s", body)
	}
}

func TestQueryBadTraceFormat(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery, Trace: "zipkin"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unsupported trace format") {
		t.Fatalf("error body = %s", body)
	}
}

// TestPanicRecovery injects a panicking route and asserts the recover
// middleware converts it into a 500 with a request id, counts it, and
// keeps the server serving.
func TestPanicRecovery(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 50, NumEdges: 100, Seed: 3, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(g, session.Options{}, Options{})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	before := scrapeCounter(t, srv, "vs_panics_total")
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("panic response missing X-Request-Id")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "internal error") {
		t.Fatalf("error body = %+v", e)
	}
	if after := scrapeCounter(t, srv, "vs_panics_total"); after != before+1 {
		t.Fatalf("vs_panics_total = %v, want %v", after, before+1)
	}

	// The server survives the panic.
	resp2, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic query status %d: %s", resp2.StatusCode, body)
	}
}
