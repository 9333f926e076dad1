package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/session"
)

const countQuery = `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`

// scrapeCounter reads one un-labeled counter value from /metrics.
func scrapeCounter(t *testing.T, srv *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, buf.String())
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsEndpoint pins the exposition contract of GET /metrics: valid
// Prometheus text format with HELP/TYPE lines, per-stage histograms, and a
// query counter that moves when POST /query runs.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)

	before := scrapeCounter(t, srv, "vs_queries_total")
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	after := scrapeCounter(t, srv, "vs_queries_total")
	if after < before+1 {
		t.Fatalf("vs_queries_total %v -> %v, want +1", before, after)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE vs_queries_total counter",
		"# TYPE vs_queries_in_flight gauge",
		"# TYPE vs_query_stage_seconds histogram",
		`vs_query_stage_seconds_bucket{stage="total",le="+Inf"}`,
		`vs_query_stage_seconds_count{stage="expand"}`,
		`vs_query_stage_seconds_sum{stage="intersect"}`,
		"# TYPE vs_matrix_cache_hits_total counter",
		"# TYPE vs_matrix_cache_evictions_total counter",
		"# TYPE vs_matrix_cache_bytes gauge",
		"# TYPE vs_exec_parallel_expands counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestQueryProfile pins the PROFILE surface of POST /query: the PROFILE
// keyword returns the operator span tree, and its children's durations sum
// to no more than the root's.
func TestQueryProfile(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: "PROFILE " + countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Profile == nil {
		t.Fatal("no profile in response")
	}
	if qr.Profile.Name != "query" {
		t.Fatalf("profile root = %q, want query", qr.Profile.Name)
	}
	names := map[string]bool{}
	var sum float64
	for _, c := range qr.Profile.Children {
		sum += c.DurationMs
		names[c.Name] = true
	}
	if sum > qr.Profile.DurationMs*1.01+0.1 {
		t.Fatalf("children sum %.3fms > root %.3fms", sum, qr.Profile.DurationMs)
	}
	for _, want := range []string{"plan", "expand", "intersect"} {
		if !names[want] {
			t.Fatalf("profile missing %q span; got %v", want, names)
		}
	}

	// Without the keyword, the profile field stays absent.
	resp, body = post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte(`"profile"`)) {
		t.Fatalf("unexpected profile in plain response: %s", body)
	}
}

// TestRequestBodyLimit pins the MaxBytesReader satellite: an oversized body
// returns 400 with a clear error, not a connection reset or a 500.
func TestRequestBodyLimit(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 50, NumEdges: 100, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(g, session.Options{}, Options{MaxRequestBytes: 256}))
	defer srv.Close()

	big, err := json.Marshal(QueryRequest{Query: strings.Repeat("x", 1024)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", resp.StatusCode, buf.String())
	}
	if !strings.Contains(buf.String(), "request body exceeds 256 bytes") {
		t.Fatalf("error body = %s", buf.String())
	}

	// A body under the limit still works.
	resp2, body2 := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small body status %d: %s", resp2.StatusCode, body2)
	}
}

// TestRequestIDAndAccessLog pins the operational wiring: every response
// carries a distinct X-Request-Id and, with a Logger set, one access-log
// record naming it.
func TestRequestIDAndAccessLog(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 50, NumEdges: 100, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	srv := httptest.NewServer(newServer(g, session.Options{}, Options{Logger: logger}))
	defer srv.Close()

	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" || ids[id] {
			t.Fatalf("request %d: X-Request-Id = %q (seen: %v)", i, id, ids)
		}
		ids[id] = true
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "path=/healthz") || !strings.Contains(logs, "status=200") {
		t.Fatalf("access log missing request record:\n%s", logs)
	}
	for id := range ids {
		if !strings.Contains(logs, "id="+id) {
			t.Fatalf("access log missing id %s:\n%s", id, logs)
		}
	}
}

// TestSlowQueryLog pins the -slow-query wiring: a query over the threshold
// logs its span tree.
func TestSlowQueryLog(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 700, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	srv := httptest.NewServer(newServer(g, session.Options{}, Options{
		Logger:    logger,
		SlowQuery: time.Nanosecond, // everything is slow
	}))
	defer srv.Close()

	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "slow query") {
		t.Fatalf("no slow-query record:\n%s", logs)
	}
	if !strings.Contains(logs, "intersect") {
		t.Fatalf("slow-query record has no span tree:\n%s", logs)
	}
}

// TestTimingsWallTime pins the toTimings fix: TotalMs is end-to-end wall
// time, so it is at least as large as every engine-reported stage. The COUNT
// fast path, a plain RETURN and a grouped one each report their scan and
// expand: the last two stream the engine's tuples into the projector.
func TestTimingsWallTime(t *testing.T) {
	srv, _ := testServer(t)
	for _, src := range []string{
		countQuery,
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q`,
		`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN q, COUNT(p) AS c`,
	} {
		resp, body := post(t, srv, "/query", QueryRequest{Query: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", src, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		tm := qr.Timings
		if tm.TotalMs <= 0 || tm.ScanMs <= 0 || tm.ExpandMs <= 0 {
			t.Fatalf("%q: TotalMs = %v, ScanMs = %v, ExpandMs = %v", src, tm.TotalMs, tm.ScanMs, tm.ExpandMs)
		}
		for name, stage := range map[string]float64{
			"scan": tm.ScanMs, "expand": tm.ExpandMs, "update_visit": tm.UpdateVisitMs,
			"intersect": tm.IntersectMs, "aggregate": tm.AggregateMs,
		} {
			if stage > tm.TotalMs {
				t.Errorf("%q: %s %.3fms exceeds wall total %.3fms", src, name, stage, tm.TotalMs)
			}
		}
	}
}
