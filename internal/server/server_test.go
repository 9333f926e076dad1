package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/session"
)

func testServer(t testing.TB) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 700, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(g, session.Options{}, Options{}))
	t.Cleanup(srv.Close)
	return srv, g
}

// newServer builds a server over g the way vsserve does: through a session
// service that owns the query deadline.
func newServer(g *graph.Graph, sopts session.Options, opts Options) *Server {
	return NewWithService(session.NewService(engine.New(g, engine.Options{}), sopts), opts)
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{
		Query: `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || len(qr.Columns) != 1 {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Rows[0][0].(float64) < 0 {
		t.Fatalf("count = %v", qr.Rows[0][0])
	}
	if qr.Timings.TotalMs <= 0 {
		t.Fatalf("timings = %+v", qr.Timings)
	}
}

func TestQueryWithParams(t *testing.T) {
	srv, g := testServer(t)
	// Pick two persons that definitely have neighbors (edge endpoints),
	// so every UNWIND iteration yields a group row.
	knows := g.Edges("knows")
	a, b := knows.Edge(0)
	ids := g.Prop("id").(graph.Int64Column)
	idA, idB := float64(ids[a]), float64(ids[b])

	resp, body := post(t, srv, "/query", QueryRequest{
		Query:  `MATCH (p:Person {id:$id})-[:knows*1..2]-(q:Person) RETURN DISTINCT q`,
		Params: map[string]any{"id": idA},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// UNWIND with an integral JSON list.
	resp, body = post(t, srv, "/query", QueryRequest{
		Query:  `UNWIND $ids AS pid MATCH (p:Person {id:pid})-[:knows*2..3]-(q:Person) RETURN pid, COUNT(DISTINCT q)`,
		Params: map[string]any{"ids": []any{idA, idB}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unwind status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("unwind rows = %d", len(qr.Rows))
	}
}

func TestQueryErrors(t *testing.T) {
	srv, _ := testServer(t)
	for _, c := range []struct {
		body   any
		status int
	}{
		{QueryRequest{Query: ""}, http.StatusBadRequest},
		{QueryRequest{Query: "MATCH oops"}, http.StatusBadRequest},
		{QueryRequest{Query: "MATCH (p:NoSuchLabel)-[:knows]-(q) RETURN q"}, http.StatusUnprocessableEntity},
		{map[string]any{"nope": 1}, http.StatusBadRequest},
	} {
		resp, body := post(t, srv, "/query", c.body)
		if resp.StatusCode != c.status {
			t.Errorf("body %v: status %d (%s), want %d", c.body, resp.StatusCode, body, c.status)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("body %v: no error message (%s)", c.body, body)
		}
	}
}

// TestQueryStreamNDJSON drives {"stream": true} through ServeHTTP with a
// four-row fetch batch: the NDJSON header marks the query streaming, the
// rows span several batches and match the materialized response, the
// trailer counts them, and the response was flushed through the
// access-log wrapper as batches arrived.
func TestQueryStreamNDJSON(t *testing.T) {
	base, _ := testServer(t)
	eng := base.Config.Handler.(*Server).svc.Engine()
	s := NewWithService(session.NewService(eng, session.Options{FetchBatch: 4}), Options{})
	const query = `MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q`
	serve := func(body QueryRequest) *httptest.ResponseRecorder {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(raw)))
		return rec
	}
	// canon re-encodes one JSON row so streamed and materialized rows
	// compare as text.
	canon := func(row []any) string {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	rec := serve(QueryRequest{Query: query, Stream: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	if !rec.Flushed {
		t.Error("stream response was never flushed")
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream body has %d lines: %s", len(lines), rec.Body)
	}
	var hdr streamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	if !hdr.Streaming || !reflect.DeepEqual(hdr.Columns, []string{"p", "q"}) {
		t.Fatalf("header = %+v, want streaming columns [p q]", hdr)
	}
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	var got []string
	for _, line := range lines[1 : len(lines)-1] {
		var row []any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		got = append(got, canon(row))
	}
	if len(got) <= 4 {
		t.Fatalf("streamed %d rows; need more than one 4-row fetch batch", len(got))
	}
	if tr.Summary == nil || tr.Summary.Rows != int64(len(got)) {
		t.Fatalf("trailer = %s, want rows=%d", lines[len(lines)-1], len(got))
	}

	plain := serve(QueryRequest{Query: query})
	if plain.Code != http.StatusOK {
		t.Fatalf("plain status %d: %s", plain.Code, plain.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range qr.Rows {
		want = append(want, canon(row))
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed rows differ from the materialized response:\ngot  %v\nwant %v", got, want)
	}

	// An execution error arrives in the trailer, after the 200 and the
	// header, whatever the query's shape; an aggregate's header says it
	// holds its groups.
	for _, bad := range []string{
		`MATCH (p:NoSuchLabel)-[:knows]-(q) RETURN p, q`,
		`MATCH (p:NoSuchLabel)-[:knows]-(q) RETURN q, COUNT(p)`,
	} {
		rec := serve(QueryRequest{Query: bad, Stream: true})
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var hdr streamHeader
		var tr streamTrailer
		if rec.Code != http.StatusOK || len(lines) != 2 ||
			json.Unmarshal([]byte(lines[0]), &hdr) != nil || json.Unmarshal([]byte(lines[1]), &tr) != nil {
			t.Fatalf("%s: status %d, body %s; want 200, a header and a trailer", bad, rec.Code, rec.Body)
		}
		if tr.Error == "" || hdr.Streaming != strings.HasSuffix(bad, "p, q") {
			t.Fatalf("%s: header %+v, trailer %s; want the error in the trailer", bad, hdr, lines[1])
		}
	}

	// The cursor behind the stream carries rows only, so a plan, an
	// analysis or a span tree is an error, never an empty 200.
	for _, prefix := range []string{"PROFILE ", "EXPLAIN ", "EXPLAIN ANALYZE "} {
		if bad := serve(QueryRequest{Query: prefix + query, Stream: true}); bad.Code != http.StatusUnprocessableEntity {
			t.Fatalf("stream+%sstatus %d, want 422: %s", prefix, bad.Code, bad.Body)
		}
	}
	if bad := serve(QueryRequest{Query: query, Stream: true, Trace: "chrome"}); bad.Code != http.StatusBadRequest {
		t.Fatalf("stream+trace status %d, want 400: %s", bad.Code, bad.Body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{
		Query: `EXPLAIN MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qr.Plan, "Join order") {
		t.Fatalf("plan = %q", qr.Plan)
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.NumVertices != 200 || st.NumEdges != 700 {
		t.Fatalf("stats = %+v", st)
	}
	if st.VertexLabels["Person"] != 200 || st.EdgeLabels["knows"] != 700 {
		t.Fatalf("label counts = %+v", st)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", h.StatusCode)
	}

	// Wrong method rejected by routing.
	resp2, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp2.StatusCode)
	}
}

func TestNormalizeValue(t *testing.T) {
	cases := []struct {
		name     string
		in, want any
	}{
		{"integral float", 42.0, int64(42)},
		{"fractional float", 1.5, 1.5},
		{"string", "x", "x"},
		{"int list", []any{1.0, 2.0}, []int64{1, 2}},
		{"mixed list normalizes elements", []any{1.0, "a"}, []any{int64(1), "a"}},
		{"fractional list", []any{1.5}, []any{1.5}},
		{"nested list", []any{[]any{1.0, 2.0}, "a"}, []any{[]int64{1, 2}, "a"}},
		{"object", map[string]any{"n": 3.0, "s": "x"}, map[string]any{"n": int64(3), "s": "x"}},
		{"object in list", []any{map[string]any{"n": 3.0}}, []any{map[string]any{"n": int64(3)}}},
		{"list in object", map[string]any{"ids": []any{7.0, 8.0}}, map[string]any{"ids": []int64{7, 8}}},
		{"deep nesting", map[string]any{"a": map[string]any{"b": []any{[]any{9.0}}}},
			map[string]any{"a": map[string]any{"b": []any{[]int64{9}}}}},
		{"bool and null survive", []any{true, nil, 0.5}, []any{true, nil, 0.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := normalizeValue(c.in); !reflect.DeepEqual(got, c.want) {
				t.Errorf("normalizeValue(%#v) = %#v, want %#v", c.in, got, c.want)
			}
		})
	}
}
