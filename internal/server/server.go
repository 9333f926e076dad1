// Package server exposes a loaded graph as a read-only HTTP query service.
// VertexSurge is a read-only VLGPM engine (§2.3.1), which makes the service
// surface small: run queries, explain plans, inspect the graph, observe
// the engine.
//
// Endpoints:
//
//	POST /query    {"query": "...", "params": {...}, "trace": "chrome"}  → {"columns": [...], "rows": [...], "timings": {...}, "chrome_trace": {...}}
//	POST /query    {"query": "...", "stream": true}   → NDJSON: a {"columns": [...]} line, one JSON array per row, a final {"summary": ...} or {"error": ...} line
//	GET  /stats                                       → graph statistics
//	GET  /metrics                                     → Prometheus text exposition (engine + Go runtime)
//	GET  /healthz                                     → 200 ok
//	GET  /debug/queries                               → in-flight queries (live progress) + completed history
//	DELETE /debug/queries/{id}                        → kill the in-flight query with that id
//
// The query text is the only switch for plans and profiles: an EXPLAIN
// prefix answers {"plan": ...} without executing, EXPLAIN ANALYZE
// {"analysis": {"operators": [...]}}, PROFILE adds {"profile": {...}} to
// the rows. {"stream": true} carries rows only and refuses all three.
//
// /metrics is the only numeric surface: rates, quantiles and alerting are
// the scraper's job over the counters and histograms it exposes.
//
// Request bodies are bounded (Options.MaxRequestBytes, default 1 MiB).
// With Options.Logger set, every request emits one structured access-log
// line carrying a request ID (also returned as X-Request-Id); queries
// slower than Options.SlowQuery additionally log their full operator span
// tree.
//
// The server is a transport front end: queries execute through a
// session.Service (shared with the wire-protocol listener), never by
// calling the cypher execution entry points directly. The classic JSON
// response collects its rows through Service.Execute; {"stream": true}
// opens a per-request session and drives a cursor batch-by-batch, so a
// streamable query's server-side result memory stays bounded at one fetch
// batch however large the result.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// DefaultMaxRequestBytes bounds POST bodies unless overridden: 1 MiB is
// orders of magnitude above any real query text.
const DefaultMaxRequestBytes = 1 << 20

// Options configures the operational surface of a Server.
type Options struct {
	// Logger, when non-nil, receives one structured access-log record per
	// request and the slow-query reports.
	Logger *slog.Logger
	// SlowQuery, when > 0, traces every query and logs the full operator
	// span tree of any query whose end-to-end wall time exceeds it.
	SlowQuery time.Duration
	// MaxRequestBytes bounds request bodies; 0 = DefaultMaxRequestBytes.
	MaxRequestBytes int64
}

// Server is an http.Handler serving VLGPM queries over one graph.
type Server struct {
	svc   *session.Service
	mux   *http.ServeMux
	opts  Options
	reqID atomic.Uint64
}

// NewWithService returns a server executing through svc, so the HTTP and
// wire transports share one service (and so one QueryTimeout, cursor batch
// size, and accountant). An exceeded QueryTimeout answers 504.
func NewWithService(svc *session.Service, opts Options) *Server {
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = DefaultMaxRequestBytes
	}
	// Publish the Go runtime's health (goroutines, heap, GC) and the build
	// identity next to the engine metrics; idempotent across servers.
	telemetry.RegisterRuntimeMetrics()
	s := &Server{svc: svc, mux: http.NewServeMux(), opts: opts}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("DELETE /debug/queries/{id}", s.handleKillQuery)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler: it assigns a request ID (threaded
// through the context so trace roots and registry entries join the access
// log on one id), bounds the body, dispatches with panic recovery, and
// emits the access-log record.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := strconv.FormatUint(s.reqID.Add(1), 10)
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(telemetry.WithRequestID(r.Context(), id))
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.dispatch(sw, r, id)
	if s.opts.Logger != nil {
		s.opts.Logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration", time.Since(start),
			"remote", r.RemoteAddr,
		)
	}
}

// dispatch runs the mux under panic recovery: a panicking handler answers
// 500 with the request id (when nothing was written yet) instead of tearing
// down the connection, and counts into vs_panics_total. The query-side
// state — vs_queries_in_flight, the registry entry — is restored by the
// deferred accounting in cypher.RunContext, which runs during the panic's
// unwinding before the recovery here.
func (s *Server) dispatch(sw *statusWriter, r *http.Request, id string) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		telemetry.PanicsRecovered.Inc()
		if s.opts.Logger != nil {
			s.opts.Logger.Error("panic recovered",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"error", fmt.Sprint(rec),
			)
		}
		if !sw.wrote {
			writeJSON(sw, http.StatusInternalServerError,
				errorResponse{fmt.Sprintf("internal error (request %s)", id)})
		} else {
			// Headers are gone; all that's left is recording the failure
			// for the access log.
			sw.status = http.StatusInternalServerError
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// statusWriter captures the response status and size for the access log,
// and whether anything was written (the recover path can only send its 500
// on an untouched response).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards http.Flusher through the access-log wrapper so an NDJSON
// {"stream": true} response pushes each fetch batch as it is produced.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Query string `json:"query"`
	// Params maps parameter names to values; JSON numbers arrive as
	// float64 and are normalized to int64 when integral, and []any lists
	// of integral numbers become []int64 for UNWIND.
	Params map[string]any `json:"params"`
	// Trace selects an export format for the query's span tree. The only
	// supported value is "chrome": trace the query and attach the Trace
	// Event Format document (chrome://tracing / Perfetto) as chrome_trace.
	Trace string `json:"trace"`
	// Stream requests an NDJSON streaming response: rows arrive
	// incrementally, one JSON array per line, with server-side result
	// memory bounded at one cursor batch. Incompatible with Trace, which
	// needs the complete execution.
	Stream bool `json:"stream"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Columns []string                `json:"columns"`
	Rows    [][]any                 `json:"rows"`
	Timings TimingsResponse         `json:"timings"`
	Profile *telemetry.SpanSnapshot `json:"profile,omitempty"`
	// ChromeTrace is the span tree in Trace Event Format, present when the
	// request asked for "trace": "chrome". Save it to a file and load it in
	// chrome://tracing or Perfetto.
	ChromeTrace *telemetry.ChromeTrace `json:"chrome_trace,omitempty"`
	// Plan and Analysis are set when the query text itself was an
	// EXPLAIN / EXPLAIN ANALYZE.
	Plan     string           `json:"plan,omitempty"`
	Analysis *engine.Analysis `json:"analysis,omitempty"`
}

// TimingsResponse is the stage breakdown in milliseconds.
type TimingsResponse struct {
	ScanMs        float64 `json:"scan_ms"`
	ExpandMs      float64 `json:"expand_ms"`
	UpdateVisitMs float64 `json:"update_visit_ms"`
	IntersectMs   float64 `json:"intersect_ms"`
	AggregateMs   float64 `json:"aggregate_ms"`
	TotalMs       float64 `json:"total_ms"`
}

// toTimings converts the engine's stage breakdown, with TotalMs always the
// end-to-end wall time of the request (parse and translate included) — the
// engine-reported total only covers Match execution.
func toTimings(t engine.Timings, wall time.Duration) TimingsResponse {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return TimingsResponse{
		ScanMs:        ms(t.Scan),
		ExpandMs:      ms(t.Expand),
		UpdateVisitMs: ms(t.UpdateVisit),
		IntersectMs:   ms(t.Intersect),
		AggregateMs:   ms(t.Aggregate),
		TotalMs:       ms(wall),
	}
}

// errorResponse is every endpoint's failure body.
type errorResponse struct {
	Error string `json:"error"`
}

// queryErrorStatus maps a query execution error to its HTTP status: an
// exceeded server-side deadline is 504 (the query was valid, the server
// gave up), a canceled context is 499 (nginx's "client closed request" —
// the client is gone, the status is for the access log), anything else is
// a 422 query error.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusUnprocessableEntity
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func decodeRequest(r *http.Request) (*QueryRequest, error) {
	var req QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if req.Query == "" {
		return nil, fmt.Errorf("missing query")
	}
	req.Params = normalizeParams(req.Params)
	return &req, nil
}

// normalizeParams converts JSON's float64 numbers into the int64 values the
// query layer expects, where they are integral — recursively, so numbers
// nested inside lists and objects normalize the same way as top-level ones.
func normalizeParams(params map[string]any) map[string]any {
	out := make(map[string]any, len(params))
	for k, v := range params {
		out[k] = normalizeValue(v)
	}
	return out
}

func normalizeValue(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
		return x
	case []any:
		// A list of integral numbers becomes []int64 (the UNWIND shape);
		// anything else normalizes element-wise.
		ints := make([]int64, 0, len(x))
		allInt := true
		for _, e := range x {
			f, ok := e.(float64)
			if !ok || f != float64(int64(f)) {
				allInt = false
				break
			}
			ints = append(ints, int64(f))
		}
		if allInt && len(ints) == len(x) {
			return ints
		}
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalizeValue(e)
		}
		return out
	case map[string]any:
		return normalizeParams(x)
	default:
		return v
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := decodeRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	q, err := cypher.Parse(req.Query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}

	if req.Trace != "" && req.Trace != "chrome" {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("unsupported trace format %q (want \"chrome\")", req.Trace)})
		return
	}

	if req.Stream {
		if req.Trace != "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{"stream mode does not support trace"})
			return
		}
		s.streamQuery(w, r, q, req)
		return
	}

	// Trace when the query text asked for a profile, the request for a
	// chrome trace export, or when the slow-query log may need the span
	// tree.
	wantProfile := q.Profile
	wantChrome := req.Trace == "chrome"
	// r.Context() is canceled when the client disconnects, so an
	// abandoned query stops consuming the engine; the session service adds
	// its QueryTimeout deadline on top.
	ctx := r.Context()
	var root *telemetry.Span
	if wantProfile || wantChrome || s.opts.SlowQuery > 0 {
		ctx, root = telemetry.NewTrace(ctx, "query")
		// The access-log request id on the trace root joins slow-query
		// reports and /debug/queries entries to the access-log line.
		root.SetStr("request_id", telemetry.RequestIDFromContext(ctx))
	}

	res, err := s.svc.Execute(ctx, q, req.Params)
	wall := time.Since(start)
	root.End()
	if err != nil {
		writeJSON(w, queryErrorStatus(err), errorResponse{err.Error()})
		return
	}

	var profile *telemetry.SpanSnapshot
	if root != nil {
		profile = root.Snapshot()
	}
	if s.opts.SlowQuery > 0 && wall > s.opts.SlowQuery && s.opts.Logger != nil {
		s.opts.Logger.Warn("slow query",
			"id", w.Header().Get("X-Request-Id"),
			"duration", wall,
			"threshold", s.opts.SlowQuery,
			"query", req.Query,
			"spans", "\n"+profile.Render(),
		)
	}
	rows := res.Rows
	if rows == nil {
		rows = [][]any{}
	}
	resp := QueryResponse{
		Columns:  res.Columns,
		Rows:     rows,
		Timings:  toTimings(res.Timings, wall),
		Plan:     res.Plan,
		Analysis: res.Analysis,
	}
	if wantProfile {
		resp.Profile = profile
	}
	if wantChrome {
		resp.ChromeTrace = telemetry.ChromeTraceFromSnapshot(profile)
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamHeader is an NDJSON response's first line.
type streamHeader struct {
	Columns []string `json:"columns"`
	// Streaming is false when the query holds rows until its match ends
	// (aggregate groups, ORDER BY, …) — rows still arrive as NDJSON batch
	// by batch, but server memory grew with the result before the first.
	Streaming bool `json:"streaming"`
}

// streamTrailer is an NDJSON response's last line: exactly one of Summary
// (success) or Error is set. An error can surface here after rows were
// delivered — the rows before it are a valid prefix of the result.
type streamTrailer struct {
	Summary *streamSummary `json:"summary,omitempty"`
	Error   string         `json:"error,omitempty"`
}

type streamSummary struct {
	Rows      int64 `json:"rows"`
	Streaming bool  `json:"streaming"`
}

// streamQuery serves {"stream": true}: a per-request session, a cursor
// driven batch-by-batch, rows flushed as NDJSON as each batch arrives. The
// deferred session close covers every exit — client disconnect mid-stream
// cancels the producer and releases the cursor's memory reservation.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, q *cypher.Query, req *QueryRequest) {
	sess := s.svc.OpenSession(r.RemoteAddr)
	defer sess.Close()
	cur, err := sess.RunParsed(r.Context(), q, req.Params)
	if err != nil {
		writeJSON(w, queryErrorStatus(err), errorResponse{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if err := enc.Encode(streamHeader{Columns: cur.Columns(), Streaming: cur.Streaming()}); err != nil {
		return
	}
	var total int64
	for {
		rows, more, ferr := cur.Fetch(0)
		for _, row := range rows {
			if err := enc.Encode(row); err != nil {
				return // client gone; session close reaps the cursor
			}
			total++
		}
		if flusher != nil {
			flusher.Flush()
		}
		switch {
		case ferr != nil:
			// Execution errors surface on Fetch (the RUN/FETCH split);
			// the 200 is already out, so the error rides the trailer line.
			_ = enc.Encode(streamTrailer{Error: ferr.Error()})
			return
		case !more:
			_ = enc.Encode(streamTrailer{Summary: &streamSummary{Rows: total, Streaming: cur.Streaming()}})
			return
		}
	}
}

// DebugQueriesResponse is GET /debug/queries' body: the queries running
// right now (with live per-operator progress) and the most recently
// completed ones, newest first.
type DebugQueriesResponse struct {
	Active  []telemetry.QuerySnapshot `json:"active"`
	History []telemetry.QueryRecord   `json:"history"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, _ *http.Request) {
	active, history := telemetry.DefaultQueries.Snapshot()
	writeJSON(w, http.StatusOK, DebugQueriesResponse{Active: active, History: history})
}

// KillResponse is DELETE /debug/queries/{id}'s body.
type KillResponse struct {
	ID     uint64 `json:"id"`
	Killed bool   `json:"killed"`
}

func (s *Server) handleKillQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad query id"})
		return
	}
	if !telemetry.DefaultQueries.Kill(id) {
		writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("no running query %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, KillResponse{ID: id, Killed: true})
}

// handleMetrics serves the default telemetry registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = telemetry.Default.WriteTo(w)
}

// StatsResponse is GET /stats' body.
type StatsResponse struct {
	NumVertices  int            `json:"num_vertices"`
	NumEdges     int            `json:"num_edges"`
	VertexLabels map[string]int `json:"vertex_labels"`
	EdgeLabels   map[string]int `json:"edge_labels"`
	SizeBytes    int64          `json:"size_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.svc.Engine().Graph()
	resp := StatsResponse{
		NumVertices:  g.NumVertices(),
		NumEdges:     g.NumEdges(),
		VertexLabels: map[string]int{},
		EdgeLabels:   map[string]int{},
		SizeBytes:    g.SizeBytes(),
	}
	for _, l := range g.VertexLabels() {
		resp.VertexLabels[l] = g.Label(l).PopCount()
	}
	for _, l := range g.EdgeLabels() {
		resp.EdgeLabels[l] = g.Edges(l).Len()
	}
	writeJSON(w, http.StatusOK, resp)
}
