package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

func statsPattern() *pattern.Pattern {
	return &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGB"}},
		},
		Edges: []pattern.Edge{
			{Src: "p", Dst: "q", D: knowsDet(1, 2)},
		},
	}
}

// TestStatsSinkObservations runs a match with a sink attached and decodes
// the JSONL: one versioned record per plan operator, stamped with the
// pattern signature and graph scale, expands carrying est-vs-actual rows.
func TestStatsSinkObservations(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	var buf bytes.Buffer
	e.SetStatsSink(NewStatsSink(&buf))

	pat := statsPattern()
	if _, err := e.MatchContext(context.Background(), pat, MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}

	var recs []StatsObservation
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec StatsObservation
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		t.Fatal("sink received no observations")
	}
	byOp := map[string]int{}
	for _, rec := range recs {
		byOp[rec.Op]++
	}
	if byOp["plan"] != 1 {
		t.Fatalf("plan records = %d, want 1 (ops %v)", byOp["plan"], byOp)
	}
	if byOp["scan"] != len(pat.Vertices) {
		t.Fatalf("scan records = %d, want one per pattern vertex (%d)", byOp["scan"], len(pat.Vertices))
	}
	if byOp["expand"] == 0 {
		t.Fatalf("no expand records (ops %v)", byOp)
	}

	sig := PatternSignature(pat)
	sawExpand := false
	for _, rec := range recs {
		if rec.Schema != StatsSchemaVersion {
			t.Fatalf("record schema = %d, want %d", rec.Schema, StatsSchemaVersion)
		}
		if rec.Pattern != sig {
			t.Fatalf("record pattern = %q, want %q", rec.Pattern, sig)
		}
		if rec.GraphVertices != g.NumVertices() || rec.GraphEdges != g.NumEdges() {
			t.Fatalf("record graph scale = %d/%d, want %d/%d",
				rec.GraphVertices, rec.GraphEdges, g.NumVertices(), g.NumEdges())
		}
		if rec.TsUnixMs == 0 || rec.Op == "" {
			t.Fatalf("record missing stamp: %+v", rec)
		}
		if rec.Op == "expand" {
			sawExpand = true
			if rec.EstRows <= 0 || rec.ActualRows <= 0 {
				t.Fatalf("expand record without est/actual rows: %+v", rec)
			}
		}
	}
	if !sawExpand {
		t.Fatalf("no expand observation among %d records", len(recs))
	}

	// A streamed match of the same pattern is the same execution with a
	// consumer plugged in: the sink must receive the same operator records
	// as the materialized run (wall times aside).
	opRecords := func(run func() error) []StatsObservation {
		t.Helper()
		buf.Reset()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		var out []StatsObservation
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var rec StatsObservation
			if err := dec.Decode(&rec); err != nil {
				t.Fatal(err)
			}
			rec.TsUnixMs, rec.TimeMs = 0, 0
			out = append(out, rec)
		}
		return out
	}
	materialized := opRecords(func() error {
		_, err := e.MatchContext(context.Background(), pat, MatchOptions{})
		return err
	})
	streamed := opRecords(func() error {
		return e.MatchForEachOpts(context.Background(), pat, MatchOptions{}, func([]graph.VertexID) {})
	})
	if len(streamed) == 0 || !reflect.DeepEqual(streamed, materialized) {
		t.Fatalf("streamed match observed\n%+v\nmaterialized match observed\n%+v", streamed, materialized)
	}
}

// TestStatsSinkQueryID checks the registry id rides along when the match
// runs under a registered query, and stays 0 otherwise.
func TestStatsSinkQueryID(t *testing.T) {
	g := figure3(t)
	e := New(g, Options{})
	var buf bytes.Buffer
	e.SetStatsSink(NewStatsSink(&buf))

	qi := telemetry.DefaultQueries.Register("stats test", "", nil)
	ctx := telemetry.WithQuery(context.Background(), qi)
	if _, err := e.MatchContext(ctx, statsPattern(), MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}
	telemetry.DefaultQueries.Complete(qi, 0, nil)

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no observations written")
	}
	var rec StatsObservation
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.QueryID != qi.ID() {
		t.Fatalf("record query_id = %d, want %d", rec.QueryID, qi.ID())
	}

	buf.Reset()
	if _, err := e.MatchContext(context.Background(), statsPattern(), MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no observations written for unregistered match")
	}
	var rec2 StatsObservation
	if err := json.Unmarshal(sc.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2.QueryID != 0 {
		t.Fatalf("unregistered match query_id = %d, want 0", rec2.QueryID)
	}
}

func TestPatternSignatureCanonical(t *testing.T) {
	a := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "x", Labels: []string{"SIGB", "SIGA"}},
			{Name: "y", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{{Src: "x", Dst: "y", D: knowsDet(1, 3)}},
	}
	b := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA", "SIGB"}},
			{Name: "q", Labels: []string{"Person"}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: knowsDet(1, 3)}},
	}
	sa, sb := PatternSignature(a), PatternSignature(b)
	if sa != sb {
		t.Fatalf("signatures differ for renamed/reordered patterns:\n%s\n%s", sa, sb)
	}
	// Property filters change selectivity, so they must change the signature.
	a.Vertices[0].PropEq = map[string]any{"id": int64(1)}
	if PatternSignature(a) == sb {
		t.Fatal("property-filtered pattern shares a signature with unfiltered")
	}
}

func TestStatsSinkNilSafe(t *testing.T) {
	var s *StatsSink
	if err := s.Observe(0, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// failingWriter fails every write after the first n bytes-worth of calls.
type failingWriter struct {
	fails bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fails {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// syncCloser records the Sync/Close sequence a clean shutdown must make.
type syncCloser struct {
	calls   []string
	syncErr error
}

func (c *syncCloser) Sync() error {
	c.calls = append(c.calls, "sync")
	return c.syncErr
}

func (c *syncCloser) Close() error {
	c.calls = append(c.calls, "close")
	return nil
}

// TestStatsSinkWriteErrorSurfacesAtClose (satellite S2): a write failure
// during Observe is returned there AND remembered, so Close reports it —
// a sink whose disk filled mid-run cannot report a clean shutdown.
func TestStatsSinkWriteErrorSurfacesAtClose(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	w := &failingWriter{}
	sink := NewStatsSink(w)
	e.SetStatsSink(sink)

	// Healthy write first: no error recorded.
	if _, err := e.MatchContext(context.Background(), statsPattern(), MatchOptions{CountOnly: true}); err != nil {
		t.Fatal(err)
	}

	w.fails = true
	res, err := e.MatchContext(context.Background(), statsPattern(), MatchOptions{CountOnly: true})
	// Statistics are advisory: the query itself must still succeed.
	if err != nil || res == nil {
		t.Fatalf("query failed on stats write error: %v", err)
	}

	cerr := sink.Close()
	if cerr == nil {
		t.Fatal("Close reported success after a failed Observe write")
	}
	if !strings.Contains(cerr.Error(), "disk full") {
		t.Fatalf("Close error %q does not carry the write failure", cerr)
	}
	// Close must stay idempotent-safe on the error path.
	if cerr2 := sink.Close(); cerr2 == nil {
		t.Fatal("second Close dropped the remembered write error")
	}
}

// TestStatsSinkCloseSyncs (satellite S2): Close flushes to stable storage
// before closing, and a sync failure surfaces.
func TestStatsSinkCloseSyncs(t *testing.T) {
	sc := &syncCloser{}
	s := NewStatsSink(io.Discard)
	s.c = sc
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sc.calls) != 2 || sc.calls[0] != "sync" || sc.calls[1] != "close" {
		t.Fatalf("Close sequence = %v, want [sync close]", sc.calls)
	}

	sc2 := &syncCloser{syncErr: errors.New("io error")}
	s2 := NewStatsSink(io.Discard)
	s2.c = sc2
	err := s2.Close()
	if err == nil || !strings.Contains(err.Error(), "io error") {
		t.Fatalf("sync failure not surfaced: %v", err)
	}
	// The file still gets closed even when Sync fails.
	if len(sc2.calls) != 2 || sc2.calls[1] != "close" {
		t.Fatalf("Close sequence on sync failure = %v", sc2.calls)
	}
}
