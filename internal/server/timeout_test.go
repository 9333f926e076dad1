package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/session"
)

// TestQueryTimeoutReturns504 pins the -query-timeout wiring: an expired
// per-query deadline cancels the engine cooperatively and maps to 504
// Gateway Timeout, with the in-flight gauge restored and the failure
// counted.
func TestQueryTimeoutReturns504(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 700, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(g, session.Options{
		QueryTimeout: time.Nanosecond, // every query's deadline is already expired
	}, Options{}))
	defer srv.Close()

	failed0 := scrapeCounter(t, srv, "vs_queries_failed_total")
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if failed := scrapeCounter(t, srv, "vs_queries_failed_total"); failed != failed0+1 {
		t.Fatalf("vs_queries_failed_total %v -> %v, want +1", failed0, failed)
	}
	if inflight := scrapeCounter(t, srv, "vs_queries_in_flight"); inflight != 0 {
		t.Fatalf("vs_queries_in_flight = %v after timeout, want 0", inflight)
	}

	// EXPLAIN ANALYZE executes too, so it times out the same way.
	resp, body = post(t, srv, "/query", QueryRequest{Query: "EXPLAIN ANALYZE " + countQuery})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("explain analyze status = %d (%s), want 504", resp.StatusCode, body)
	}

	// EXPLAIN without ANALYZE never executes, so the deadline is irrelevant.
	resp, body = post(t, srv, "/query", QueryRequest{Query: "EXPLAIN " + countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestQueryTimeoutDisabledByDefault pins that zero QueryTimeout means no
// deadline.
func TestQueryTimeoutDisabledByDefault(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := post(t, srv, "/query", QueryRequest{Query: countQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", resp.StatusCode, body)
	}
}

func TestQueryErrorStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("expand: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{fmt.Errorf("intersect: %w", context.Canceled), 499},
		{errors.New("no such label"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := queryErrorStatus(c.err); got != c.want {
			t.Errorf("queryErrorStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
