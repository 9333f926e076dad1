package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

const pairQuery = `MATCH (p:Person)-[:knows]-(q:Person) RETURN p, q`

// startServer runs a wire server over a deterministic graph and returns its
// address plus the service for white-box assertions.
func startServer(t testing.TB, opts session.Options) (string, *session.Service) {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 700, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := session.NewService(engine.New(g, engine.Options{}), opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(svc, wire.Options{})
	go ws.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		ws.Close()
	})
	return ln.Addr().String(), svc
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

// TestWireMatchesEngine streams a multi-batch result over the wire and
// compares it row-for-row with the engine's materialized answer.
func TestWireMatchesEngine(t *testing.T) {
	addr, svc := startServer(t, session.Options{FetchBatch: 64})

	q, err := cypher.Parse(pairQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Execute(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if info := c.Server(); info.Server != "vsserve" || info.FetchBatch != 64 {
		t.Fatalf("HELLO metadata = %+v", info)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	rows, err := c.Run(pairQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Streaming() {
		t.Fatal("pair query should stream")
	}
	if !reflect.DeepEqual(rows.Columns(), want.Columns) {
		t.Fatalf("columns = %v, want %v", rows.Columns(), want.Columns)
	}
	var got [][]any
	for {
		row, err := rows.Next()
		if err == client.ErrDone {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
	}
	if len(got) <= 64 {
		t.Fatalf("result must span several batches, got %d rows", len(got))
	}
	wantRows := append([][]any(nil), want.Rows...)
	sortRows(wantRows)
	sortRows(got)
	if !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("wire rows differ from engine: %d vs %d", len(got), len(wantRows))
	}
}

// TestWireAggregate runs an aggregate, which holds its groups server-side
// and so reports streaming=false, through the same client API.
func TestWireAggregate(t *testing.T) {
	addr, _ := startServer(t, session.Options{})
	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Run(`MATCH (p:Person)-[:knows]-(q:Person) RETURN COUNT(DISTINCT p,q)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Streaming() {
		t.Fatal("aggregate should not stream")
	}
	row, err := rows.Next()
	if err != nil {
		t.Fatal(err)
	}
	n, ok := row[0].(int64)
	if !ok || n <= 0 {
		t.Fatalf("COUNT row = %#v", row)
	}
	if _, err := rows.Next(); err != client.ErrDone {
		t.Fatalf("after last row: %v, want ErrDone", err)
	}
}

// TestWireErrors: syntax and execution failures arrive as typed
// ServerErrors with their protocol code, and the connection survives them.
func TestWireErrors(t *testing.T) {
	addr, svc := startServer(t, session.Options{})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A RUN that fails to parse still ends the stream open before it.
	open, err := c.Run(pairQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Next(); err != nil {
		t.Fatal(err)
	}
	var serr *client.ServerError
	if _, err := c.Run("MATCH oops", nil); !errors.As(err, &serr) || serr.Code != "syntax_error" {
		t.Fatalf("syntax error = %v", err)
	}
	if got := acct.InUse(); got != base {
		t.Fatalf("after a failed RUN the replaced stream still holds %d bytes", got-base)
	}
	// Every execution error, a bad label included, surfaces on the first
	// fetch (the RUN/FETCH split) as a query_error after zero rows,
	// whatever the query's shape.
	for _, query := range []string{
		"MATCH (p:NoSuchLabel)-[:knows]-(q) RETURN p, q",
		"MATCH (p:NoSuchLabel)-[:knows]-(q) RETURN COUNT(q)",
		"MATCH (p:NoSuchLabel)-[:knows]-(q) RETURN p, q ORDER BY q",
	} {
		rows, err := c.Run(query, nil)
		if err != nil {
			t.Fatalf("RUN %q should succeed, got %v", query, err)
		}
		if _, err := rows.Next(); !errors.As(err, &serr) || serr.Code != "query_error" {
			t.Fatalf("%q: first fetch error = %v, want a query_error", query, err)
		}
	}
	// VSWP carries rows only: EXPLAIN, EXPLAIN ANALYZE and PROFILE fail at
	// Run instead of answering with an empty or profile-less result.
	for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE ", "PROFILE "} {
		if _, err := c.Run(prefix+pairQuery, nil); !errors.As(err, &serr) || serr.Code != "query_error" {
			t.Fatalf("%s over the wire = %v, want a query_error", prefix, err)
		}
	}
	// The connection is still usable.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestWireDisconnectReapsCursor kills the TCP connection mid-stream and
// expects the server to cancel the producer, close the session, and return
// the accountant to baseline — the abandoned-client path.
func TestWireDisconnectReapsCursor(t *testing.T) {
	addr, svc := startServer(t, session.Options{FetchBatch: 4})
	acct := svc.Engine().Accountant()
	base := acct.InUse()

	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Run(pairQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if svc.SessionCount() != 1 {
		t.Fatalf("session count = %d", svc.SessionCount())
	}
	c.Close() // connection drops with the cursor mid-stream

	deadline := time.After(5 * time.Second)
	for svc.SessionCount() != 0 || acct.InUse() != base {
		select {
		case <-deadline:
			t.Fatalf("after disconnect: sessions=%d, in-use=%d (base %d)",
				svc.SessionCount(), acct.InUse(), base)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestWireConcurrentClients drives several connections at once under -race.
func TestWireConcurrentClients(t *testing.T) {
	addr, svc := startServer(t, session.Options{FetchBatch: 32})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rows, err := c.Run(pairQuery+fmt.Sprintf(" LIMIT %d", 50+i), nil)
			if err != nil {
				t.Error(err)
				return
			}
			var n int
			for {
				_, err := rows.Next()
				if err == client.ErrDone {
					break
				}
				if err != nil {
					t.Error(err)
					return
				}
				n++
			}
			if n != 50+i {
				t.Errorf("client %d got %d rows, want %d", i, n, 50+i)
			}
		}(i)
	}
	wg.Wait()

	deadline := time.After(5 * time.Second)
	for svc.SessionCount() != 0 {
		select {
		case <-deadline:
			t.Fatalf("session count = %d after all clients closed", svc.SessionCount())
		case <-time.After(time.Millisecond):
		}
	}
}

// TestWireRejectsBadVersion: the handshake answers 0 and closes on an
// unsupported proposal, including version 1, whose FETCH and DISCARD name
// a cursor.
func TestWireRejectsBadVersion(t *testing.T) {
	addr, _ := startServer(t, session.Options{})
	for _, version := range []byte{1, 99} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{'V', 'S', 'W', 'P', 0, 0, 0, version}); err != nil {
			t.Fatal(err)
		}
		var accept [4]byte
		if _, err := io.ReadFull(conn, accept[:]); err != nil {
			t.Fatal(err)
		}
		if accept != [4]byte{} {
			t.Fatalf("server accepted version %d: % x", version, accept)
		}
	}
}

// TestCloseIsIdempotent: closing twice (deferred Close after an explicit
// error-path Close) must not return a use-of-closed-connection error.
func TestCloseIsIdempotent(t *testing.T) {
	addr, _ := startServer(t, session.Options{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v (must be a no-op)", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("third Close: %v", err)
	}
}

// TestCloseIdempotentWithOpenRows: an open Rows does not break repeat
// Close either — the first call discards the cursor, the rest are no-ops.
func TestCloseIdempotentWithOpenRows(t *testing.T) {
	addr, _ := startServer(t, session.Options{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(pairQuery, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close with open rows: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDialTimeoutFailsFast: dialing an unresponsive host must respect
// DialTimeout instead of hanging. TEST-NET-3 (RFC 5737) is reserved and
// never routable, so the dial either times out at the option's bound or
// is refused immediately — both well under the OS default of minutes,
// which is what an ignored DialTimeout would fall back to.
func TestDialTimeoutFailsFast(t *testing.T) {
	start := time.Now()
	_, err := client.Dial("203.0.113.1:9", client.Options{DialTimeout: 150 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial to TEST-NET-3 unexpectedly succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Dial took %v; DialTimeout of 150ms not honored", elapsed)
	}
}

// drainRows reads rows to ErrDone.
func drainRows(t testing.TB, rows *client.Rows) [][]any {
	t.Helper()
	var got [][]any
	for {
		row, err := rows.Next()
		if err == client.ErrDone {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
	}
}

// TestWireKillMidStream kills a streamed query through the registry (the
// path KILL <id> and DELETE /debug/queries/{id} take) after the client has
// read one row. The client must get a query_error after a valid prefix —
// so the FAILURE was flushed, not left in the server's write buffer — and
// the accountant, the registry and the connection must all recover.
func TestWireKillMidStream(t *testing.T) {
	addr, svc := startServer(t, session.Options{FetchBatch: 4})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	q, err := cypher.Parse(pairQuery)
	if err != nil {
		t.Fatal(err)
	}
	all, err := svc.Execute(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[string]bool, len(all.Rows))
	for _, row := range all.Rows {
		valid[fmt.Sprint(row)] = true
	}

	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Variable names unique to this test keep its registry entry unambiguous.
	const killQuery = `MATCH (wka:Person)-[:knows]-(wkb:Person) RETURN wka, wkb`
	rows, err := c.Run(killQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := rows.Next()
	if err != nil {
		t.Fatal(err)
	}
	active, _ := telemetry.DefaultQueries.Snapshot()
	var killed bool
	for _, qs := range active {
		if qs.Query == killQuery && telemetry.DefaultQueries.Kill(qs.ID) {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("streamed query not visible in the registry: %+v", active)
	}

	prefix := [][]any{first}
	for {
		row, err := rows.Next()
		if err == nil {
			prefix = append(prefix, row)
			continue
		}
		var serr *client.ServerError
		if !errors.As(err, &serr) || serr.Code != wire.CodeQuery {
			t.Fatalf("killed stream ended with %v, want a query_error", err)
		}
		break
	}
	if len(prefix) >= len(all.Rows) {
		t.Fatalf("the killed stream delivered all %d rows", len(prefix))
	}
	for _, row := range prefix {
		if !valid[fmt.Sprint(row)] {
			t.Fatalf("row %v before the failure is not in the result", row)
		}
	}

	if got := acct.InUse(); got != base {
		t.Fatalf("after the kill the accountant holds %d bytes over baseline", got-base)
	}
	// The producer leaves the registry before it closes the cursor, so the
	// FAILURE cannot arrive while the query is still in flight.
	active, _ = telemetry.DefaultQueries.Snapshot()
	for _, qs := range active {
		if qs.Query == killQuery {
			t.Fatalf("killed query still in flight: %+v", qs)
		}
	}

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after the kill: %v", err)
	}
	rows, err = c.Run(pairQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainRows(t, rows)
	want := append([][]any(nil), all.Rows...)
	sortRows(want)
	sortRows(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run after the kill: %d rows, want %d", len(got), len(want))
	}
}

// BenchmarkWireStream streams a multi-thousand-row result through a
// loopback server and the client, reporting rows/s and allocations per
// query — the transport's own number, without the benchmark ledger.
func BenchmarkWireStream(b *testing.B) {
	addr, _ := startServer(b, session.Options{})
	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const query = `MATCH (p:Person)-[:knows*1..2]-(q:Person) RETURN p, q`
	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := c.Run(query, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += len(drainRows(b, rows))
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(total)/float64(b.N), "rows/op")
}
