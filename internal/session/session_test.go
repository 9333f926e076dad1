package session

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// testGraph is a deterministic social graph: 200 vertices, 700 undirected
// knows edges → well over a thousand single-hop rows, several times
// DefaultFetchBatch.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 700, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testService builds a service over testGraph with an unbounded engine.
func testService(t testing.TB, opts Options) *Service {
	t.Helper()
	return NewService(engine.New(testGraph(t), engine.Options{}), opts)
}

// streamQuery is streamable (plain projection, no aggregate) and returns
// every directed knows pair — cardinality ≫ one fetch batch. Both endpoints
// appear bare in the projection, so the stream needs no dedup state.
const streamQuery = `MATCH (p:Person)-[:knows]-(q:Person) RETURN p, q`

// drain fetches a cursor to exhaustion max rows at a time, returning all
// rows.
func drain(t *testing.T, cur *Cursor, max int) [][]any {
	t.Helper()
	var all [][]any
	for {
		rows, more, err := cur.Fetch(max)
		all = append(all, rows...)
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if !more {
			return all
		}
	}
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

// edgeIDs returns n distinct id values of vertices that have a knows edge,
// so every one of them matches something.
func edgeIDs(g *graph.Graph, n int) []int64 {
	ids := g.Prop("id").(graph.Int64Column)
	knows := g.Edges("knows")
	out := make([]int64, 0, n)
	seen := map[int64]bool{}
	for e := 0; len(out) < n; e++ {
		a, b := knows.Edge(e)
		for _, v := range []graph.VertexID{a, b} {
			if id := ids[v]; len(out) < n && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// TestCursorMatchesExecute is the differential test across the one cursor:
// every query shape runs through the producer, and its rows, drained with
// Fetch taking the producer's batches whole (max 0), splitting them (7) or
// spanning them (300 > 256), are exactly Execute's rows — in the same order
// under ORDER BY, as a set otherwise (Cypher promises no order without it). Streaming reports cypher.Streamable, and an exhausted
// cursor is closed and has given the accountant back its bytes.
func TestCursorMatchesExecute(t *testing.T) {
	svc := testService(t, Options{})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	pids := edgeIDs(svc.Engine().Graph(), 6)
	params := map[string]any{"ids": pids, "a": pids[0], "b": pids[5]}
	cases := []struct {
		name, query string
		streams     bool
	}{
		{"plain", streamQuery, true},
		{"distinct", `MATCH (p:Person)-[:knows*1..2]-(q:Person) RETURN DISTINCT q`, true},
		{"grouped", `MATCH (p:Person)-[:knows]-(q:Person) RETURN p, COUNT(q), SUM(q.id)`, false},
		{"order-limit", `MATCH (p:Person)-[:knows]-(q:Person) RETURN p, q ORDER BY q DESC, p LIMIT 700`, false},
		{"unwind-agg", `UNWIND $ids AS pid MATCH (p:Person {id:pid})-[:knows]-(q:Person) RETURN pid, COUNT(q)`, false},
		{"shortest", `MATCH (a:Person {id:$a}), (b:Person {id:$b}), p=shortestPath((a)-[:knows*1..]-(b)) RETURN length(p)`, false},
		{"length", `MATCH p=(a:Person)-[:knows*1..2]-(b:Person) RETURN a, b, length(p)`, false},
	}
	sess := svc.OpenSession("test")
	defer sess.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := cypher.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.Execute(context.Background(), q, params)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("the shape must return rows to compare")
			}
			wantRows := want.Rows
			if len(q.OrderBy) == 0 {
				wantRows = append([][]any(nil), want.Rows...)
				sortRows(wantRows)
			}
			for _, max := range []int{0, 7, 300} {
				cur, err := sess.Run(context.Background(), c.query, params)
				if err != nil {
					t.Fatal(err)
				}
				if cur.Streaming() != c.streams {
					t.Fatalf("Streaming() = %v, want %v", cur.Streaming(), c.streams)
				}
				if !reflect.DeepEqual(cur.Columns(), want.Columns) {
					t.Fatalf("columns = %v, want %v", cur.Columns(), want.Columns)
				}
				got := drain(t, cur, max)
				if len(q.OrderBy) == 0 {
					sortRows(got)
				}
				if !reflect.DeepEqual(got, wantRows) {
					t.Fatalf("Fetch(%d): cursor rows differ from Execute's: %d vs %d rows", max, len(got), len(wantRows))
				}
				if got := acct.InUse(); got != base {
					t.Fatalf("Fetch(%d): exhausted cursor left %d bytes reserved", max, got-base)
				}
				if _, _, err := cur.Fetch(1); !errors.Is(err, ErrCursorClosed) {
					t.Fatalf("fetch after exhaustion: err=%v, want ErrCursorClosed", err)
				}
			}
		})
	}
}

// TestStreamMatchesMaterialized proves the streamed rows of a plain
// projection are exactly Execute's materialized rows (order aside —
// Execute's join is parallel, the stream serial), whether Fetch takes the
// producer's batches whole (max 0), splits them (7) or spans them (300 >
// 256), and that the result spans more than one fetch batch.
func TestStreamMatchesMaterialized(t *testing.T) {
	svc := testService(t, Options{})
	q, err := cypher.Parse(streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Execute(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := append([][]any(nil), want.Rows...)
	sortRows(wantRows)

	sess := svc.OpenSession("test")
	defer sess.Close()
	for _, max := range []int{0, 7, 300} {
		cur, err := sess.Run(context.Background(), streamQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Streaming() {
			t.Fatalf("query %q should stream", streamQuery)
		}
		got := drain(t, cur, max)

		if len(got) <= svc.FetchBatch() {
			t.Fatalf("test needs cardinality > one batch, got %d rows <= batch %d", len(got), svc.FetchBatch())
		}
		if !reflect.DeepEqual(cur.Columns(), want.Columns) {
			t.Fatalf("columns = %v, want %v", cur.Columns(), want.Columns)
		}
		sortRows(got)
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("Fetch(%d): streamed rows differ from materialized: %d vs %d rows", max, len(got), len(wantRows))
		}
	}
}

// TestMaterializedCursorPaging pages an aggregate (non-streamable) result
// through the cursor in fixed-size pages: the cursor holds a reservation
// while open, the last page reports more=false, the reservation is back at
// exhaustion, and a later Fetch finds the cursor closed.
func TestMaterializedCursorPaging(t *testing.T) {
	svc := testService(t, Options{FetchBatch: 4})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	sess := svc.OpenSession("test")
	defer sess.Close()

	// Six real vertex ids (edge endpoints, so every pid matches something).
	pids := edgeIDs(svc.Engine().Graph(), 6)
	const agg = `UNWIND $ids AS pid MATCH (p:Person {id:pid})-[:knows]-(q:Person) RETURN pid, COUNT(q)`
	cur, err := sess.Run(context.Background(), agg, map[string]any{"ids": pids})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Streaming() {
		t.Fatal("aggregate should not stream")
	}
	if acct.InUse() == base {
		t.Fatal("open cursor should hold a reservation")
	}
	rows, more, err := cur.Fetch(4)
	if err != nil || len(rows) != 4 || !more {
		t.Fatalf("first page = %d rows, more=%v, err=%v; want 4, true, nil", len(rows), more, err)
	}
	rows, more, err = cur.Fetch(4)
	if err != nil || len(rows) != 2 || more {
		t.Fatalf("second page = %d rows, more=%v, err=%v; want 2, false, nil", len(rows), more, err)
	}
	if got := acct.InUse() - base; got != 0 {
		t.Fatalf("reservation not released at exhaustion: %d bytes", got)
	}
	if _, _, err := cur.Fetch(1); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("fetch after exhaustion: err=%v, want ErrCursorClosed", err)
	}
}

// TestHeldRowsChargedToBudget: the rows a query holds before it can emit —
// aggregate groups, ORDER BY rows — are charged to the engine accountant
// while they accumulate. Under a budget the engine's own working set fits
// but about 1,400 such rows do not, both shapes fail with the budget error
// through Execute and through the cursor, and the accountant and the
// registry's active list are back at baseline afterwards. Inside the
// budget the same queries return the same rows as an unbounded engine.
func TestHeldRowsChargedToBudget(t *testing.T) {
	g := testGraph(t)
	unbounded := NewService(engine.New(g, engine.Options{}), Options{FetchBatch: 8})
	for _, query := range []string{
		`MATCH (ha:Person)-[:knows]-(hb:Person) RETURN ha, hb.id, COUNT(hb)`,
		`MATCH (oa:Person)-[:knows]-(ob:Person) RETURN oa, ob ORDER BY ob DESC, oa`,
	} {
		q, err := cypher.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := unbounded.Execute(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.OrderBy) == 0 {
			sortRows(want.Rows)
		}
		for _, budget := range []int64{32 << 10, 8 << 20} {
			svc := NewService(engine.New(g, engine.Options{MemoryBudget: budget}), Options{FetchBatch: 8})
			acct := svc.Engine().Accountant()
			base := acct.InUse()
			fits := budget > cypher.RowBytes(len(want.Columns))*int64(len(want.Rows))
			check := func(via string, rows [][]any, err error) {
				t.Helper()
				switch {
				case !fits && !errors.Is(err, exec.ErrBudgetExceeded):
					t.Fatalf("%s under a %d-byte budget: err = %v, want %v", via, budget, err, exec.ErrBudgetExceeded)
				case fits && err != nil:
					t.Fatalf("%s under a %d-byte budget: %v", via, budget, err)
				case fits:
					if len(q.OrderBy) == 0 {
						sortRows(rows)
					}
					if !reflect.DeepEqual(rows, want.Rows) {
						t.Fatalf("%s under a %d-byte budget: rows differ from the unbounded engine's", via, budget)
					}
				}
				if got := acct.InUse(); got != base {
					t.Fatalf("%s under a %d-byte budget: %d bytes still reserved", via, budget, got-base)
				}
				if _, ok := activeQueryID(query); ok {
					t.Fatalf("%s under a %d-byte budget: the query is still active", via, budget)
				}
			}

			res, err := svc.Execute(context.Background(), q, nil)
			var rows [][]any
			if err == nil {
				rows = res.Rows
			}
			check("Execute", rows, err)

			sess := svc.OpenSession("test")
			cur, err := sess.Run(context.Background(), query, nil)
			if err != nil {
				t.Fatalf("Run must not fail before execution: %v", err)
			}
			rows = nil
			for {
				batch, more, ferr := cur.Fetch(0)
				rows = append(rows, batch...)
				if err = ferr; err != nil || !more {
					break
				}
			}
			check("the cursor", rows, err)
			sess.Close()
		}
	}
}

// TestStreamingReservationConstant is the bounded-memory proof: the
// accountant bytes held while streaming a large result equal the one-batch
// reservation — a constant in the fetch batch size, not the cardinality —
// and return to baseline when the stream ends.
func TestStreamingReservationConstant(t *testing.T) {
	for _, batch := range []int{16, 256} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			svc := testService(t, Options{FetchBatch: batch})
			acct := svc.Engine().Accountant()
			base := acct.InUse()

			sess := svc.OpenSession("test")
			defer sess.Close()
			cur, err := sess.Run(context.Background(), streamQuery, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantReserve := cypher.RowBytes(len(cur.Columns())) * int64(batch+1)

			var total int
			for {
				rows, more, err := cur.Fetch(0)
				if err != nil {
					t.Fatalf("Fetch: %v", err)
				}
				total += len(rows)
				if len(rows) > batch {
					t.Fatalf("fetch returned %d rows > batch %d", len(rows), batch)
				}
				// Mid-stream, the accountant holds exactly the one-batch
				// reservation regardless of how many rows have passed
				// through.
				if more {
					if got := acct.InUse() - base; got != wantReserve {
						t.Fatalf("after %d rows: accountant holds %d bytes, want constant %d", total, got, wantReserve)
					}
				} else {
					break
				}
			}
			if total <= batch {
				t.Fatalf("result must exceed one batch for this proof, got %d rows", total)
			}
			if got := acct.InUse(); got != base {
				t.Fatalf("accountant in-use %d, want baseline %d", got, base)
			}
		})
	}
}

// TestFetchAfterDiscard: DISCARD cancels the producer, releases the
// reservation, and poisons the cursor.
func TestFetchAfterDiscard(t *testing.T) {
	svc := testService(t, Options{FetchBatch: 8})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	sess := svc.OpenSession("test")
	defer sess.Close()

	cur, err := sess.Run(context.Background(), streamQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cur.Fetch(3); err != nil {
		t.Fatal(err)
	}
	cur.Discard()
	cur.Discard() // idempotent
	if _, _, err := cur.Fetch(1); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("fetch after discard: err=%v, want ErrCursorClosed", err)
	}
	if got := acct.InUse() - base; got != 0 {
		t.Fatalf("discard left %d bytes reserved", got)
	}
}

// TestRunDiscardsOpenCursor pins one query per session: a second Run closes
// the first cursor mid-stream, its query leaves the registry, and the
// accountant then holds only the new cursor's one-batch reservation.
func TestRunDiscardsOpenCursor(t *testing.T) {
	const batch = 8
	svc := testService(t, Options{FetchBatch: batch})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	sess := svc.OpenSession("test")
	defer sess.Close()

	// Variable names unique to this test keep the registry entry
	// unambiguous.
	const first = `MATCH (da:Person)-[:knows]-(db:Person) RETURN da, db`
	old, err := sess.Run(context.Background(), first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := old.Fetch(1); err != nil {
		t.Fatal(err)
	}
	cur, err := sess.Run(context.Background(), streamQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := old.Fetch(1); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("fetch on the replaced cursor: err=%v, want ErrCursorClosed", err)
	}
	waitUntil(t, "the replaced query leaves the active list", func() bool {
		_, ok := activeQueryID(first)
		return !ok
	})
	if _, _, err := cur.Fetch(1); err != nil {
		t.Fatal(err)
	}
	want := cypher.RowBytes(len(cur.Columns())) * (batch + 1)
	if got := acct.InUse() - base; got != want {
		t.Fatalf("accountant holds %d bytes, want the new cursor's %d", got, want)
	}
}

// TestSessionCloseMidStream is the client-disconnect path: closing the
// session with a cursor mid-stream cancels the producer and returns the
// accountant to baseline.
func TestSessionCloseMidStream(t *testing.T) {
	svc := testService(t, Options{FetchBatch: 8})
	acct := svc.Engine().Accountant()
	base := acct.InUse()

	sess := svc.OpenSession("test")
	cur, err := sess.Run(context.Background(), streamQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cur.Fetch(8); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sess.Close() // idempotent

	// The producer unwinds cooperatively; wait for the engine to release
	// its own working memory too.
	deadline := time.After(5 * time.Second)
	for acct.InUse() != base {
		select {
		case <-deadline:
			t.Fatalf("accountant in-use %d did not return to baseline %d", acct.InUse(), base)
		case <-time.After(time.Millisecond):
		}
	}
	if svc.SessionCount() != 0 {
		t.Fatalf("session count = %d after close", svc.SessionCount())
	}
	if _, err := sess.Run(context.Background(), streamQuery, nil); err == nil {
		t.Fatal("Run on a closed session should fail")
	}
}

// TestKillStreamingQuery kills a mid-stream query through the telemetry
// registry — the path DELETE /debug/queries/{id} and KILL <id> use — and
// expects the stream to end with context.Canceled.
func TestKillStreamingQuery(t *testing.T) {
	svc := testService(t, Options{FetchBatch: 1})
	sess := svc.OpenSession("test")
	defer sess.Close()

	// Distinct variable names make the registry entry unambiguous — other
	// tests stream the same pattern, and a just-canceled run of theirs can
	// still be unwinding in the active snapshot.
	const killQuery = `MATCH (ka:Person)-[:knows]-(kb:Person) RETURN ka, kb`
	cur, err := sess.Run(context.Background(), killQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One fetched row proves the query is registered and producing.
	if _, _, err := cur.Fetch(1); err != nil {
		t.Fatal(err)
	}
	active, _ := telemetry.DefaultQueries.Snapshot()
	var killed bool
	for _, qs := range active {
		if qs.Query == killQuery && telemetry.DefaultQueries.Kill(qs.ID) {
			killed = true
			break
		}
	}
	if !killed {
		t.Fatalf("streamed query not visible in registry: %+v", active)
	}
	// The tiny buffer (1 row) cannot absorb the rest of the result, so the
	// stream must surface the kill within a few fetches.
	for i := 0; i < 4; i++ {
		_, more, err := cur.Fetch(1)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("killed stream ended with %v, want context.Canceled", err)
			}
			return
		}
		if !more {
			t.Fatal("killed stream reported clean exhaustion")
		}
	}
	t.Fatal("kill did not surface within 4 fetches")
}

// activeQueryID returns the registry id of the running query with the given
// text, or false.
func activeQueryID(query string) (uint64, bool) {
	active, _ := telemetry.DefaultQueries.Snapshot()
	for _, qs := range active {
		if qs.Query == query {
			return qs.ID, true
		}
	}
	return 0, false
}

// waitUntil polls cond every millisecond for up to 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after 5s waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillOrDiscardUnblocksFullBuffer: a producer blocked handing off a
// full batch that nobody fetches must unwind on KILL and on Discard, and its
// query must leave the registry's active list. TestKillStreamingQuery cannot
// see this: it fetches after the kill, which takes the batch and would
// unblock even a producer that ignored the cancellation.
func TestKillOrDiscardUnblocksFullBuffer(t *testing.T) {
	for _, how := range []string{"kill", "discard"} {
		t.Run(how, func(t *testing.T) {
			svc := testService(t, Options{FetchBatch: 2})
			sess := svc.OpenSession("test")
			defer sess.Close()

			// Variable names unique to this subtest keep the registry entry
			// unambiguous.
			query := fmt.Sprintf(`MATCH (%[1]sa:Person)-[:knows]-(%[1]sb:Person) RETURN %[1]sa, %[1]sb`, how)
			cur, err := sess.Run(context.Background(), query, nil)
			if err != nil {
				t.Fatal(err)
			}
			var id uint64
			waitUntil(t, "the query registers", func() bool {
				var ok bool
				id, ok = activeQueryID(query)
				return ok
			})
			// The result is far larger than one batch, so the producer is
			// about to block handing off its first, which nothing observable
			// marks. The pause is not needed to pass; it makes sure a producer
			// that ignored the cancellation would already be stuck in that
			// handoff rather than still before the check that precedes it.
			time.Sleep(20 * time.Millisecond)
			if how == "kill" {
				if !telemetry.DefaultQueries.Kill(id) {
					t.Fatalf("kill of query %d failed", id)
				}
			} else {
				cur.Discard()
			}
			waitUntil(t, "the "+how+"ed query leaves the active list", func() bool {
				_, ok := activeQueryID(query)
				return !ok
			})
		})
	}
}

// TestIntrospectionAccessorsRaceFree is for -race. The introspection
// accessors are meant for goroutines the module does not start (an HTTP
// handler, a /metrics scrape), so this test calls them in a loop while other
// goroutines, each on its own session, stream and fetch.
// Every run starts from a fresh source, so every query adds to the matrix
// cache.
func TestIntrospectionAccessorsRaceFree(t *testing.T) {
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 200, NumEdges: 700, Seed: 8, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(g, engine.Options{CacheBytes: engine.DefaultCacheBytes})
	svc := NewService(eng, Options{FetchBatch: 4})
	const query = `MATCH (ra:Person {id:$id})-[:knows*1..2]-(rb:Person) RETURN ra, rb`
	ids := g.Prop("id").(graph.Int64Column)

	const workers = 3
	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := svc.OpenSession("race")
			defer sess.Close()
			for i := w; i < 30; i += workers {
				cur, err := sess.Run(context.Background(), query, map[string]any{"id": ids[i]})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					_, more, err := cur.Fetch(0)
					if err != nil {
						t.Error(err)
						return
					}
					if !more {
						break
					}
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	var sink int64
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		entries, bytes := eng.CacheStats()
		sink += int64(entries) + bytes + eng.MemoryInUse()
		sink += int64(svc.SessionCount())
	}
	if entries, _ := eng.CacheStats(); entries == 0 {
		t.Fatalf("no expansion reached the matrix cache (accessor sum %d)", sink)
	}
}

// TestConcurrentSessions exercises the cursor registry under -race: many
// sessions streaming, discarding, and closing concurrently.
func TestConcurrentSessions(t *testing.T) {
	svc := testService(t, Options{FetchBatch: 16})
	acct := svc.Engine().Accountant()
	base := acct.InUse()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := svc.OpenSession(fmt.Sprintf("worker-%d", i))
			defer sess.Close()
			cur, err := sess.Run(context.Background(), streamQuery, nil)
			if err != nil {
				t.Error(err)
				return
			}
			switch i % 3 {
			case 0: // drain fully
				for {
					_, more, err := cur.Fetch(0)
					if err != nil {
						t.Error(err)
						return
					}
					if !more {
						return
					}
				}
			case 1: // fetch a little, then discard
				if _, _, err := cur.Fetch(5); err != nil {
					t.Error(err)
				}
				cur.Discard()
			default: // abandon mid-stream; the deferred Close reaps
				_, _, _ = cur.Fetch(3)
			}
		}(i)
	}
	wg.Wait()

	deadline := time.After(5 * time.Second)
	for acct.InUse() != base {
		select {
		case <-deadline:
			t.Fatalf("accountant in-use %d did not return to baseline %d", acct.InUse(), base)
		case <-time.After(time.Millisecond):
		}
	}
	if svc.SessionCount() != 0 {
		t.Fatalf("session count = %d after all closes", svc.SessionCount())
	}
}

// TestStreamLimit: LIMIT stops the stream early with a clean completion.
func TestStreamLimit(t *testing.T) {
	svc := testService(t, Options{FetchBatch: 8})
	sess := svc.OpenSession("test")
	defer sess.Close()

	cur, err := sess.Run(context.Background(), streamQuery+` LIMIT 10`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, cur, 0)
	if len(rows) != 10 {
		t.Fatalf("LIMIT 10 streamed %d rows", len(rows))
	}
}

// TestCursorRejectsExplainAndProfile pins that a cursor refuses the query
// prefixes whose answer is not rows: EXPLAIN's plan, EXPLAIN ANALYZE's
// analysis and PROFILE's span tree would otherwise vanish into an empty or
// profile-less result. Execute still returns all three.
func TestCursorRejectsExplainAndProfile(t *testing.T) {
	svc := testService(t, Options{})
	acct := svc.Engine().Accountant()
	base := acct.InUse()
	sess := svc.OpenSession("test")
	defer sess.Close()
	const count = `MATCH (p:Person)-[:knows]-(q:Person) RETURN COUNT(DISTINCT p, q)`
	for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE ", "PROFILE "} {
		for _, src := range []string{prefix + streamQuery, prefix + count} {
			if _, err := sess.Run(context.Background(), src, nil); err == nil {
				t.Errorf("Run(%q) opened a cursor, want an error", src)
			}
		}
		q, err := cypher.Parse(prefix + count)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Execute(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("Execute(%q): %v", q.Raw, err)
		}
		if res.Plan == "" && res.Analysis == nil && res.Profile == nil {
			t.Errorf("Execute(%q) returned no plan, analysis or profile", q.Raw)
		}
	}
	if got := acct.InUse() - base; got != 0 {
		t.Fatalf("refused queries left %d bytes reserved", got)
	}
}
