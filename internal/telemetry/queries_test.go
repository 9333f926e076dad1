package telemetry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestQueryRegistryLifecycle(t *testing.T) {
	r := NewQueryRegistry(8)
	canceled := false
	qi := r.Register("MATCH (a) RETURN a", "req-7", func() { canceled = true })
	if qi.ID() == 0 {
		t.Fatal("Register assigned id 0")
	}
	qi.SetPhase(PhaseExecute)
	qi.AddOps(3)
	qi.OpStarted()
	qi.OpFinished()
	qi.AddPairs(42)
	qi.AddMatrixBytes(1024)
	qi.AddCacheHit()

	active, history := r.Snapshot()
	if len(active) != 1 || len(history) != 0 {
		t.Fatalf("Snapshot = %d active, %d history; want 1, 0", len(active), len(history))
	}
	a := active[0]
	if a.ID != qi.ID() || a.Query != "MATCH (a) RETURN a" || a.RequestID != "req-7" {
		t.Fatalf("active snapshot identity = %+v", a)
	}
	if a.Phase != "execute" {
		t.Fatalf("Phase = %q, want execute", a.Phase)
	}
	p := a.Progress
	if p.OpsTotal != 3 || p.OpsDone != 1 || p.OpsRunning != 0 || p.OpsQueued != 2 {
		t.Fatalf("ops progress = %+v", p)
	}
	if c := a.Cost; c.Pairs != 42 || c.MatrixBytes != 1024 || c.CacheHits != 1 {
		t.Fatalf("counters = %+v", c)
	}

	r.Complete(qi, 5, nil)
	active, history = r.Snapshot()
	if len(active) != 0 || len(history) != 1 {
		t.Fatalf("after Complete: %d active, %d history", len(active), len(history))
	}
	h := history[0]
	if h.ID != qi.ID() || h.Status != "ok" || h.Rows != 5 || h.Error != "" {
		t.Fatalf("history record = %+v", h)
	}
	if canceled {
		t.Fatal("Complete must not invoke cancel")
	}

	// Double-complete records only once.
	r.Complete(qi, 99, errors.New("late"))
	_, history = r.Snapshot()
	if len(history) != 1 || history[0].Rows != 5 {
		t.Fatalf("double Complete changed history: %+v", history)
	}
}

func TestQueryRegistryStatuses(t *testing.T) {
	r := NewQueryRegistry(8)

	qe := r.Register("bad query", "", nil)
	r.Complete(qe, 0, errors.New("boom"))

	qk := r.Register("slow query", "", func() {})
	if !r.Kill(qk.ID()) {
		t.Fatal("Kill returned false for a running query")
	}
	if !qk.Killed() {
		t.Fatal("Killed() = false after Kill")
	}
	r.Complete(qk, 0, context.Canceled)

	if r.Kill(12345) {
		t.Fatal("Kill of unknown id returned true")
	}

	_, history := r.Snapshot()
	if len(history) != 2 {
		t.Fatalf("history len = %d", len(history))
	}
	// Newest first: the killed query completed last.
	if history[0].Status != "killed" {
		t.Fatalf("killed query status = %q", history[0].Status)
	}
	if history[1].Status != "error" || history[1].Error != "boom" {
		t.Fatalf("failed query record = %+v", history[1])
	}
}

func TestQueryRegistryKillCancels(t *testing.T) {
	r := NewQueryRegistry(4)
	ctx, cancel := context.WithCancel(context.Background())
	qi := r.Register("q", "", cancel)
	if err := ctx.Err(); err != nil {
		t.Fatalf("ctx canceled before Kill: %v", err)
	}
	r.Kill(qi.ID())
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v after Kill, want Canceled", ctx.Err())
	}
}

func TestQueryRegistryHistoryEviction(t *testing.T) {
	r := NewQueryRegistry(3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		qi := r.Register(fmt.Sprintf("q%d", i), "", nil)
		ids = append(ids, qi.ID())
		r.Complete(qi, int64(i), nil)
	}
	_, history := r.Snapshot()
	if len(history) != 3 {
		t.Fatalf("history len = %d, want 3 (ring capacity)", len(history))
	}
	// Newest first: q4, q3, q2 — q0 and q1 evicted in arrival order.
	for i, want := range []uint64{ids[4], ids[3], ids[2]} {
		if history[i].ID != want {
			t.Fatalf("history[%d].ID = %d, want %d (order %+v)", i, history[i].ID, want, history)
		}
	}
}

func TestQueryRegistryConcurrent(t *testing.T) {
	r := NewQueryRegistry(16)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := r.Register(fmt.Sprintf("w%d-q%d", w, i), "", func() {})
				qi.SetPhase(PhaseExecute)
				qi.AddOps(2)
				qi.OpStarted()
				qi.AddPairs(10)
				if i%7 == 0 {
					r.Kill(qi.ID())
				}
				qi.OpFinished()
				r.Complete(qi, 1, nil)
			}
		}(w)
	}
	// Concurrent snapshots while the workers churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	active, history := r.Snapshot()
	if len(active) != 0 {
		t.Fatalf("%d queries leaked in active set", len(active))
	}
	if len(history) != 16 {
		t.Fatalf("history len = %d, want ring capacity 16", len(history))
	}
}

func TestQueryInfoNilSafe(t *testing.T) {
	var qi *QueryInfo
	qi.SetPhase(PhaseExecute)
	qi.AddOps(1)
	qi.OpStarted()
	qi.OpFinished()
	qi.AddPairs(1)
	qi.AddMatrixBytes(1)
	qi.AddCacheHit()
	if qi.ID() != 0 || qi.Killed() {
		t.Fatal("nil QueryInfo accessors")
	}
	// Complete on nil must be a no-op, not a panic.
	NewQueryRegistry(2).Complete(nil, 0, nil)
}

// TestDisabledAttributionAllocs pins the nil-receiver attribution path —
// what unregistered executions pay — at zero allocations.
func TestDisabledAttributionAllocs(t *testing.T) {
	var q *QueryInfo
	if n := testing.AllocsPerRun(200, func() {
		q.AddCPUNanos(5)
		q.AddCacheBytes(10)
		q.AddSpillWriteBytes(10)
		q.AddSpillReadBytes(10)
		q.AddRows(1)
		q.AddMatrixBytes(64)
	}); n != 0 {
		t.Errorf("nil QueryInfo attribution allocates %v per run, want 0", n)
	}
}

func TestQueryContextCarriage(t *testing.T) {
	if CurrentQuery(context.Background()) != nil {
		t.Fatal("CurrentQuery on background ctx != nil")
	}
	r := NewQueryRegistry(2)
	qi := r.Register("q", "", nil)
	ctx := WithQuery(context.Background(), qi)
	if CurrentQuery(ctx) != qi {
		t.Fatal("CurrentQuery did not round-trip")
	}
	if RequestIDFromContext(ctx) != "" {
		t.Fatal("RequestIDFromContext on unset ctx != empty")
	}
	ctx = WithRequestID(ctx, "42")
	if RequestIDFromContext(ctx) != "42" {
		t.Fatal("RequestIDFromContext did not round-trip")
	}
}

func TestQueryPhaseString(t *testing.T) {
	for phase, want := range map[QueryPhase]string{
		PhaseStart:    "start",
		PhasePlan:     "plan",
		PhaseExecute:  "execute",
		QueryPhase(9): "start",
	} {
		if got := phase.String(); got != want {
			t.Errorf("QueryPhase(%d).String() = %q, want %q", phase, got, want)
		}
	}
}
