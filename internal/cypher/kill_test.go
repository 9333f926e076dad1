package cypher

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// TestKillCancelsRunningQuery drives the full KILL path: a long chain
// expansion is registered, shows live pair progress, is killed by registry
// id mid-expand, unwinds with context.Canceled within the kernel's
// cancellation poll interval, and lands in history as "killed".
func TestKillCancelsRunningQuery(t *testing.T) {
	// A directed chain forces KMax sequential BFS steps with a frontier of
	// one vertex — long wall-clock, tiny memory, per-step progress.
	const n = 1 << 18
	b := graph.NewBuilder(n)
	b.SetLabel(0, "Start")
	src := make([]uint32, n-1)
	dst := make([]uint32, n-1)
	for i := range src {
		src[i] = uint32(i)
		dst[i] = uint32(i + 1)
	}
	b.AddEdges("next", src, dst)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(g, engine.Options{})
	q, err := Parse(fmt.Sprintf(
		`MATCH (a:Start)-[:next*1..%d]->(c) RETURN COUNT(DISTINCT a,c)`, n))
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, rerr := RunContext(context.Background(), eng, q, nil)
		errc <- rerr
	}()

	// Wait until the registry shows our query executing with non-zero pair
	// progress — proof the live counters are fed mid-expand.
	var id uint64
	deadline := time.Now().Add(15 * time.Second)
poll:
	for {
		select {
		case rerr := <-errc:
			t.Fatalf("query finished before it could be killed (err=%v); chain too short for this machine", rerr)
		default:
		}
		active, _ := telemetry.DefaultQueries.Snapshot()
		for _, a := range active {
			if strings.Contains(a.Query, ":next*") && a.Cost.Pairs > 0 {
				id = a.ID
				break poll
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in the registry with pair progress")
		}
		time.Sleep(time.Millisecond)
	}

	if !telemetry.DefaultQueries.Kill(id) {
		t.Fatalf("Kill(%d) = false for a running query", id)
	}
	select {
	case rerr := <-errc:
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("killed query returned %v, want context.Canceled", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not unwind within 5s of KILL")
	}

	_, history := telemetry.DefaultQueries.Snapshot()
	for _, h := range history {
		if h.ID == id {
			if h.Status != "killed" {
				t.Fatalf("history status = %q, want killed (record %+v)", h.Status, h)
			}
			return
		}
	}
	t.Fatalf("killed query %d not recorded in history", id)
}

// TestStreamPhasesAndPlanningCPU pins that a streamed query is registered
// like a materialized one: by the time its first row arrives the registry
// shows it past "start" and carrying attributed CPU time. The single-vertex
// stream never schedules an operator, so its phase is still "plan" and its
// CPU is the planning time alone.
func TestStreamPhasesAndPlanningCPU(t *testing.T) {
	eng := socialEngine(t)
	atFirstRow := func(src string) telemetry.QuerySnapshot {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var snap *telemetry.QuerySnapshot
		err = Stream(context.Background(), eng, q, nil, func(ctx context.Context, _ []any) error {
			if snap != nil {
				return nil
			}
			id := telemetry.CurrentQuery(ctx).ID()
			active, _ := telemetry.DefaultQueries.Snapshot()
			for i := range active {
				if active[i].ID == id {
					snap = &active[i]
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatalf("%q: not in the registry at its first row", src)
		}
		return *snap
	}
	for _, c := range []struct{ src, phase string }{
		{`MATCH (p:SIGA) RETURN p`, "plan"},
		{`MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q`, "execute"},
	} {
		snap := atFirstRow(c.src)
		if snap.Phase != c.phase {
			t.Errorf("%q: phase at first row = %q, want %q", c.src, snap.Phase, c.phase)
		}
		if snap.Cost.CPUMs <= 0 {
			t.Errorf("%q: no CPU time attributed before the first row", c.src)
		}
	}
}
