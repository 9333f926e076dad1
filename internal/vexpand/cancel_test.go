package vexpand

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// cancelCases enumerates one determiner per cancellation checkpoint: the
// matrix kernels' per-step check and the BFS kernel's per-row/per-step
// worker checks.
func cancelCases() []struct {
	name   string
	kernel Kernel
	d      pattern.Determiner
} {
	return []struct {
		name   string
		kernel Kernel
		d      pattern.Determiner
	}{
		{"matrix", Hilbert, pattern.Determiner{KMin: 1, KMax: 6, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}},
		{"bfs", BFS, pattern.Determiner{KMin: 1, KMax: 6, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}},
	}
}

// TestExpandContextPreCanceled pins that a canceled context fails the
// expansion before any step runs, on every kernel family.
func TestExpandContextPreCanceled(t *testing.T) {
	ensureParallel(t)
	g := raceGraph(t, 1400, 7000)
	sources := make([]graph.VertexID, 1152)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := ExpandContext(ctx, g, sources, tc.d, Options{Kernel: tc.kernel, Workers: 4})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ExpandContext on canceled context = %v, want context.Canceled", err)
			}
		})
	}
}

// pollCtx is a context whose Err turns on at its switchAt-th call, with no
// timer, and counts the calls made after the switch.
type pollCtx struct {
	context.Context
	switchAt int64
	polls    atomic.Int64
	late     atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.switchAt {
		c.late.Add(1)
		return context.Canceled
	}
	return nil
}

// TestExpandContextCancelsMidExpand cancels a deliberately large expansion
// halfway through its context polls and requires that no worker starts a
// new step or row after the cancel: the matrix kernels poll once per step
// and each BFS worker once per row and per step, so after the switch each
// worker makes one poll, and the expansion one closing check. Run under
// -race this also proves the cancellation paths are data-race-free.
func TestExpandContextCancelsMidExpand(t *testing.T) {
	ensureParallel(t)
	g := raceGraph(t, 4000, 60000)
	sources := make([]graph.VertexID, 1536)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	const workers = 4
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Kernel: tc.kernel, Workers: workers}
			count := &pollCtx{Context: context.Background(), switchAt: 1 << 62}
			if _, err := ExpandContext(count, g, sources, tc.d, opts); err != nil {
				t.Fatal(err)
			}
			total := count.polls.Load()
			if total < 4 {
				t.Fatalf("full expansion polled only %d times; too short to cancel mid-run", total)
			}
			ctx := &pollCtx{Context: context.Background(), switchAt: total / 2}
			_, err := ExpandContext(ctx, g, sources, tc.d, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-expand cancel = %v, want context.Canceled", err)
			}
			if late := ctx.late.Load(); late > workers+1 {
				t.Fatalf("%d polls after the cancel (of %d in a full run); at most %d, one per worker and the closing check",
					late, total, workers+1)
			}
		})
	}
}

// failingBudget refuses every reservation past a threshold.
type failingBudget struct {
	limit, used int64
}

func (b *failingBudget) Reserve(n int64) error {
	if b.used+n > b.limit {
		return fmt.Errorf("test budget exceeded: %d + %d > %d", b.used, n, b.limit)
	}
	b.used += n
	return nil
}

func (b *failingBudget) Release(n int64) { b.used -= n }

// TestExpandBudgetReserveAndRelease pins the memory-accounting contract:
// expansions reserve their matrix bytes against Options.Budget and release
// everything on return, success or failure.
func TestExpandBudgetReserveAndRelease(t *testing.T) {
	g := raceGraph(t, 1400, 7000)
	sources := make([]graph.VertexID, 600)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	d := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Any, EdgeLabels: []string{"knows"}}

	// Generous budget: expansion succeeds and the balance returns to zero.
	b := &failingBudget{limit: 1 << 30}
	r, err := Expand(g, sources, d, Options{Kernel: Hilbert, Workers: 2, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.MatrixBytes <= 0 {
		t.Fatal("no matrix bytes reported")
	}
	if b.used != 0 {
		t.Fatalf("budget not fully released after success: %d bytes held", b.used)
	}

	// A budget smaller than one result matrix fails the expansion cleanly
	// and leaves nothing reserved.
	tight := &failingBudget{limit: 64}
	_, err = Expand(g, sources, d, Options{Kernel: Hilbert, Workers: 2, Budget: tight})
	if err == nil {
		t.Fatal("64-byte budget accepted a full expansion")
	}
	if tight.used != 0 {
		t.Fatalf("failed expansion leaked %d reserved bytes", tight.used)
	}

	// BFS kernel follows the same contract.
	dShort := pattern.Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: pattern.Shortest, EdgeLabels: []string{"knows"}}
	b2 := &failingBudget{limit: 1 << 30}
	if _, err := Expand(g, sources, dShort, Options{Kernel: BFS, Workers: 2, Budget: b2}); err != nil {
		t.Fatal(err)
	}
	if b2.used != 0 {
		t.Fatalf("BFS budget not fully released: %d bytes held", b2.used)
	}
}
