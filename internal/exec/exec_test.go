package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/vexpand"
)

// chain builds the path 0 → 1 → … → n-1 over "next" edges.
func chain(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge("next", graph.VertexID(v-1), graph.VertexID(v))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainOp expands from vertex 0 of g over up to kmax "next" edges with a
// matrix kernel, which checks for cancellation once per step: on a long
// chain it runs one step per vertex.
func chainOp(g *graph.Graph, kmax int) *ExpandOp {
	return &ExpandOp{
		Graph:   g,
		Sources: []graph.VertexID{0},
		D: pattern.Determiner{
			KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any, EdgeLabels: []string{"next"},
		},
		Opts:  vexpand.Options{Kernel: vexpand.Hilbert, Workers: 1},
		Edges: []int{0},
	}
}

func TestRunExpandsEmptyAndSingle(t *testing.T) {
	qc := NewQueryContext(context.Background(), nil, 1)
	if err := RunExpands(qc, nil); err != nil {
		t.Fatalf("no ops: %v", err)
	}
	op := chainOp(chain(t, 8), 2)
	if err := RunExpands(qc, []*ExpandOp{op}); err != nil {
		t.Fatal(err)
	}
	if op.Result == nil || op.Result.PairCount() != 2 || op.CacheState != "off" {
		t.Fatalf("single op: result %v, cache %q; want 2 pairs, cache off", op.Result, op.CacheState)
	}
}

// TestRunExpandsOverlap pins the fan-out's reason to exist: with Workers ≥ 2,
// two ops execute concurrently. Each op blocks until both arrived; serial
// execution would time out inside the first op.
func TestRunExpandsOverlap(t *testing.T) {
	arrived := make(chan int, 2)
	release := make(chan struct{})
	go func() {
		<-arrived
		<-arrived
		close(release)
	}()
	qc := NewQueryContext(context.Background(), nil, 2)
	err := fanOut(qc, 2, func(_ *QueryContext, i int) error {
		arrived <- i
		select {
		case <-release:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("op %d never saw its sibling: ops did not overlap", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunExpandsWorkerBound(t *testing.T) {
	var active, peak, ran atomic.Int32
	qc := NewQueryContext(context.Background(), nil, 1)
	err := fanOut(qc, 8, func(*QueryContext, int) error {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 || ran.Load() != 8 {
		t.Fatalf("peak concurrency %d over %d ops with workers=1, want 1 over 8", peak.Load(), ran.Load())
	}
}

func TestRunExpandsErrorNamesOperator(t *testing.T) {
	op := chainOp(chain(t, 8), 2)
	op.Opts.Budget = NewAccountant(1) // refuses the matrix
	err := RunExpands(NewQueryContext(context.Background(), nil, 2), []*ExpandOp{op})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !strings.HasPrefix(err.Error(), "expand: ") {
		t.Fatalf("error %q does not name the failing operator", err)
	}
}

// TestRunExpandsFirstErrorCancelsSiblings pins first-error cancellation: one
// expansion fails at once and its sibling, a one-step-per-vertex walk down a
// long chain, stops at its next cancellation check instead of running to
// completion. The first error is what returns, not the sibling's
// context.Canceled.
func TestRunExpandsFirstErrorCancelsSiblings(t *testing.T) {
	const n = 1 << 12
	g := chain(t, n)
	long := chainOp(g, n-1)
	bad := chainOp(g, 1)
	bad.Opts.Budget = NewAccountant(1) // refuses the matrix
	err := RunExpands(NewQueryContext(context.Background(), nil, 2), []*ExpandOp{long, bad})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if long.Result != nil {
		t.Fatalf("sibling ran %d steps to completion after the first error", long.Result.Stats.Steps)
	}
}

// TestFanOutConcurrentFailures: eight ops wait for each other and then all
// fail, so eight workers report a failure at the same moment. The result
// must be one op's own error, not a sibling's context.Canceled, and under
// -race the concurrent reports must not race on the first-error slot.
func TestFanOutConcurrentFailures(t *testing.T) {
	const n = 8
	var arrived sync.WaitGroup
	arrived.Add(n)
	release := make(chan struct{})
	go func() {
		arrived.Wait()
		close(release)
	}()
	err := fanOut(NewQueryContext(context.Background(), nil, n), n, func(_ *QueryContext, i int) error {
		arrived.Done()
		select {
		case <-release:
			return fmt.Errorf("op %d failed", i)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("op %d never saw its siblings: ops did not overlap", i)
		}
	})
	if err == nil || errors.Is(err, context.Canceled) || !strings.HasSuffix(err.Error(), " failed") {
		t.Fatalf("err = %v, want one op's own failure", err)
	}
}

// TestRunExpandsPreCanceled pins that a canceled query starts no op.
func TestRunExpandsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := chainOp(chain(t, 8), 2)
	err := RunExpands(NewQueryContext(ctx, nil, 2), []*ExpandOp{op})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if op.Result != nil {
		t.Fatal("operator ran under a pre-canceled context")
	}
}

func TestQueryContextDefaults(t *testing.T) {
	qc := NewQueryContext(context.Background(), nil, 0)
	if qc.Workers() < 1 {
		t.Fatalf("Workers() = %d, want ≥ 1", qc.Workers())
	}
	if qc.Budget() != nil {
		t.Fatal("nil budget should stay nil")
	}
	if qc.Err() != nil {
		t.Fatalf("fresh context errored: %v", qc.Err())
	}
}

func TestAccountantLimit(t *testing.T) {
	a := NewAccountant(100)
	if err := a.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(40); err != nil {
		t.Fatal(err)
	}
	err := a.Reserve(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-limit Reserve = %v, want ErrBudgetExceeded", err)
	}
	a.Release(50)
	if got := a.InUse(); got != 50 {
		t.Fatalf("InUse = %d, want 50", got)
	}
	if err := a.Reserve(50); err != nil {
		t.Fatal(err)
	}
	if a.Limit() != 100 {
		t.Fatalf("Limit = %d", a.Limit())
	}
}

func TestAccountantOnPressureRetries(t *testing.T) {
	a := NewAccountant(100)
	if err := a.Reserve(90); err != nil {
		t.Fatal(err)
	}
	calls := 0
	a.OnPressure = func(need int64) {
		calls++
		if need != 20 {
			t.Errorf("OnPressure need = %d, want 20", need)
		}
		a.Release(30) // free enough for the retry
	}
	if err := a.Reserve(20); err != nil {
		t.Fatalf("Reserve after pressure relief: %v", err)
	}
	if calls != 1 {
		t.Fatalf("OnPressure ran %d times, want 1", calls)
	}
	// Pressure that frees nothing still fails.
	a.OnPressure = func(int64) {}
	if err := a.Reserve(1000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("unrelieved Reserve = %v", err)
	}
}

func TestAccountantTryReserveSkipsPressure(t *testing.T) {
	a := NewAccountant(10)
	a.OnPressure = func(int64) { t.Fatal("TryReserve must not invoke OnPressure") }
	if !a.TryReserve(10) {
		t.Fatal("in-budget TryReserve failed")
	}
	if a.TryReserve(1) {
		t.Fatal("over-budget TryReserve succeeded")
	}
}

func TestAccountantReleaseClamps(t *testing.T) {
	a := NewAccountant(100)
	if err := a.Reserve(10); err != nil {
		t.Fatal(err)
	}
	a.Release(999)
	if got := a.InUse(); got != 0 {
		t.Fatalf("over-release left InUse = %d, want clamp to 0", got)
	}
}

func TestAccountantUnlimitedMeters(t *testing.T) {
	a := NewAccountant(0)
	if err := a.Reserve(1 << 40); err != nil {
		t.Fatalf("unlimited accountant refused: %v", err)
	}
	if got := a.InUse(); got != 1<<40 {
		t.Fatalf("InUse = %d, want metered bytes", got)
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var a *Accountant
	if err := a.Reserve(10); err != nil {
		t.Fatal(err)
	}
	if !a.TryReserve(10) {
		t.Fatal("nil TryReserve failed")
	}
	a.Release(10)
	if a.InUse() != 0 || a.Limit() != 0 {
		t.Fatal("nil accountant reported usage")
	}
}

// TestAssembleReleasesClonesOnError pins Assemble's contract: parallel edges
// clone on AND and report the reserved bytes, and a clone the budget refuses
// fails the assembly with nothing left reserved.
func TestAssembleReleasesClonesOnError(t *testing.T) {
	src := func() *ExpandOp { return &ExpandOp{Result: result64(32)} }
	one := int64(src().Result.Reach.SizeBytes())
	// Two join slots, each with a parallel edge: two clones wanted.
	op := &IntersectOp{
		NumPatternVertices: 3,
		RowCandidates:      make([][]graph.VertexID, 3),
		Edges: []JoinEdge{
			{EarlierPos: 0, LaterPos: 1, Src: src()}, {EarlierPos: 0, LaterPos: 1, Src: src()},
			{EarlierPos: 1, LaterPos: 2, Src: src()}, {EarlierPos: 1, LaterPos: 2, Src: src()},
		},
	}

	acct := NewAccountant(2 * one)
	in, cloned, err := op.Assemble(NewQueryContext(context.Background(), acct, 1))
	if err != nil || in.First == nil || len(in.Ext[2]) != 1 {
		t.Fatalf("Assemble = %+v, %v", in, err)
	}
	if cloned != 2*one || acct.InUse() != cloned {
		t.Fatalf("cloned %d, in use %d, want %d", cloned, acct.InUse(), 2*one)
	}

	acct = NewAccountant(one) // room for the first clone only
	_, cloned, err = op.Assemble(NewQueryContext(context.Background(), acct, 1))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Assemble over budget = %v, want ErrBudgetExceeded", err)
	}
	if cloned != 0 || acct.InUse() != 0 {
		t.Fatalf("failed Assemble left %d cloned, %d in use", cloned, acct.InUse())
	}
}
