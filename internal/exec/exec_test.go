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
)

// testOp is a scriptable operator for scheduler tests.
type testOp struct {
	name string
	fn   func(qc *QueryContext) error
}

func (o *testOp) Name() string               { return o.name }
func (o *testOp) Run(qc *QueryContext) error { return o.fn(qc) }

func TestDAGRespectsDependencies(t *testing.T) {
	var mu sync.Mutex
	var order []string
	record := func(name string) *testOp {
		return &testOp{name: name, fn: func(*QueryContext) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}}
	}
	d := NewDAG()
	a := d.Add(record("a"))
	b := d.Add(record("b"))
	c := d.Add(record("c"), a, b)
	d.Add(record("d"), c)
	qc := NewQueryContext(context.Background(), nil, 4)
	if err := d.Run(qc); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, name := range order {
		pos[name] = i
	}
	if len(order) != 4 {
		t.Fatalf("ran %v, want all 4 operators", order)
	}
	if pos["c"] < pos["a"] || pos["c"] < pos["b"] || pos["d"] < pos["c"] {
		t.Fatalf("dependency order violated: %v", order)
	}
}

func TestDAGEmptyAndSingle(t *testing.T) {
	qc := NewQueryContext(context.Background(), nil, 1)
	if err := NewDAG().Run(qc); err != nil {
		t.Fatalf("empty DAG: %v", err)
	}
	ran := false
	d := NewDAG()
	d.Add(&testOp{name: "only", fn: func(*QueryContext) error { ran = true; return nil }})
	if err := d.Run(qc); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single operator never ran")
	}
}

// TestDAGIndependentOpsOverlap pins the tentpole property: with Workers ≥ 2,
// two independent operators execute concurrently. Each op blocks until both
// arrived; serial scheduling would time out inside the first op.
func TestDAGIndependentOpsOverlap(t *testing.T) {
	arrived := make(chan string, 2)
	release := make(chan struct{})
	mk := func(name string) *testOp {
		return &testOp{name: name, fn: func(*QueryContext) error {
			arrived <- name
			select {
			case <-release:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("%s never saw its sibling: ops did not overlap", name)
			}
		}}
	}
	d := NewDAG()
	d.Add(mk("x"))
	d.Add(mk("y"))
	go func() {
		<-arrived
		<-arrived
		close(release)
	}()
	qc := NewQueryContext(context.Background(), nil, 2)
	if err := d.Run(qc); err != nil {
		t.Fatal(err)
	}
}

func TestDAGWorkerBound(t *testing.T) {
	var active, peak atomic.Int32
	mk := func(i int) *testOp {
		return &testOp{name: fmt.Sprintf("op%d", i), fn: func(*QueryContext) error {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			active.Add(-1)
			return nil
		}}
	}
	d := NewDAG()
	for i := 0; i < 8; i++ {
		d.Add(mk(i))
	}
	qc := NewQueryContext(context.Background(), nil, 1)
	if err := d.Run(qc); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Fatalf("peak concurrency %d with workers=1", peak.Load())
	}
}

func TestDAGErrorStopsSuccessors(t *testing.T) {
	sentinel := errors.New("kaboom")
	var ranSucc atomic.Bool
	d := NewDAG()
	bad := d.Add(&testOp{name: "bad", fn: func(*QueryContext) error { return sentinel }})
	d.Add(&testOp{name: "succ", fn: func(*QueryContext) error {
		ranSucc.Store(true)
		return nil
	}}, bad)
	qc := NewQueryContext(context.Background(), nil, 2)
	err := d.Run(qc)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %q does not name the failing operator", err)
	}
	if ranSucc.Load() {
		t.Fatal("successor of a failed operator ran")
	}
}

func TestDAGCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	d := NewDAG()
	d.Add(&testOp{name: "op", fn: func(*QueryContext) error {
		ran.Store(true)
		return nil
	}})
	qc := NewQueryContext(ctx, nil, 2)
	err := d.Run(qc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("operator ran under a pre-canceled context")
	}
}

func TestDAGCycleDetected(t *testing.T) {
	d := NewDAG()
	na := d.Add(&testOp{name: "a", fn: func(*QueryContext) error { return nil }})
	nb := d.Add(&testOp{name: "b", fn: func(*QueryContext) error { return nil }}, na)
	// Close the loop by hand (Add cannot build one): a now also waits on b.
	na.ndeps++
	nb.succs = append(nb.succs, na)
	qc := NewQueryContext(context.Background(), nil, 2)
	err := d.Run(qc)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want dependency-cycle error", err)
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
