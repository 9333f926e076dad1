// Package exec is VertexSurge's physical execution layer: a per-query
// QueryContext (deadline, cancellation, memory budget, trace), the ExpandOp
// physical operator, the bounded fan-out that runs a plan's expansions
// (RunExpands), and the join-input assembly (IntersectOp.Assemble).
//
// The engine lowers a planner.Plan's expansions to one ExpandOp per distinct
// expansion. No expansion reads another's output, so RunExpands runs them
// in parallel, bounded by the worker count: independent VExpands overlap,
// which the serial edge loop the paper describes (§5) never did. The join
// and the tuple reorder consume every expansion, overlap with nothing, and
// so run on the engine's calling goroutine after RunExpands returns.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// QueryContext carries the per-query execution state every operator sees:
// the context (deadline, cancellation, telemetry trace), the shared memory
// accountant, and the worker bound of RunExpands.
type QueryContext struct {
	ctx     context.Context
	budget  *Accountant
	workers int

	// query is the registry entry of the running query (nil when the
	// execution is unregistered — direct engine calls, tests). RunExpands
	// and the operators feed its progress counters; every QueryInfo
	// method is nil-safe, so operators never branch on registration.
	query *telemetry.QueryInfo

	// activeExpands tracks currently running ExpandOps to detect (and
	// count) genuine overlap.
	activeExpands atomic.Int32
}

// NewQueryContext wraps ctx for one query. budget may be nil (unmetered);
// workers ≤ 0 means GOMAXPROCS.
func NewQueryContext(ctx context.Context, budget *Accountant, workers int) *QueryContext {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &QueryContext{
		ctx:     ctx,
		budget:  budget,
		workers: workers,
		query:   telemetry.CurrentQuery(ctx),
	}
}

// Context returns the query's context (carries deadline and trace).
func (qc *QueryContext) Context() context.Context { return qc.ctx }

// Budget returns the shared memory accountant (possibly nil).
func (qc *QueryContext) Budget() *Accountant { return qc.budget }

// Workers returns the concurrency bound of RunExpands (≥ 1).
func (qc *QueryContext) Workers() int { return qc.workers }

// Err returns the context's cancellation state.
func (qc *QueryContext) Err() error { return qc.ctx.Err() }

// RunExpands runs a plan's distinct expansions concurrently, at most
// qc.Workers at a time. The calling goroutine is one of the
// min(workers, len(ops)) workers and each worker takes the next op from a
// shared index, so a single expansion starts no goroutine. The ops run under
// a child of qc's context that the first failure cancels: running siblings
// stop at their next cancellation check, and that first error, naming the
// operator, is what RunExpands returns — a sibling's resulting
// context.Canceled never replaces it.
func RunExpands(qc *QueryContext, ops []*ExpandOp) error {
	return fanOut(qc, len(ops), func(qc *QueryContext, i int) error {
		if err := ops[i].Run(qc); err != nil {
			return fmt.Errorf("expand: %w", err)
		}
		return nil
	})
}

// fanOut is RunExpands over op indexes: run executes op i under the fan-out's
// child QueryContext. Split out so tests can script the ops.
func fanOut(qc *QueryContext, n int, run func(qc *QueryContext, i int) error) error {
	if n == 0 {
		return nil
	}
	// Publish the op count up front so /debug/queries shows queued-vs-done
	// progress from the first snapshot.
	qc.query.AddOps(int64(n))
	ctx, cancel := context.WithCancel(qc.ctx)
	defer cancel()
	child := &QueryContext{ctx: ctx, budget: qc.budget, workers: qc.workers, query: qc.query}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// A canceled query (or a failed sibling) starts no further op.
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			qc.query.OpStarted()
			// Sample the clock at the operator boundary: the elapsed time is
			// the operator's busy time on this goroutine, attributed to the
			// query as CPU cost.
			t0 := time.Now()
			err := run(child, i)
			qc.query.AddCPUNanos(time.Since(t0).Nanoseconds())
			qc.query.OpFinished()
			if err != nil {
				fail(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range min(qc.workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
