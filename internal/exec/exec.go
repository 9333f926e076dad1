// Package exec is VertexSurge's physical execution layer: a per-query
// QueryContext (deadline, cancellation, memory budget, trace), the ExpandOp
// physical operator, the join-input assembly (IntersectOp.Assemble), and a
// small dependency-aware scheduler that runs independent operators
// concurrently.
//
// The engine lowers a planner.Plan's expansions into a DAG — one ExpandOp
// per distinct expansion — and Run schedules it: every operator whose
// dependencies completed is eligible, and eligible operators execute in
// parallel bounded by the worker count. Independent VExpands therefore
// overlap, which the serial edge loop the paper describes (§5) never did.
// The join and the tuple reorder consume every expansion, overlap with
// nothing, and so run on the engine's calling goroutine, not in the DAG.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// QueryContext carries the per-query execution state every operator sees:
// the context (deadline, cancellation, telemetry trace), the shared memory
// accountant, and the scheduler's worker bound.
type QueryContext struct {
	ctx     context.Context //vs:nolint(ctx-propagation) QueryContext IS the sanctioned per-query carrier; operators receive it as a parameter
	budget  *Accountant
	workers int

	// query is the registry entry of the running query (nil when the
	// execution is unregistered — direct engine calls, tests). The
	// scheduler and operators feed its progress counters; every QueryInfo
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

// Workers returns the scheduler's concurrency bound (≥ 1).
func (qc *QueryContext) Workers() int { return qc.workers }

// Err returns the context's cancellation state.
func (qc *QueryContext) Err() error { return qc.ctx.Err() }

// Op is one physical operator. Run must observe qc's cancellation
// cooperatively and may execute on any scheduler goroutine.
type Op interface {
	// Name labels the operator in errors.
	Name() string
	// Run executes the operator; its inputs are the results its
	// dependency operators stored when they ran.
	Run(qc *QueryContext) error
}

// Node is one operator in a DAG with its dependency edges.
type Node struct {
	op    Op
	succs []*Node
	ndeps int
}

// DAG is a set of operators with dependencies, executed by Run.
type DAG struct {
	nodes []*Node
}

// NewDAG returns an empty DAG.
func NewDAG() *DAG { return &DAG{} }

// Add appends op, depending on deps (which must already be in the DAG),
// and returns its node.
func (d *DAG) Add(op Op, deps ...*Node) *Node {
	n := &Node{op: op, ndeps: len(deps)}
	for _, dep := range deps {
		dep.succs = append(dep.succs, n)
	}
	d.nodes = append(d.nodes, n)
	return n
}

// Run executes the DAG: operators whose dependencies completed run
// concurrently, bounded by qc.Workers. The first operator error (or the
// context's cancellation) stops further scheduling; operators already in
// flight finish cooperatively before Run returns. Results flow through the
// operators themselves (an Op reads its dependencies' output fields), so
// the scheduler is shape-agnostic.
func (d *DAG) Run(qc *QueryContext) error {
	if len(d.nodes) == 0 {
		return nil
	}
	type doneMsg struct {
		node *Node
		err  error
	}
	done := make(chan doneMsg, len(d.nodes))

	// Publish the DAG size to the query registry up front so /debug/queries
	// shows queued-vs-done progress from the first snapshot.
	qc.query.AddOps(int64(len(d.nodes)))

	var ready []*Node
	for _, n := range d.nodes {
		if n.ndeps == 0 {
			ready = append(ready, n)
		}
	}

	var firstErr error
	running, remaining := 0, len(d.nodes)
	for remaining > 0 {
		if firstErr == nil {
			if err := qc.Err(); err != nil {
				firstErr = err
			}
		}
		for firstErr == nil && len(ready) > 0 && running < qc.workers {
			n := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			running++
			qc.query.OpStarted()
			go func(n *Node) {
				// Sample the clock at the operator boundary: the elapsed
				// time is the operator's busy time on this goroutine,
				// attributed to the query as CPU cost.
				t0 := time.Now()
				err := n.op.Run(qc)
				qc.query.AddCPUNanos(time.Since(t0).Nanoseconds())
				done <- doneMsg{node: n, err: err} //vs:nolint(channel-hygiene) done is buffered to len(d.nodes) and each worker sends exactly once, so capacity is reserved and the send cannot block
			}(n)
		}
		if running == 0 {
			if firstErr != nil {
				return firstErr
			}
			// Nothing runs, nothing is ready, yet operators remain: the
			// dependency graph has a cycle (a construction bug).
			return fmt.Errorf("exec: %d operator(s) unreachable (dependency cycle)", remaining)
		}
		msg := <-done
		running--
		remaining--
		qc.query.OpFinished()
		if msg.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", msg.node.op.Name(), msg.err)
		}
		for _, succ := range msg.node.succs {
			succ.ndeps--
			if succ.ndeps == 0 {
				ready = append(ready, succ)
			}
		}
	}
	return firstErr
}
