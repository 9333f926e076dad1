// Query introspection: a process-wide registry of in-flight queries and a
// fixed-size history ring of completed ones.
//
// Every query executed through cypher.RunContext registers a QueryInfo
// carrying its id, text, start time, phase, and per-operator progress
// counters. The counters are plain atomics fed by internal/exec's expand
// fan-out (operators queued/running/done, cache hits) and by the operator
// bodies themselves (pairs emitted per expand step, matrix bytes), so a
// registry snapshot shows how far along a running query is without touching
// any per-query lock. KILL routes through the registry into the query's
// context cancellation, which the engine already observes cooperatively
// (expand steps, BFS rows, intersect enumeration, spill I/O).
//
// Surfaces: GET /debug/queries on vsserve (snapshot as JSON), SHOW QUERIES
// and KILL <id> in the REPL and vsquery.
package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultHistorySize is the completed-query ring capacity of a registry
// built by NewQueryRegistry(0) — roughly "the last hundred queries" an
// operator asks about, with headroom.
const DefaultHistorySize = 128

// DefaultQueries is the process-wide registry every executed query
// registers into (the GET /debug/queries and SHOW QUERIES backing store).
var DefaultQueries = NewQueryRegistry(DefaultHistorySize)

// QueryPhase labels how far a registered query has progressed.
type QueryPhase int32

// Query phases, in execution order.
const (
	PhaseStart QueryPhase = iota
	PhasePlan
	PhaseExecute
)

// String renders the phase for snapshots.
func (p QueryPhase) String() string {
	switch p {
	case PhasePlan:
		return "plan"
	case PhaseExecute:
		return "execute"
	default:
		return "start"
	}
}

// QueryInfo is one registered query: identity plus lock-free progress
// counters. All methods are safe on a nil receiver (code paths running
// outside a registered query — unit tests, direct engine calls — pay one
// nil check and nothing else).
type QueryInfo struct {
	id        uint64
	query     string
	requestID string
	start     time.Time
	cancel    context.CancelFunc

	phase  atomic.Int32
	killed atomic.Bool
	done   atomic.Bool

	opsTotal   atomic.Int64
	opsRunning atomic.Int64
	opsDone    atomic.Int64
	pairs      atomic.Int64
	matrixB    atomic.Int64
	cacheHits  atomic.Int64

	// Resource attribution (telemetry v3): accumulated at operator
	// boundaries and in the spill path, surfaced live in snapshots and as
	// totals in the history ring and the vs_query_cost_* metric family.
	cpuNs   atomic.Int64
	cacheB  atomic.Int64
	spillW  atomic.Int64
	spillR  atomic.Int64
	rowsOut atomic.Int64
}

// ID returns the registry-assigned query id (0 on nil).
func (q *QueryInfo) ID() uint64 {
	if q == nil {
		return 0
	}
	return q.id
}

// SetPhase records the query's current execution phase.
func (q *QueryInfo) SetPhase(p QueryPhase) {
	if q == nil {
		return
	}
	q.phase.Store(int32(p))
}

// Killed reports whether Kill was called on this query.
func (q *QueryInfo) Killed() bool {
	if q == nil {
		return false
	}
	return q.killed.Load()
}

// AddOps registers n operators as queued with the scheduler.
//
//vs:hotpath
func (q *QueryInfo) AddOps(n int64) {
	if q == nil {
		return
	}
	q.opsTotal.Add(n)
}

// OpStarted moves one operator from queued to running.
//
//vs:hotpath
func (q *QueryInfo) OpStarted() {
	if q == nil {
		return
	}
	q.opsRunning.Add(1)
}

// OpFinished moves one operator from running to done.
//
//vs:hotpath
func (q *QueryInfo) OpFinished() {
	if q == nil {
		return
	}
	q.opsRunning.Add(-1)
	q.opsDone.Add(1)
}

// AddPairs accumulates pairs emitted by an expansion step.
//
//vs:hotpath
func (q *QueryInfo) AddPairs(n int64) {
	if q == nil {
		return
	}
	q.pairs.Add(n)
}

// AddMatrixBytes accumulates peak bit-matrix bytes allocated by operators.
//
//vs:hotpath
func (q *QueryInfo) AddMatrixBytes(n int64) {
	if q == nil {
		return
	}
	q.matrixB.Add(n)
}

// AddCacheHit counts one matrix-cache hit for this query.
//
//vs:hotpath
func (q *QueryInfo) AddCacheHit() {
	if q == nil {
		return
	}
	q.cacheHits.Add(1)
}

// AddCPUNanos attributes operator busy time to the query. The exec fan-out
// samples the clock at operator boundaries, so this is the wall time the
// query's operators spent on their worker goroutines — the
// closest portable proxy for per-goroutine CPU the runtime exposes.
//
//vs:hotpath
func (q *QueryInfo) AddCPUNanos(n int64) {
	if q == nil {
		return
	}
	q.cpuNs.Add(n)
}

// AddCacheBytes accumulates matrix bytes served to this query from the
// engine-level cache (work the query consumed but did not perform).
//
//vs:hotpath
func (q *QueryInfo) AddCacheBytes(n int64) {
	if q == nil {
		return
	}
	q.cacheB.Add(n)
}

// AddSpillWriteBytes accumulates bytes this query spilled to disk.
//
//vs:hotpath
func (q *QueryInfo) AddSpillWriteBytes(n int64) {
	if q == nil {
		return
	}
	q.spillW.Add(n)
}

// AddSpillReadBytes accumulates bytes this query read back from spill.
//
//vs:hotpath
func (q *QueryInfo) AddSpillReadBytes(n int64) {
	if q == nil {
		return
	}
	q.spillR.Add(n)
}

// AddRows accumulates result tuples the query's aggregates produced.
//
//vs:hotpath
func (q *QueryInfo) AddRows(n int64) {
	if q == nil {
		return
	}
	q.rowsOut.Add(n)
}

// QueryCost is one query's attributed resource totals — the quantities the
// paper's intermediate-result argument is about, per query instead of per
// process.
type QueryCost struct {
	// CPUMs is operator busy time in milliseconds (see AddCPUNanos for the
	// measurement model).
	CPUMs float64 `json:"cpu_ms"`
	// MatrixBytes is bit-matrix bytes the query's expansions reserved.
	MatrixBytes int64 `json:"matrix_bytes"`
	// CacheHits / CacheBytes count expansions (and their matrix bytes)
	// served from the engine-level cache.
	CacheHits  int64 `json:"cache_hits"`
	CacheBytes int64 `json:"cache_bytes"`
	// SpillWriteBytes / SpillReadBytes is the query's out-of-core traffic.
	SpillWriteBytes int64 `json:"spill_write_bytes"`
	SpillReadBytes  int64 `json:"spill_read_bytes"`
	// Pairs is cumulative (source, dst) pairs emitted by expansion steps.
	Pairs int64 `json:"pairs"`
	// Rows is result tuples produced by the query's aggregates.
	Rows int64 `json:"rows"`
}

// TotalBytes is the query's attributed byte footprint — the "bytes" column
// of SHOW QUERIES.
func (c QueryCost) TotalBytes() int64 {
	return c.MatrixBytes + c.CacheBytes + c.SpillWriteBytes + c.SpillReadBytes
}

// cost reads the attribution counters into a QueryCost.
func (q *QueryInfo) cost() QueryCost {
	return QueryCost{
		CPUMs:           float64(q.cpuNs.Load()) / 1e6,
		MatrixBytes:     q.matrixB.Load(),
		CacheHits:       q.cacheHits.Load(),
		CacheBytes:      q.cacheB.Load(),
		SpillWriteBytes: q.spillW.Load(),
		SpillReadBytes:  q.spillR.Load(),
		Pairs:           q.pairs.Load(),
		Rows:            q.rowsOut.Load(),
	}
}

// ProgressSnapshot is one query's operator counts, read once. Pairs,
// matrix bytes and cache hits live in the snapshot's Cost.
type ProgressSnapshot struct {
	// OpsTotal is the number of operators the scheduler registered;
	// OpsQueued = OpsTotal - OpsRunning - OpsDone.
	OpsTotal   int64 `json:"ops_total"`
	OpsQueued  int64 `json:"ops_queued"`
	OpsRunning int64 `json:"ops_running"`
	OpsDone    int64 `json:"ops_done"`
}

// progress reads the operator counters into a snapshot.
func (q *QueryInfo) progress() ProgressSnapshot {
	total := q.opsTotal.Load()
	running := q.opsRunning.Load()
	done := q.opsDone.Load()
	queued := total - running - done
	if queued < 0 {
		queued = 0
	}
	return ProgressSnapshot{
		OpsTotal:   total,
		OpsQueued:  queued,
		OpsRunning: running,
		OpsDone:    done,
	}
}

// QuerySnapshot is one in-flight query as reported by Snapshot.
type QuerySnapshot struct {
	ID          uint64           `json:"id"`
	Query       string           `json:"query"`
	RequestID   string           `json:"request_id,omitempty"`
	StartUnixMs int64            `json:"start_unix_ms"`
	ElapsedMs   float64          `json:"elapsed_ms"`
	Phase       string           `json:"phase"`
	Killed      bool             `json:"killed,omitempty"`
	Progress    ProgressSnapshot `json:"progress"`
	// Cost is the resource attribution accumulated so far — live while the
	// query runs.
	Cost QueryCost `json:"cost"`
}

// QueryRecord is one completed query in the history ring.
type QueryRecord struct {
	ID          uint64  `json:"id"`
	Query       string  `json:"query"`
	RequestID   string  `json:"request_id,omitempty"`
	StartUnixMs int64   `json:"start_unix_ms"`
	DurationMs  float64 `json:"duration_ms"`
	// Status is "ok", "error", or "killed".
	Status string `json:"status"`
	Rows   int64  `json:"rows"`
	Error  string `json:"error,omitempty"`
	// Cost is the query's final resource attribution.
	Cost QueryCost `json:"cost"`
}

// QueryRegistry tracks in-flight queries and retains a fixed-size ring of
// completed ones. The zero value is not usable; call NewQueryRegistry.
type QueryRegistry struct {
	nextID atomic.Uint64

	mu      sync.Mutex
	active  map[uint64]*QueryInfo
	history []QueryRecord // ring, oldest at histPos when full
	histPos int
	histCap int
}

// NewQueryRegistry returns a registry whose history ring holds historySize
// completed queries (0 = DefaultHistorySize).
func NewQueryRegistry(historySize int) *QueryRegistry {
	if historySize <= 0 {
		historySize = DefaultHistorySize
	}
	return &QueryRegistry{
		active:  make(map[uint64]*QueryInfo),
		histCap: historySize,
	}
}

// Register adds an in-flight query and returns its QueryInfo. cancel, when
// non-nil, is invoked by Kill; it must be safe to call concurrently with
// the query's execution (context.CancelFunc is).
func (r *QueryRegistry) Register(query, requestID string, cancel context.CancelFunc) *QueryInfo {
	qi := &QueryInfo{
		id:        r.nextID.Add(1),
		query:     query,
		requestID: requestID,
		start:     time.Now(),
		cancel:    cancel,
	}
	r.mu.Lock()
	r.active[qi.id] = qi
	r.mu.Unlock()
	return qi
}

// Complete moves a query from the active set into the history ring.
// status is derived: killed queries record "killed" even when err is the
// resulting context.Canceled. Safe to call more than once (only the first
// records) and on a nil qi.
func (r *QueryRegistry) Complete(qi *QueryInfo, rows int64, err error) {
	if qi == nil || !qi.done.CompareAndSwap(false, true) {
		return
	}
	rec := QueryRecord{
		ID:          qi.id,
		Query:       qi.query,
		RequestID:   qi.requestID,
		StartUnixMs: qi.start.UnixMilli(),
		DurationMs:  float64(time.Since(qi.start)) / float64(time.Millisecond),
		Status:      "ok",
		Rows:        rows,
		Cost:        qi.cost(),
	}
	if err != nil {
		rec.Status = "error"
		rec.Error = err.Error()
	}
	if qi.killed.Load() {
		rec.Status = "killed"
	}
	recordQueryCost(rec.Cost)
	r.mu.Lock()
	delete(r.active, qi.id)
	if len(r.history) < r.histCap {
		r.history = append(r.history, rec)
	} else {
		r.history[r.histPos] = rec
		r.histPos = (r.histPos + 1) % r.histCap
	}
	r.mu.Unlock()
}

// Kill cancels the in-flight query with the given id, reporting whether it
// was found. The cancellation is cooperative: the engine observes it at its
// scheduler poll points (expand steps, BFS rows, intersect enumeration,
// spill I/O), so the query unwinds within one poll interval.
func (r *QueryRegistry) Kill(id uint64) bool {
	r.mu.Lock()
	qi := r.active[id]
	r.mu.Unlock()
	if qi == nil {
		return false
	}
	qi.killed.Store(true)
	if qi.cancel != nil {
		qi.cancel()
	}
	return true
}

// Snapshot returns the in-flight queries (ascending id — registration
// order) and the completed history (newest first).
func (r *QueryRegistry) Snapshot() (active []QuerySnapshot, history []QueryRecord) {
	now := time.Now()
	r.mu.Lock()
	infos := make([]*QueryInfo, 0, len(r.active))
	for _, qi := range r.active {
		infos = append(infos, qi)
	}
	history = make([]QueryRecord, 0, len(r.history))
	// Ring order: histPos is the oldest entry once the ring wrapped.
	for i := 0; i < len(r.history); i++ {
		idx := r.histPos + len(r.history) - 1 - i
		history = append(history, r.history[idx%len(r.history)])
	}
	r.mu.Unlock()

	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].id < infos[j-1].id; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	active = make([]QuerySnapshot, 0, len(infos))
	for _, qi := range infos {
		active = append(active, QuerySnapshot{
			ID:          qi.id,
			Query:       qi.query,
			RequestID:   qi.requestID,
			StartUnixMs: qi.start.UnixMilli(),
			ElapsedMs:   float64(now.Sub(qi.start)) / float64(time.Millisecond),
			Phase:       QueryPhase(qi.phase.Load()).String(),
			Killed:      qi.killed.Load(),
			Progress:    qi.progress(),
			Cost:        qi.cost(),
		})
	}
	return active, history
}

// queryKey carries the current QueryInfo through a context; pre-boxed like
// spanCtxKey so the disabled lookup performs no allocation.
type queryKey struct{}

var queryCtxKey any = queryKey{}

// WithQuery returns a context carrying qi for CurrentQuery.
func WithQuery(ctx context.Context, qi *QueryInfo) context.Context {
	return context.WithValue(ctx, queryCtxKey, qi)
}

// CurrentQuery returns the context's registered query, or nil when the
// execution is not registered (every QueryInfo method is nil-safe).
//
//vs:hotpath
func CurrentQuery(ctx context.Context) *QueryInfo {
	q, _ := ctx.Value(queryCtxKey).(*QueryInfo)
	return q
}

// reqIDKey carries the transport request id through a context (pre-boxed).
type reqIDKey struct{}

var reqIDCtxKey any = reqIDKey{}

// WithRequestID returns a context carrying the transport-assigned request
// id, joining access-log lines, trace root spans, and QueryInfo on one id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDCtxKey, id)
}

// RequestIDFromContext returns the context's request id ("" when absent).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(reqIDCtxKey).(string)
	return id
}
