// Package engine is VertexSurge's query execution engine: it composes the
// planner, the VExpand operator, and the MIntersect operator into complete
// VLGPM query execution (§3, §5), with the per-stage timing breakdown the
// paper reports in Figure 8.
//
// There is one execution path (run/execute in this file): plan, fan the
// distinct expansions out through exec.RunExpands, assemble the join input,
// and run the Generic Join, which either counts (§5.1's popcount fast path)
// or hands every tuple to a consumer plugged in at its leaf. MatchEach is
// that path with a per-tuple callback that may stop it; MatchContext counts,
// or collects through MatchEach with a sink that copies every tuple; Match
// and MatchForEachOpts are shorthands. The
// twelve evaluation queries of §6.2 (social cases 1–5, bank cases 6–7,
// FinBench cases 8–12) are provided as methods in cases.go.
package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mintersect"
	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// DefaultCacheBytes is the reachability-matrix cache size production
// surfaces (vertexsurge.DB, vsserve) enable by default: 64 MiB holds the
// working set of a few dozen mid-size expansions.
const DefaultCacheBytes int64 = 64 << 20

// Options configures an Engine.
type Options struct {
	// Workers bounds parallelism. For expansion, 0 = GOMAXPROCS: it bounds
	// both VExpand's intra-operator workers (stack partitioning) and the
	// scheduler's concurrently running expands. The join is different:
	// MIntersect partitions its seed columns only for a CountOnly match with
	// Workers > 1, so at the default 0 — and at 1, and whenever tuples are
	// enumerated — the join is single-threaded.
	Workers int
	// Kernel pins the VExpand kernel; Auto by default.
	Kernel vexpand.Kernel
	// CacheBytes bounds the engine-level reachability-matrix cache
	// shared across queries. 0 disables the cache (the conservative
	// default: benchmarks and tests measure real expansions); production
	// callers pass DefaultCacheBytes or their own budget.
	CacheBytes int64
	// MemoryBudget caps live intermediate bytes — matrices under
	// expansion, cache residency, join-time clones, spill buffers —
	// across all concurrent queries. 0 = unlimited (still metered).
	MemoryBudget int64
}

// Engine executes VLGPM queries against one graph.
type Engine struct {
	g     *graph.Graph
	opts  Options
	acct  *exec.Accountant
	cache *exec.MatrixCache
}

// New returns an engine over g.
func New(g *graph.Graph, opts Options) *Engine {
	e := &Engine{g: g, opts: opts}
	e.acct = exec.NewAccountant(opts.MemoryBudget)
	if opts.CacheBytes > 0 {
		e.cache = exec.NewMatrixCache(opts.CacheBytes, e.acct)
		// Under budget pressure, cached matrices yield to live queries.
		e.acct.OnPressure = e.cache.EvictBytes
	}
	return e
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// CacheStats reports the engine-level matrix cache's resident entries and
// bytes (both zero when the cache is disabled).
func (e *Engine) CacheStats() (entries int, bytes int64) {
	return e.cache.Len(), e.cache.Bytes()
}

// MemoryInUse reports the bytes currently reserved against the engine's
// memory budget (live intermediates plus cache residency).
func (e *Engine) MemoryInUse() int64 { return e.acct.InUse() }

// MemoryLimit reports the configured memory budget (0 = unlimited).
func (e *Engine) MemoryLimit() int64 { return e.acct.Limit() }

// Accountant exposes the engine's shared memory accountant so co-resident
// subsystems (session cursor buffers) can meter their footprint in the same
// budget as matrices, cache residency, and spill buffers.
func (e *Engine) Accountant() *exec.Accountant { return e.acct }

// Timings is the per-stage breakdown of one query (Figure 8's components).
// Stage times are summed across operators; with the scheduler running
// independent expands concurrently, Expand may exceed the wall-clock share
// it occupies inside Total (CPU time attributed, not elapsed time).
type Timings struct {
	// Scan is candidate scanning and planning.
	Scan time.Duration
	// Expand is VExpand's frontier–edge multiplication time.
	Expand time.Duration
	// UpdateVisit is visited-set maintenance (SHORTEST determiners only).
	UpdateVisit time.Duration
	// Intersect is MIntersect (Generic Join) time.
	Intersect time.Duration
	// Aggregate is grouping/sorting/summing time.
	Aggregate time.Duration
	// Total is end-to-end wall time.
	Total time.Duration
}

// Add accumulates another breakdown into t.
func (t *Timings) Add(o Timings) {
	t.Scan += o.Scan
	t.Expand += o.Expand
	t.UpdateVisit += o.UpdateVisit
	t.Intersect += o.Intersect
	t.Aggregate += o.Aggregate
	t.Total += o.Total
}

// Other returns time not attributed to a named stage.
func (t Timings) Other() time.Duration {
	other := t.Total - t.Scan - t.Expand - t.UpdateVisit - t.Intersect - t.Aggregate
	if other < 0 {
		return 0
	}
	return other
}

// MatchOptions configures Match.
type MatchOptions struct {
	// CountOnly skips tuple materialization (§5.1's counting fast path).
	CountOnly bool
	// Order forces the join order (pattern-vertex index per position),
	// bypassing the planner's choice — for planner ablation.
	Order []int
}

// MatchResult is the output of Match.
type MatchResult struct {
	// Names lists the pattern vertex names in tuple component order
	// (pattern declaration order, not join order).
	Names []string
	// Tuples are the distinct matches; Tuples[i][k] binds Names[k]. Only
	// MatchContext without CountOnly fills them.
	Tuples [][]graph.VertexID
	// Count is the number of distinct matches.
	Count int64
	// ExpandStats aggregates the VExpand statistics across all pattern
	// edges (Table 2's intermediate-result accounting).
	ExpandStats vexpand.Stats
	// Timings is the per-stage breakdown.
	Timings Timings
	// Plan is the physical plan the match executed (candidate scans, join
	// order, per-edge estimates). Analyze joins a plan's estimates against
	// the actual cardinalities recorded in the span tree.
	Plan *planner.Plan
}

// Match executes a VLGPM pattern and returns the distinct matched vertex
// tuples (Definition 3). Matching uses walk semantics for ANY determiners
// (§2.2) and requires the match to be a bijection.
func (e *Engine) Match(pat *pattern.Pattern, opts MatchOptions) (*MatchResult, error) {
	return e.MatchContext(context.Background(), pat, opts)
}

// MatchContext is Match with cancellation and trace propagation. Under
// CountOnly the join only counts, seed-partitioned across goroutines when
// Options.Workers > 1; otherwise it is MatchEach with a sink that copies
// every tuple into Tuples, on one goroutine.
func (e *Engine) MatchContext(ctx context.Context, pat *pattern.Pattern, opts MatchOptions) (*MatchResult, error) {
	if opts.CountOnly {
		return e.run(ctx, pat, opts, nil)
	}
	var tuples [][]graph.VertexID
	res, err := e.run(ctx, pat, opts, func(tuple []graph.VertexID) bool {
		tuples = append(tuples, slices.Clone(tuple))
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Tuples = tuples
	return res, nil
}

// MatchEach runs the pattern and streams every distinct matched tuple to
// fn, in pattern declaration order, without materializing the result set:
// the same execution core as MatchContext with fn plugged in as the join's
// per-tuple consumer. fn returns whether the match goes on; once it returns
// false the join stops and MatchEach returns normally. The result carries
// Count (the tuples fn received), Plan, ExpandStats and Timings, but no
// Tuples. The tuple slice is reused between calls — copy it to retain it.
// The join enumerates serially on the calling goroutine, so fn may block
// (transport backpressure) and a panic in fn unwinds through the caller.
// Order forces the join order (planner ablation). CountOnly is meaningless
// when streaming (fn receives the tuples) and is ignored.
func (e *Engine) MatchEach(ctx context.Context, pat *pattern.Pattern, opts MatchOptions, fn func(tuple []graph.VertexID) bool) (*MatchResult, error) {
	return e.run(ctx, pat, opts, fn)
}

// MatchForEachOpts is MatchEach for a consumer that takes every tuple.
func (e *Engine) MatchForEachOpts(ctx context.Context, pat *pattern.Pattern, opts MatchOptions, fn func(tuple []graph.VertexID)) error {
	_, err := e.MatchEach(ctx, pat, opts, func(tuple []graph.VertexID) bool {
		fn(tuple)
		return true
	})
	return err
}

// run is the engine's one execution path; MatchContext and MatchEach are its
// two wrappers. It owns the per-match bookkeeping — total wall time, the
// stage histograms, the expand-bytes counter — around execute, which does
// the work. With a nil emit the join only counts; otherwise every tuple goes
// to emit, in declaration order, until emit returns false. Either way the
// result carries Count, Plan, ExpandStats and Timings, and no Tuples.
//
// When ctx carries an active trace (internal/telemetry), execution records
// one span per operator call — "plan" for the planner build, one "expand"
// per planned edge (with kernel, source count, stack count, matrix bytes,
// and memo hit/miss), "intersect" for the Generic Join, and "aggregate" for
// the hand-off of the result (its tuple count).
func (e *Engine) run(ctx context.Context, pat *pattern.Pattern, opts MatchOptions, emit func(tuple []graph.VertexID) bool) (*MatchResult, error) {
	start := time.Now()
	res := &MatchResult{}
	for _, v := range pat.Vertices {
		res.Names = append(res.Names, v.Name)
	}
	if err := e.execute(ctx, telemetry.CurrentQuery(ctx), pat, opts, emit, res); err != nil {
		return nil, err
	}
	res.Timings.Total = time.Since(start)

	t := res.Timings
	telemetry.ObserveStages(t.Scan, t.Expand, t.UpdateVisit, t.Intersect, t.Aggregate, t.Total)
	if res.ExpandStats.MatrixBytes > 0 {
		telemetry.ExpandMatrixBytes.Add(res.ExpandStats.MatrixBytes)
	}
	return res, nil
}

// execute plans pat, fans its distinct expansions out through
// exec.RunExpands (independent expands overlap, bounded by Options.Workers),
// assembles the join input and runs the Generic Join on the calling
// goroutine: it consumes every expansion, so there is nothing to overlap it
// with. emit, when set, receives each tuple reordered from join order to
// declaration order.
func (e *Engine) execute(ctx context.Context, qi *telemetry.QueryInfo, pat *pattern.Pattern, opts MatchOptions, emit func(tuple []graph.VertexID) bool, res *MatchResult) error {
	qi.SetPhase(telemetry.PhasePlan)
	t0 := time.Now()
	_, psp := telemetry.StartSpan(ctx, "plan")
	var plan *planner.Plan
	var err error
	if opts.Order != nil {
		plan, err = planner.BuildOrdered(e.g, pat, opts.Order)
	} else {
		plan, err = planner.Build(e.g, pat)
	}
	if err != nil {
		psp.End()
		return err
	}
	psp.SetInt("vertices", int64(len(pat.Vertices)))
	psp.SetInt("edges", int64(len(plan.Edges)))
	psp.End()
	res.Plan = plan
	res.Timings.Scan = time.Since(t0)
	// Planning runs on the caller's goroutine, outside RunExpands' operator
	// boundaries — attribute it here.
	qi.AddCPUNanos(int64(res.Timings.Scan))

	n := len(pat.Vertices)
	buf := make([]graph.VertexID, n) // emit's reused tuple, in declaration order
	if n == 1 {
		// Degenerate single-vertex pattern: candidates are the matches.
		if emit == nil {
			res.Count = int64(len(plan.CandList[0]))
		} else {
			for _, v := range plan.CandList[0] {
				res.Count++
				buf[0] = v
				more := emit(buf)
				qi.AddRows(1)
				if !more {
					break
				}
			}
		}
		aggregate(ctx, qi, res, emit == nil)
		return nil
	}

	qi.SetPhase(telemetry.PhaseExecute)
	qc := exec.NewQueryContext(ctx, e.acct, e.opts.Workers)
	perEdge, ops := e.lowerExpands(plan)
	if err := exec.RunExpands(qc, ops); err != nil {
		return err
	}
	collectExpandStats(res, ops)

	// Assembly and join run here, outside RunExpands' operator boundaries —
	// attribute their busy time to the query on every exit.
	t1 := time.Now()
	defer func() { qi.AddCPUNanos(int64(time.Since(t1))) }()
	iop := &exec.IntersectOp{
		NumPatternVertices: n,
		FirstCols:          plan.CandList[plan.Order[0]],
		RowCandidates:      rowCandidates(plan),
	}
	for i := range plan.Edges {
		pe := &plan.Edges[i]
		iop.Edges = append(iop.Edges, exec.JoinEdge{
			EarlierPos: pe.EarlierPos, LaterPos: pe.LaterPos, Src: perEdge[i],
		})
	}
	in, cloned, err := iop.Assemble(qc)
	if err != nil {
		return fmt.Errorf("intersect: %w", err)
	}
	defer e.acct.Release(cloned)

	t2 := time.Now()
	var jr *mintersect.Result
	if emit == nil {
		jr, err = mintersect.RunContext(ctx, in, mintersect.Options{CountOnly: true, Workers: e.opts.Workers})
	} else {
		// Rows count live, per delivered tuple, so SHOW QUERIES and
		// /debug/queries report a streaming query's progress while the
		// client is still fetching (emit may block on transport
		// backpressure between tuples).
		jr = &mintersect.Result{}
		err = mintersect.ForEachUntil(ctx, in, mintersect.Options{}, func(tuple []graph.VertexID) bool {
			for pos, v := range tuple { // plan.Order[pos] is the vertex at join position pos
				buf[plan.Order[pos]] = v
			}
			more := emit(buf)
			qi.AddRows(1)
			return more
		}, jr)
	}
	res.Timings.Intersect = time.Since(t2)
	if err != nil {
		return fmt.Errorf("intersect: %w", err)
	}
	res.Count = jr.Count
	aggregate(ctx, qi, res, emit == nil)
	return nil
}

// aggregate hands off a match's result: the "aggregate" span records its
// tuple count, and a match that only counted reports its rows to the
// registry here (an emitting match reported them tuple by tuple).
func aggregate(ctx context.Context, qi *telemetry.QueryInfo, res *MatchResult, counted bool) {
	t := time.Now()
	_, sp := telemetry.StartSpan(ctx, "aggregate")
	if counted {
		qi.AddRows(res.Count)
	}
	sp.SetInt("tuples", res.Count)
	sp.End()
	res.Timings.Aggregate = time.Since(t)
}

// lowerExpands builds one ExpandOp per distinct expansion of the plan
// (planner.Plan.Operators' dedup — the §2.3.2 symmetry memo at lowering
// time) and returns, per planned edge, the op serving it, and the distinct
// ops in plan order.
func (e *Engine) lowerExpands(plan *planner.Plan) (perEdge, ops []*exec.ExpandOp) {
	perEdge = make([]*exec.ExpandOp, len(plan.Edges))
	for _, spec := range plan.Operators() {
		pe := &plan.Edges[spec.Edges[0]]
		sources := plan.CandList[pe.ExpandFrom]
		op := &exec.ExpandOp{
			Graph:   e.g,
			Sources: sources,
			D:       pe.D,
			Opts: vexpand.Options{
				Kernel:  e.opts.Kernel,
				Workers: e.opts.Workers,
				Budget:  e.acct,
			},
			Cache: e.cache,
			From:  pe.ExpandFrom,
		}
		if e.cache != nil {
			op.Key = exec.NewCacheKey(e.g.Epoch(), pe.D, sources)
		}
		for _, ei := range spec.Edges {
			op.Edges = append(op.Edges, plan.Edges[ei].PatternEdge)
			perEdge[ei] = op
		}
		ops = append(ops, op)
	}
	return perEdge, ops
}

// rowCandidates lists the candidates per join position (position 0 unused).
func rowCandidates(plan *planner.Plan) [][]graph.VertexID {
	n := len(plan.Order)
	rows := make([][]graph.VertexID, n)
	for t := 1; t < n; t++ {
		rows[t] = plan.CandList[plan.Order[t]]
	}
	return rows
}

// collectExpandStats accumulates stats and stage timings from the distinct
// expand operators that actually ran (cache hits did no work in this query;
// each distinct expansion counts once however many symmetric edges it
// serves — the serial engine's ExpandStats semantics, preserved).
func collectExpandStats(res *MatchResult, ops []*exec.ExpandOp) {
	for _, op := range ops {
		if op.CacheState == "hit" {
			continue
		}
		r := op.Result
		res.ExpandStats.Steps += r.Stats.Steps
		res.ExpandStats.IntermediateResults += r.Stats.IntermediateResults
		res.ExpandStats.MatrixBytes += r.Stats.MatrixBytes
		// Attribute the whole operator call (matrix allocation included)
		// to the Expand stage, minus the separately tracked visited-set
		// maintenance.
		res.Timings.Expand += op.Wall - r.Stats.UpdateVisitTime
		res.Timings.UpdateVisit += r.Stats.UpdateVisitTime
	}
}

// Expand exposes the VExpand operator directly: reachability from sources
// under d, with the engine's kernel and worker settings.
func (e *Engine) Expand(sources []graph.VertexID, d pattern.Determiner, keepPerStep bool) (*vexpand.Result, error) {
	return e.ExpandContext(context.Background(), sources, d, keepPerStep)
}

// ExpandContext is Expand with cancellation and trace propagation: the
// expansion aborts between steps when ctx is done, and an active trace
// records the vexpand span tree.
func (e *Engine) ExpandContext(ctx context.Context, sources []graph.VertexID, d pattern.Determiner, keepPerStep bool) (*vexpand.Result, error) {
	return vexpand.ExpandContext(ctx, e.g, sources, d, vexpand.Options{
		Kernel:      e.opts.Kernel,
		Workers:     e.opts.Workers,
		KeepPerStep: keepPerStep,
		Budget:      e.acct,
	})
}

// vertexByID resolves an int64 "id" property to a vertex.
func (e *Engine) vertexByID(id int64) (graph.VertexID, error) {
	v, ok := e.g.FindByInt64("id", id)
	if !ok {
		return 0, fmt.Errorf("engine: no vertex with id %d", id)
	}
	return v, nil
}
