package exec

import (
	"time"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
	"repro/internal/mintersect"
	"repro/internal/pattern"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// ExpandOp computes one distinct reachability expansion. The planner may
// map several pattern edges onto one ExpandOp (the §2.3.2 symmetry memo,
// resolved when the plan is lowered): the first edge is the representative,
// the rest are reported as memo=hit spans so EXPLAIN ANALYZE keeps one span
// per pattern edge.
type ExpandOp struct {
	Graph   *graph.Graph
	Sources []graph.VertexID
	D       pattern.Determiner
	Opts    vexpand.Options

	// Cache, when non-nil, is consulted under Key before expanding and
	// fed after (cross-query reuse).
	Cache *MatrixCache
	Key   CacheKey

	// From is the pattern-vertex index the expansion starts from; Edges
	// are the pattern-edge indices this operator serves (≥ 1, the
	// representative first). Both are span annotations only.
	From  int
	Edges []int

	// Result, CacheState ("hit"|"miss"|"off"), and Wall are set by Run.
	// Wall is zero on a cache hit — no expansion work happened.
	Result     *vexpand.Result
	CacheState string
	Wall       time.Duration
}

// Run answers from the cache or runs VExpand, then emits one span per
// served pattern edge.
func (op *ExpandOp) Run(qc *QueryContext) error {
	if qc.activeExpands.Add(1) >= 2 {
		telemetry.ExecParallelExpands.Inc()
	}
	defer qc.activeExpands.Add(-1)

	ctx, sp := telemetry.StartSpan(qc.Context(), "expand")
	sp.SetInt("from", int64(op.From))
	sp.SetInt("edge", int64(op.Edges[0]))
	sp.SetStr("memo", "miss")

	if r, ok := op.Cache.Get(op.Key); ok {
		op.Result = r
		op.CacheState = "hit"
		qc.query.AddCacheHit()
		qc.query.AddCacheBytes(r.Stats.MatrixBytes)
		sp.SetStr("cache", "hit")
		annotateShared(sp, r, op.Sources, op.D)
		sp.End()
		op.emitMemoSpans(qc)
		return nil
	}

	if op.Cache != nil {
		op.CacheState = "miss"
		sp.SetStr("cache", "miss")
	} else {
		op.CacheState = "off"
	}
	t0 := time.Now()
	r, err := vexpand.ExpandContext(ctx, op.Graph, op.Sources, op.D, op.Opts)
	if err != nil {
		sp.End()
		return err
	}
	op.Wall = time.Since(t0)
	op.Result = r
	qc.query.AddMatrixBytes(r.Stats.MatrixBytes)
	sp.End()
	// Cached results are shared across queries and must stay immutable;
	// the join assembly clones before AND-ing (copy-on-AND), so sharing
	// the result as-is is safe.
	op.Cache.Put(op.Key, r)
	op.emitMemoSpans(qc)
	return nil
}

// emitMemoSpans records one memo=hit span per extra pattern edge served by
// this operator, preserving the one-span-per-edge contract of the serial
// engine's symmetry memo.
func (op *ExpandOp) emitMemoSpans(qc *QueryContext) {
	for _, edge := range op.Edges[1:] {
		_, sp := telemetry.StartSpan(qc.Context(), "expand")
		sp.SetInt("from", int64(op.From))
		sp.SetInt("edge", int64(edge))
		sp.SetStr("memo", "hit")
		annotateShared(sp, op.Result, op.Sources, op.D)
		sp.End()
	}
}

// annotateShared records the shape of a shared (memo- or cache-answered)
// expansion on a span: the same vital signs a fresh expansion annotates,
// minus per-step effort that never ran in this query.
func annotateShared(sp *telemetry.Span, r *vexpand.Result, sources []graph.VertexID, d pattern.Determiner) {
	if sp == nil {
		return
	}
	sp.SetStr("kernel", r.Stats.Kernel.String())
	sp.SetInt("sources", int64(len(sources)))
	sp.SetInt("kmin", int64(d.KMin))
	sp.SetInt("kmax", int64(d.KMax))
	sp.SetInt("matrix_bytes", r.Stats.MatrixBytes)
	// Guarded by the nil-span early return: the popcount scan only runs
	// when a trace is active.
	sp.SetInt("pairs", int64(r.PairCount()))
}

// JoinEdge ties one planned edge's join-order position pair to the
// ExpandOp that computes its matrix.
type JoinEdge struct {
	EarlierPos, LaterPos int
	Src                  *ExpandOp
}

// IntersectOp describes the MIntersect input in terms of the ExpandOps that
// computed its matrices. Parallel edges sharing one (earlier, later)
// position pair AND into a private clone (copy-on-AND): single-use matrices
// are shared with the expansion result — and possibly the cache — without
// copying.
type IntersectOp struct {
	NumPatternVertices int
	FirstCols          []graph.VertexID
	RowCandidates      [][]graph.VertexID
	Edges              []JoinEdge
}

// Assemble builds the MIntersect input from the expansion results; the
// caller runs the join. It returns the clone bytes reserved on qc's budget,
// which the caller must Release when the join is done; on error nothing
// stays reserved.
func (op *IntersectOp) Assemble(qc *QueryContext) (*mintersect.Input, int64, error) {
	type key struct{ earlier, later int }
	matrices := make(map[key]*bitMatrix)
	cloned := int64(0)
	for _, je := range op.Edges {
		r := je.Src.Result
		k := key{je.EarlierPos, je.LaterPos}
		if m, ok := matrices[k]; ok {
			n, err := m.andShared(r.Reach, qc.Budget())
			cloned += n
			if err != nil {
				qc.Budget().Release(cloned)
				return nil, 0, err
			}
		} else {
			matrices[k] = &bitMatrix{m: r.Reach}
		}
	}

	n := op.NumPatternVertices
	in := &mintersect.Input{
		NumPatternVertices: n,
		FirstCols:          op.FirstCols,
		RowCandidates:      op.RowCandidates,
		Ext:                make([][]*mintersect.EdgeMatrix, n),
	}
	for k, m := range matrices {
		em := &mintersect.EdgeMatrix{EarlierPos: k.earlier, M: m.m}
		if k.earlier == 0 && k.later == 1 {
			in.First = em
		} else {
			in.Ext[k.later] = append(in.Ext[k.later], em)
		}
	}
	// Deterministic extension order (map iteration above is random).
	for t := 2; t < n; t++ {
		exts := in.Ext[t]
		for i := 1; i < len(exts); i++ {
			for j := i; j > 0 && exts[j].EarlierPos < exts[j-1].EarlierPos; j-- {
				exts[j], exts[j-1] = exts[j-1], exts[j]
			}
		}
	}
	return in, cloned, nil
}

// bitMatrix tracks whether a join-input matrix is still the shared
// expansion result (owned=false) or a private AND-accumulator clone.
type bitMatrix struct {
	m     *bitmatrix.Matrix
	owned bool
}

// andShared ANDs other into the slot's matrix. Copy-on-AND: the slot is
// still the shared expansion result the first time a parallel edge ANDs
// into it — clone then, and only then, reserving the clone's bytes on
// budget. Returns the bytes newly reserved (0 when already owned); the
// caller releases them when the join finishes.
//
//vs:hotpath
func (m *bitMatrix) andShared(other *bitmatrix.Matrix, budget *Accountant) (int64, error) {
	var cloned int64
	if !m.owned {
		n, err := m.promote(budget)
		if err != nil {
			return 0, err
		}
		cloned = n
	}
	m.m.And(other)
	return cloned, nil
}

// promote clones the shared matrix into a private accumulator, reserving
// its bytes on budget. Cold path: runs at most once per join slot, so it
// is kept out of line to keep andShared free of heap allocations.
//
//go:noinline
func (m *bitMatrix) promote(budget *Accountant) (int64, error) {
	size := int64(m.m.SizeBytes())
	if err := budget.Reserve(size); err != nil {
		return 0, err
	}
	m.m = m.m.Clone()
	m.owned = true
	return size, nil
}
